// Package cluster shards the live serving core horizontally: a
// consistent-hash ring routes every blogger (and everything that hangs off
// one — posts by author, links by endpoint) to one of N independent
// core.Engine shards, each with its own WAL/snapshot directory, while a
// coordinator compiles queries into per-shard sub-plans, scatters them
// one goroutine per shard with per-shard timeouts, and merges the
// scored rows back under the exact total order the single-engine executor
// uses. Cross-shard links live in a boundary edge set so the exact global
// PageRank can be recovered from per-shard solves plus a residual-push
// correction over the merged graph (GlobalPageRank).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-shard virtual-node count of every
// cluster's ring (cluster.json records it). 64 points per shard keeps the
// assignment imbalance and the moved-key fraction under shard-count
// changes within a few percent of ideal while the ring stays small enough
// to rebuild in microseconds.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard int32
}

// Ring is an immutable consistent-hash ring: vnodes virtual points per
// shard, placed by FNV-64a over a stable label, owning the arc up to the
// next point clockwise. Assignment is a pure function of (shards, vnodes,
// key): two rings built with the same parameters agree on every key, and
// growing the ring from N to N+1 shards moves only the keys whose arc the
// new shard's points capture — on average 1/(N+1) of them, all landing on
// the new shard.
type Ring struct {
	shards int
	vnodes int
	points []ringPoint // sorted by (hash, shard)
}

// NewRing builds the ring for a shard count. vnodes <= 0 takes
// DefaultVirtualNodes; shards < 1 is normalized to 1 (a one-shard ring
// routes everything to shard 0).
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{shards: shards, vnodes: vnodes, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, v), shard: int32(s)})
		}
	}
	// Ties (astronomically unlikely with FNV-64a over distinct labels) break
	// by shard index so the order is still deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// mix64 is the splitmix64 finalizer. Raw FNV-64a of short structured
// strings ("shard-3/vnode-17", "b00042") lands in clumps on the circle,
// which skews arc ownership badly; the finalizer's avalanche spreads the
// points uniformly without costing determinism.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pointHash places one virtual node. The label is stable across ring
// rebuilds, which is what makes assignments stable: shard s's points sit at
// the same positions whether the ring has N or N+1 shards.
func pointHash(shard, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "shard-%d/vnode-%d", shard, vnode)
	return mix64(h.Sum64())
}

// keyHash positions a routing key on the circle.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// Shards reports the shard count the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// VirtualNodes reports the per-shard virtual-node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Owner maps a routing key (a blogger ID) to its shard: the first virtual
// node clockwise from the key's hash, wrapping past the top of the circle.
func (r *Ring) Owner(key string) int {
	if r.shards == 1 {
		return 0
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].shard)
}
