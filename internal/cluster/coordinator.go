package cluster

// The read side of a cluster. A View pins one snapshot per shard, and
// Query answers from it: a pass-through at one shard, the owner shard
// alone for an author-pinned posts query, and otherwise a scatter of
// query.ExecuteShard finished by one query.MergeShards. Every scattered
// part is restricted by its snapshot's owned-row mask (Snapshot.Owned),
// built once per generation from the ring, so a read never hashes a
// blogger ID per row; unfiltered top and domain-top parts walk the
// shard's precomputed ranking instead of scanning. Stats and Status take
// their owned-blogger counts from the same masks.

import (
	"fmt"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/query"
)

// View pins one immutable snapshot per shard — the cluster-wide analogue
// of a single engine's Snapshot. Everything answered from one View is
// mutually consistent per shard (though shards advance independently, so
// the seq vector is the coherent version, not any single number).
type View struct {
	Snaps []*core.Snapshot
}

// View pins the current generation of every shard. A quarantined shard
// contributes its last published snapshot — stale but readable, which is
// what lets the breaker fast-fail queries without losing the shard's data
// from results entirely once it recovers.
func (cl *Cluster) View() *View {
	v := &View{Snaps: make([]*core.Snapshot, len(cl.shards))}
	for i, sh := range cl.shards {
		v.Snaps[i] = sh.eng.Load().Current()
	}
	return v
}

// Seqs is the per-shard generation vector.
func (v *View) Seqs() []uint64 {
	out := make([]uint64, len(v.Snaps))
	for i, s := range v.Snaps {
		out[i] = s.Seq
	}
	return out
}

// MaxSeq is the highest shard generation — the scalar the Meta.Seq field
// carries for cluster responses (the full vector rides next to it).
func (v *View) MaxSeq() uint64 {
	var m uint64
	for _, s := range v.Snaps {
		if s.Seq > m {
			m = s.Seq
		}
	}
	return m
}

// SeqKey renders the seq vector dot-joined ("3.5.4"); with one shard it is
// the bare generation number.
func (v *View) SeqKey() string {
	parts := make([]string, len(v.Snaps))
	for i, s := range v.Snaps {
		parts[i] = fmt.Sprintf("%d", s.Seq)
	}
	return strings.Join(parts, ".")
}

// ETag formats the seq vector as a strong validator: "mass-seq-3.5.4" for
// three shards. With one shard this is exactly the single-engine
// Snapshot.ETag(), so conditional GETs behave identically.
func (v *View) ETag() string {
	return `"mass-seq-` + v.SeqKey() + `"`
}

// SetSlowShardHook installs fn to run inside every scatter worker before
// the shard sub-query executes — deterministic slow-shard injection for
// tests outside this package. Pass nil to clear. Not for production use.
func (cl *Cluster) SetSlowShardHook(fn func(shard int)) {
	if fn == nil {
		cl.slowShard.Store(nil)
		return
	}
	cl.slowShard.Store(&fn)
}

// scatterPart is one shard's contribution to a scattered read.
type scatterPart struct {
	shard    int
	val      *query.ShardResult
	err      error
	panicked bool
}

// scatter runs fn on one goroutine per admitted shard and gathers with a
// deadline. No shard's part waits on another's, so a wedged shard cannot
// delay the healthy ones; it parks at most one goroutine per read until its
// breaker opens. Shards with an open circuit breaker are never launched
// — the read is flagged degraded immediately instead of burning the full
// ShardTimeout against a shard known to be down (that fast-fail is the
// breaker's whole point). A worker that panics is isolated: its shard is
// dropped from the result like a timed-out one and the failure counts
// toward the shard's breaker, never toward the caller. A shard that has
// not answered within ShardTimeout is dropped from the result (nil slot),
// the read is flagged degraded, and the miss counts against its breaker;
// an answer counts as a success. Late results land in a buffered channel
// and are discarded — an uncancelable in-flight sub-query never blocks
// anything. Per-shard errors fail the whole read (the executor is
// deterministic, so an error on one shard means the query itself is bad).
func (cl *Cluster) scatter(v *View, fn func(si int, snap *core.Snapshot) (*query.ShardResult, error)) (vals []*query.ShardResult, degraded bool, err error) {
	cl.scatterQueries.Add(1)
	n := len(v.Snaps)
	ch := make(chan scatterPart, n)
	launched := 0
	admitted := make([]bool, n)
	for i := 0; i < n; i++ {
		if cl.shards[i].breakerOpen() {
			continue
		}
		admitted[i] = true
		launched++
		go func(si int) {
			p := scatterPart{shard: si}
			func() {
				defer func() {
					if r := recover(); r != nil {
						p.panicked, p.val, p.err = true, nil, nil
					}
				}()
				if hook := cl.slowShard.Load(); hook != nil {
					(*hook)(si)
				}
				p.val, p.err = fn(si, v.Snaps[si])
			}()
			ch <- p
		}(i)
	}
	vals = make([]*query.ShardResult, n)
	degraded = launched < n
	answered := make([]bool, n)
	deadline := time.NewTimer(cl.opts.ShardTimeout)
	defer deadline.Stop()
	finish := func() ([]*query.ShardResult, bool, error) {
		if degraded {
			cl.degradedQueries.Add(1)
		}
		if err != nil {
			return nil, degraded, err
		}
		return vals, degraded, nil
	}
	for got := 0; got < launched; {
		select {
		case p := <-ch:
			got++
			answered[p.shard] = true
			if p.panicked {
				degraded = true
				cl.shards[p.shard].recordFailure(cl)
				continue
			}
			cl.shards[p.shard].recordSuccess()
			if p.err != nil && err == nil {
				err = p.err
			}
			vals[p.shard] = p.val
		case <-deadline.C:
			degraded = true
			for i := range answered {
				if admitted[i] && !answered[i] {
					cl.shards[i].recordFailure(cl)
				}
			}
			return finish()
		}
	}
	return finish()
}

// authorEqTarget detects the single-shard routing opportunity: a posts
// query whose WHERE is (possibly nested ANDs containing) an author
// equality. All posts by one author live on the author's owner shard, so
// the whole query — scan, totals, pagination — collapses to that shard's
// own (memoized) executor.
func authorEqTarget(q *query.Query) (string, bool) {
	if q.Entity != query.EntityPosts || q.Where == nil {
		return "", false
	}
	return findAuthorEq(q.Where)
}

func findAuthorEq(p *query.Predicate) (string, bool) {
	switch {
	case p.Cmp != nil:
		c := p.Cmp
		if c.Field.Name == query.FieldAuthor && c.Op == query.OpEq && c.Str != "" {
			return c.Str, true
		}
	case len(p.And) > 0:
		// Any conjunct pins the author: the other conjuncts still run on
		// the routed shard.
		for _, kid := range p.And {
			if author, ok := findAuthorEq(kid); ok {
				return author, true
			}
		}
	}
	return "", false
}

// Query executes q against a pinned view. With one shard it is a zero-copy
// pass-through to the engine's own memoized executor. With several it
// routes an author-pinned posts query to the author's owner shard while
// that shard's breaker is closed; otherwise it scatters query.ExecuteShard
// under each shard's owned-row mask and finishes with query.MergeShards,
// so a quarantined owner is skipped and the answer labelled like any
// other scatter.
// degraded reports that at least one shard was skipped or missed its
// deadline and the result covers the rest.
func (cl *Cluster) Query(v *View, q *query.Query) (r *query.Result, degraded bool, err error) {
	if len(v.Snaps) == 1 {
		r, err = v.Snaps[0].Query(q)
		return r, false, err
	}
	n, err := q.Normalize()
	if err != nil {
		return nil, false, err
	}
	if author, ok := authorEqTarget(n); ok {
		if shard := cl.ring.Owner(author); !cl.shards[shard].breakerOpen() {
			routed, err := v.Snaps[shard].Query(n)
			if err != nil {
				return nil, false, err
			}
			out := *routed
			out.Plan = "route/" + routed.Plan
			return &out, false, nil
		}
	}
	parts, degraded, err := cl.scatter(v, func(si int, snap *core.Snapshot) (*query.ShardResult, error) {
		return query.ExecuteShard(snap.Corpus(), snap.Result(), n, snap.Owned())
	})
	if err != nil {
		return nil, degraded, err
	}
	r, err = query.MergeShards(parts, n)
	if err != nil {
		return nil, degraded, err
	}
	r.Plan = "scatter/" + r.Plan
	return r, degraded, nil
}

// Stats computes the exact global corpus summary from a pinned view:
// owned bloggers counted once (from each snapshot's owned-row mask),
// per-blogger activity summed across shards before taking maxima (a
// blogger's comments may land on posts owned by other shards), and
// boundary edges folded into the link and in-degree counts. With one shard it is the engine's own Stats.
func (cl *Cluster) Stats(v *View) blog.Stats {
	if len(v.Snaps) == 1 {
		return v.Snaps[0].Stats()
	}
	corpora := make([]*blog.Frozen, len(v.Snaps))
	bloggers, words := 0, 0
	for i, snap := range v.Snaps {
		corpora[i] = snap.Corpus()
		bloggers += snap.Owned().Count
		words += snap.Result().Words()
	}
	s := blog.ComputeStats(nil, cl.boundarySnapshot(), corpora...)
	s.Bloggers = bloggers
	if s.Posts > 0 {
		s.AvgPostLenWords = float64(words) / float64(s.Posts)
	}
	return s
}
