// Package graph holds MASS's one graph type, the frozen CSR, and DeltaCSR,
// its insertion-only overlay for the growing hyperlink graph. Every
// network the system reads is a CSR: the hyperlink graph that feeds GL
// (PageRank) and the Live Index baseline (blog.Frozen.LinkCSR), the
// post-reply graph netstats measures, the undirected comment ∪ link ∪
// friendship network blog.Neighborhood walks for the Fig. 4 network view
// and the friend-network recommendation, and the tag co-occurrence graph
// of taginterest.
package graph

import (
	"fmt"
	"slices"
)

// CSR is a frozen compressed-sparse-row view of a directed graph: node IDs
// interned into a dense [0, n) index, out- and in-adjacency as offset +
// column arrays, and the dangling (zero out-degree) nodes listed once. It
// is the solver-facing representation — an iterative kernel pays only for
// its sweeps, never for re-sorting node IDs or rebuilding index maps.
//
// Layout invariants (relied on by the linkrank kernels and asserted by
// Validate):
//
//   - IDs is the deterministic node order; IDs[i] is the ID of dense node i.
//     Builders in this repository always produce lexicographic order, so a
//     CSR built twice from the same graph is identical.
//   - OutOff has length n+1 and row i's successors are
//     OutTo[OutOff[i]:OutOff[i+1]], sorted ascending, deduplicated.
//   - InOff/InFrom mirror the same edges transposed, rows likewise sorted.
//   - Dangling lists every node with no out-edges, ascending.
//
// A CSR is immutable after construction and safe for concurrent use.
type CSR struct {
	IDs      []string
	OutOff   []int32
	OutTo    []int32
	InOff    []int32
	InFrom   []int32
	Dangling []int32

	idx map[string]int32
}

// NumNodes returns the node count.
func (c *CSR) NumNodes() int { return len(c.IDs) }

// NumEdges returns the deduplicated edge count.
func (c *CSR) NumEdges() int { return len(c.OutTo) }

// Index returns the dense index of id.
func (c *CSR) Index(id string) (int, bool) {
	i, ok := c.idx[id]
	return int(i), ok
}

// OutDegree returns the out-degree of dense node i.
func (c *CSR) OutDegree(i int) int { return int(c.OutOff[i+1] - c.OutOff[i]) }

// InDegree returns the in-degree of dense node i.
func (c *CSR) InDegree(i int) int { return int(c.InOff[i+1] - c.InOff[i]) }

// Out returns the successors of dense node i (shared; do not modify).
func (c *CSR) Out(i int) []int32 { return c.OutTo[c.OutOff[i]:c.OutOff[i+1]] }

// In returns the predecessors of dense node i (shared; do not modify).
func (c *CSR) In(i int) []int32 { return c.InFrom[c.InOff[i]:c.InOff[i+1]] }

// NewCSR builds a CSR over the given node IDs and edge list. ids must be
// unique (they become the dense order verbatim — pass a sorted slice for
// the deterministic-order contract); from[k]→to[k] are dense-index edge
// pairs. Parallel edges collapse; self-loops are kept. NewCSR panics on
// out-of-range indexes or duplicate IDs — both are programmer errors, like
// an out-of-bounds slice index.
func NewCSR(ids []string, from, to []int32) *CSR {
	n := len(ids)
	if len(from) != len(to) {
		panic(fmt.Sprintf("graph: NewCSR edge arrays differ: %d from vs %d to", len(from), len(to)))
	}
	idx := make(map[string]int32, n)
	for i, id := range ids {
		if _, dup := idx[id]; dup {
			panic(fmt.Sprintf("graph: NewCSR duplicate node ID %q", id))
		}
		idx[id] = int32(i)
	}
	for k := range from {
		if from[k] < 0 || int(from[k]) >= n || to[k] < 0 || int(to[k]) >= n {
			panic(fmt.Sprintf("graph: NewCSR edge %d→%d out of range [0,%d)", from[k], to[k], n))
		}
	}
	c := &CSR{IDs: ids, idx: idx}

	// Counting sort the edges into out-rows.
	c.OutOff = make([]int32, n+1)
	for _, f := range from {
		c.OutOff[f+1]++
	}
	for i := 0; i < n; i++ {
		c.OutOff[i+1] += c.OutOff[i]
	}
	c.OutTo = make([]int32, len(to))
	cursor := make([]int32, n)
	copy(cursor, c.OutOff[:n])
	for k, f := range from {
		c.OutTo[cursor[f]] = to[k]
		cursor[f]++
	}
	// Sort each row, then compact duplicates in place, rebuilding offsets.
	w := int32(0)
	rowStart := int32(0)
	for i := 0; i < n; i++ {
		row := c.OutTo[rowStart:c.OutOff[i+1]]
		rowStart = c.OutOff[i+1]
		slices.Sort(row)
		newStart := w
		for k, t := range row {
			if k > 0 && t == row[k-1] {
				continue
			}
			c.OutTo[w] = t
			w++
		}
		c.OutOff[i] = newStart
	}
	// OutOff[i] now holds the compacted start of every row; close the
	// final row (rows are contiguous, so starts + total fully define them).
	c.OutOff[n] = w
	c.OutTo = c.OutTo[:w:w]

	// Transpose the deduplicated out-rows into in-rows. Iterating sources
	// ascending makes every in-row ascending without a second sort.
	c.InOff = make([]int32, n+1)
	for _, t := range c.OutTo {
		c.InOff[t+1]++
	}
	for i := 0; i < n; i++ {
		c.InOff[i+1] += c.InOff[i]
	}
	c.InFrom = make([]int32, len(c.OutTo))
	copy(cursor, c.InOff[:n])
	for i := int32(0); int(i) < n; i++ {
		for _, t := range c.OutTo[c.OutOff[i]:c.OutOff[i+1]] {
			c.InFrom[cursor[t]] = i
			cursor[t]++
		}
	}

	for i := 0; i < n; i++ {
		if c.OutOff[i] == c.OutOff[i+1] {
			c.Dangling = append(c.Dangling, int32(i))
		}
	}
	return c
}

// HasEdge reports whether the edge i→j exists, by binary search over i's
// sorted out-row.
func (c *CSR) HasEdge(i, j int) bool {
	_, ok := slices.BinarySearch(c.Out(i), int32(j))
	return ok
}

// Components returns the weakly connected components — edges taken in
// both directions — as dense node sets, each ascending. The largest comes
// first; components of equal size are ordered by their smallest node.
func (c *CSR) Components() [][]int32 {
	seen := make([]bool, c.NumNodes())
	var comps [][]int32
	for s := range seen {
		if seen[s] {
			continue
		}
		// Starts ascend, so s is its component's smallest node.
		seen[s] = true
		comp := []int32{int32(s)}
		for k := 0; k < len(comp); k++ {
			u := int(comp[k])
			for _, row := range [2][]int32{c.Out(u), c.In(u)} {
				for _, v := range row {
					if !seen[v] {
						seen[v] = true
						comp = append(comp, v)
					}
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	slices.SortStableFunc(comps, func(a, b []int32) int { return len(b) - len(a) })
	return comps
}

// Reach returns the hop distance from seed to every node within radius,
// walking out-rows and in-rows together so every edge counts in both
// directions. dist[i] is -1 for a node farther than radius; seed itself
// is at 0 for any radius.
func (c *CSR) Reach(seed, radius int) []int {
	dist := make([]int, c.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[seed] = 0
	frontier := []int32{int32(seed)}
	for d := 1; d <= radius && len(frontier) > 0; d++ {
		var next []int32
		for _, u := range frontier {
			for _, row := range [2][]int32{c.Out(int(u)), c.In(int(u))} {
				for _, v := range row {
					if dist[v] < 0 {
						dist[v] = d
						next = append(next, v)
					}
				}
			}
		}
		frontier = next
	}
	return dist
}

// Validate checks the CSR layout invariants; it guards hand-built views in
// tests and is cheap enough (O(V+E)) to run on deserialized data.
func (c *CSR) Validate() error {
	n := len(c.IDs)
	if len(c.OutOff) != n+1 || len(c.InOff) != n+1 {
		return fmt.Errorf("graph: csr offset arrays sized %d/%d, want %d", len(c.OutOff), len(c.InOff), n+1)
	}
	if len(c.OutTo) != len(c.InFrom) {
		return fmt.Errorf("graph: csr edge arrays differ: %d out vs %d in", len(c.OutTo), len(c.InFrom))
	}
	for name, off := range map[string][]int32{"out": c.OutOff, "in": c.InOff} {
		if off[0] != 0 || int(off[n]) != len(c.OutTo) {
			return fmt.Errorf("graph: csr %s offsets span [%d,%d], want [0,%d]", name, off[0], off[n], len(c.OutTo))
		}
		if !slices.IsSorted(off) {
			return fmt.Errorf("graph: csr %s offsets not monotone", name)
		}
	}
	for i := 0; i < n; i++ {
		if !slices.IsSorted(c.OutTo[c.OutOff[i]:c.OutOff[i+1]]) {
			return fmt.Errorf("graph: csr out-row %d not sorted", i)
		}
		if !slices.IsSorted(c.InFrom[c.InOff[i]:c.InOff[i+1]]) {
			return fmt.Errorf("graph: csr in-row %d not sorted", i)
		}
	}
	dang := 0
	for i := 0; i < n; i++ {
		if c.OutDegree(i) == 0 {
			dang++
		}
	}
	if dang != len(c.Dangling) {
		return fmt.Errorf("graph: csr lists %d dangling nodes, want %d", len(c.Dangling), dang)
	}
	return nil
}
