package graph

import (
	"fmt"
	"slices"
)

// DeltaCSR is an insertion-only overlay over a frozen base CSR: edge
// insertions are accumulated as per-row appended target slices, and every
// insertion is recorded in an append-only op log so an incremental
// consumer (the frontier push solver in internal/linkrank) can replay
// exactly the edges it has not seen yet. The node set is fixed to the
// base's, and edges are never removed: within one corpus lineage the link
// graph only grows, and anything else (a new blogger, a reindex) rebuilds
// the base instead — the blog layer's "full invalidation" fallback.
//
// Mutability contract: a DeltaCSR is mutated by exactly one writer
// (AddEdge) and is safe for concurrent readers only once the writer has
// stopped — the same freeze-after-build discipline as CSR. The blog layer
// builds a generation's view from the previous one by Clone()+AddEdge, so
// published views are immutable and readers can share them; Clone deep-copies
// every overlay row, so extending a clone never disturbs readers of the
// original.
//
// When the overlay grows past a size ratio, Compact() merges it back into
// a fresh base CSR whose offset/column arrays are byte-identical to
// NewCSR built from the equivalent full edge list (fuzz-asserted), so
// compaction is invisible to every CSR consumer.
type DeltaCSR struct {
	base *CSR
	// adds holds the overlay out-rows: targets appended to row i, in
	// insertion order, disjoint from the base row.
	adds map[int32][]int32
	// addSet indexes every overlay edge for O(1) duplicate checks.
	addSet map[int64]struct{}
	// log records every inserted edge since the base was frozen, in
	// insertion order; each entry is a distinct edge absent from the base.
	log []EdgeOp
}

// EdgeOp is one edge insertion in the overlay's op log.
type EdgeOp struct {
	From, To int32
}

// edgeKey packs a dense edge into one comparable map key.
func edgeKey(from, to int32) int64 {
	return int64(from)<<32 | int64(uint32(to))
}

// NewDeltaCSR returns an empty overlay over base.
func NewDeltaCSR(base *CSR) *DeltaCSR {
	return &DeltaCSR{
		base:   base,
		adds:   map[int32][]int32{},
		addSet: map[int64]struct{}{},
	}
}

// Base returns the frozen base CSR the overlay applies to.
func (d *DeltaCSR) Base() *CSR { return d.base }

// NumNodes returns the node count (fixed to the base's).
func (d *DeltaCSR) NumNodes() int { return d.base.NumNodes() }

// NumEdges returns the deduplicated edge count: base edges plus inserts.
func (d *DeltaCSR) NumEdges() int { return d.base.NumEdges() + len(d.log) }

// OverlaySize reports how many edges the overlay has inserted since the
// base was frozen — the blog layer's compaction trigger.
func (d *DeltaCSR) OverlaySize() int { return len(d.log) }

// Ops returns the append-only op log (shared; do not modify). Ops()[k:]
// is exactly the edges inserted since the log was k long, which is how
// an incremental solver seeds its residual frontier.
func (d *DeltaCSR) Ops() []EdgeOp { return d.log }

// Index returns the dense index of id, delegating to the base.
func (d *DeltaCSR) Index(id string) (int, bool) { return d.base.Index(id) }

// IDs returns the dense node order, delegating to the base.
func (d *DeltaCSR) IDs() []string { return d.base.IDs }

// baseRowHasEdge reports whether from→to is a base edge; base rows are
// sorted, so this is a binary search.
func (d *DeltaCSR) baseRowHasEdge(from, to int32) bool {
	row := d.base.Out(int(from))
	_, ok := slices.BinarySearch(row, to)
	return ok
}

// checkEdge panics on out-of-range endpoints, mirroring NewCSR: a bad
// dense index is a programmer error, like an out-of-bounds slice index.
func (d *DeltaCSR) checkEdge(from, to int32) {
	n := int32(d.base.NumNodes())
	if from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("graph: DeltaCSR edge %d→%d out of range [0,%d)", from, to, n))
	}
}

// AddEdge records the insertion of from→to. It reports whether the edge
// was actually new: inserting an edge that is already present is a no-op
// (parallel edges collapse, matching NewCSR semantics) and is not logged.
func (d *DeltaCSR) AddEdge(from, to int32) bool {
	if d.HasEdge(from, to) {
		return false
	}
	d.addSet[edgeKey(from, to)] = struct{}{}
	d.adds[from] = append(d.adds[from], to)
	d.log = append(d.log, EdgeOp{From: from, To: to})
	return true
}

// HasEdge reports whether from→to is present: a base edge or an overlay
// insert. O(log deg) via the sorted base row.
func (d *DeltaCSR) HasEdge(from, to int32) bool {
	d.checkEdge(from, to)
	if d.baseRowHasEdge(from, to) {
		return true
	}
	_, ok := d.addSet[edgeKey(from, to)]
	return ok
}

// OutDegree returns the out-degree of dense node i in O(1).
func (d *DeltaCSR) OutDegree(i int) int {
	return d.base.OutDegree(i) + len(d.adds[int32(i)])
}

// EachOut visits the successors of dense node i: the base row, then the
// overlay appends in insertion order. This is the row-visitor surface the
// push solver sweeps; unlike CSR.Out the merged row is not sorted (appends
// come last), which no solver kernel relies on — they only sum over the
// row.
func (d *DeltaCSR) EachOut(i int32, visit func(to int32)) {
	for _, t := range d.base.Out(int(i)) {
		visit(t)
	}
	for _, t := range d.adds[i] {
		visit(t)
	}
}

// Clone returns an independent copy of the overlay sharing the frozen
// base. Every row slice is deep-copied at exact capacity, so appends to
// the clone always reallocate and can never be observed through the
// original — the property that lets the blog layer publish one immutable
// view per generation while building the next generation's view from it.
func (d *DeltaCSR) Clone() *DeltaCSR {
	c := &DeltaCSR{
		base:   d.base,
		adds:   make(map[int32][]int32, len(d.adds)),
		addSet: make(map[int64]struct{}, len(d.addSet)),
		log:    slices.Clip(slices.Clone(d.log)),
	}
	for i, row := range d.adds {
		c.adds[i] = slices.Clip(slices.Clone(row))
	}
	for k := range d.addSet {
		c.addSet[k] = struct{}{}
	}
	return c
}

// Compact merges the overlay into a fresh base CSR. The result is
// byte-identical to NewCSR built from the equivalent full edge list
// (asserted by FuzzDeltaCompaction): out-rows are produced by a linear
// merge of the sorted base row with the sorted overlay row — no global
// re-sort — and in-rows by the same sources-ascending transpose NewCSR
// uses.
func (d *DeltaCSR) Compact() *CSR {
	n := d.base.NumNodes()
	c := &CSR{IDs: d.base.IDs, idx: d.base.idx}

	c.OutOff = make([]int32, n+1)
	c.OutTo = make([]int32, 0, d.NumEdges())
	scratch := make([]int32, 0, 16)
	for i := 0; i < n; i++ {
		adds := append(scratch[:0], d.adds[int32(i)]...)
		scratch = adds
		slices.Sort(adds)
		base := d.base.Out(i)
		bi, ai := 0, 0
		for bi < len(base) || ai < len(adds) {
			switch {
			case ai == len(adds) || (bi < len(base) && base[bi] < adds[ai]):
				c.OutTo = append(c.OutTo, base[bi])
				bi++
			default:
				c.OutTo = append(c.OutTo, adds[ai])
				ai++
			}
		}
		c.OutOff[i+1] = int32(len(c.OutTo))
	}
	c.OutTo = slices.Clip(c.OutTo)

	// Transpose exactly like NewCSR: iterate sources ascending so every
	// in-row comes out ascending without a second sort.
	c.InOff = make([]int32, n+1)
	for _, t := range c.OutTo {
		c.InOff[t+1]++
	}
	for i := 0; i < n; i++ {
		c.InOff[i+1] += c.InOff[i]
	}
	c.InFrom = make([]int32, len(c.OutTo))
	cursor := make([]int32, n)
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

// Flatten returns a plain CSR view of the effective graph: the base
// itself when the overlay is empty (no copy), a Compact() otherwise.
func (d *DeltaCSR) Flatten() *CSR {
	if len(d.log) == 0 {
		return d.base
	}
	return d.Compact()
}
