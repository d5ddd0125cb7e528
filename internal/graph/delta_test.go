package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// buildBase constructs a small base CSR: n nodes "n0".."n<n-1>" with the
// given dense edge pairs.
func buildBase(t testing.TB, n int, edges [][2]int32) *CSR {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%02d", i)
	}
	from := make([]int32, len(edges))
	to := make([]int32, len(edges))
	for k, e := range edges {
		from[k], to[k] = e[0], e[1]
	}
	c := NewCSR(ids, from, to)
	if err := c.Validate(); err != nil {
		t.Fatalf("base CSR invalid: %v", err)
	}
	return c
}

// effectiveEdges replays ops over the base edge set in a plain map — the
// reference model every DeltaCSR accessor is compared against.
func effectiveEdges(base *CSR, ops []EdgeOp) map[[2]int32]struct{} {
	set := map[[2]int32]struct{}{}
	for i := 0; i < base.NumNodes(); i++ {
		for _, t := range base.Out(i) {
			set[[2]int32{int32(i), t}] = struct{}{}
		}
	}
	for _, op := range ops {
		set[[2]int32{op.From, op.To}] = struct{}{}
	}
	return set
}

func sortedRow(d *DeltaCSR, i int32) []int32 {
	var row []int32
	d.EachOut(i, func(t int32) { row = append(row, t) })
	slices.Sort(row)
	return row
}

func TestDeltaCSRAccessorsMatchModel(t *testing.T) {
	base := buildBase(t, 6, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 3}, {4, 0}})
	d := NewDeltaCSR(base)

	ops := []EdgeOp{
		{From: 0, To: 4}, // overlay insert
		{From: 3, To: 1}, // second edge out of a self-loop row
		{From: 5, To: 1}, // previously dangling node gains an edge
		{From: 5, To: 5}, // overlay self-loop
		{From: 2, To: 5}, // plain insert
	}
	for _, op := range ops {
		if !d.AddEdge(op.From, op.To) {
			t.Fatalf("op %+v reported no-op, want effective", op)
		}
	}
	// No-ops: present base edge, duplicate overlay edge.
	if d.AddEdge(0, 1) {
		t.Fatal("AddEdge of a base edge must be a no-op")
	}
	if d.AddEdge(2, 5) {
		t.Fatal("AddEdge of an overlay edge must be a no-op")
	}
	if got := len(d.Ops()); got != len(ops) {
		t.Fatalf("log holds %d ops, want %d (no-ops must not be logged)", got, len(ops))
	}

	model := effectiveEdges(base, ops)
	if d.NumEdges() != len(model) {
		t.Fatalf("NumEdges = %d, want %d", d.NumEdges(), len(model))
	}
	for i := int32(0); int(i) < d.NumNodes(); i++ {
		var want []int32
		for e := range model {
			if e[0] == i {
				want = append(want, e[1])
			}
		}
		slices.Sort(want)
		if got := sortedRow(d, i); !slices.Equal(got, want) {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
		if got := d.OutDegree(int(i)); got != len(want) {
			t.Fatalf("OutDegree(%d) = %d, want %d", i, got, len(want))
		}
		for j := int32(0); int(j) < d.NumNodes(); j++ {
			_, in := model[[2]int32{i, j}]
			if d.HasEdge(i, j) != in {
				t.Fatalf("HasEdge(%d, %d) = %v, want %v", i, j, !in, in)
			}
		}
	}
}

// assertCompactEqualsRebuild verifies the tentpole compaction contract:
// Compact() is byte-identical to NewCSR over the equivalent full edge list.
func assertCompactEqualsRebuild(t testing.TB, d *DeltaCSR) {
	t.Helper()
	model := effectiveEdges(d.Base(), d.Ops())
	from := make([]int32, 0, len(model))
	to := make([]int32, 0, len(model))
	for e := range model {
		from = append(from, e[0])
		to = append(to, e[1])
	}
	want := NewCSR(d.Base().IDs, from, to)
	got := d.Compact()
	if err := got.Validate(); err != nil {
		t.Fatalf("compacted CSR invalid: %v", err)
	}
	if !slices.Equal(got.IDs, want.IDs) {
		t.Fatal("compacted IDs differ from rebuild")
	}
	for name, pair := range map[string][2][]int32{
		"OutOff":   {got.OutOff, want.OutOff},
		"OutTo":    {got.OutTo, want.OutTo},
		"InOff":    {got.InOff, want.InOff},
		"InFrom":   {got.InFrom, want.InFrom},
		"Dangling": {got.Dangling, want.Dangling},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("compacted %s = %v, want %v", name, pair[0], pair[1])
		}
	}
}

func TestDeltaCSRCompactMatchesRebuild(t *testing.T) {
	base := buildBase(t, 8, [][2]int32{{0, 1}, {0, 7}, {1, 2}, {2, 0}, {3, 3}, {6, 5}})
	d := NewDeltaCSR(base)
	d.AddEdge(0, 3)
	d.AddEdge(0, 0)
	d.AddEdge(0, 2)
	d.AddEdge(7, 6)
	d.AddEdge(4, 5) // 4 was dangling
	d.AddEdge(5, 5)
	assertCompactEqualsRebuild(t, d)

	// Empty overlay: Flatten returns the base itself, Compact an equal copy.
	e := NewDeltaCSR(base)
	if e.Flatten() != base {
		t.Fatal("Flatten with empty overlay must return the base CSR")
	}
	assertCompactEqualsRebuild(t, e)
	if d.Flatten() == base {
		t.Fatal("Flatten with a non-empty overlay must not return the base")
	}
}

func TestDeltaCSRCloneIsolation(t *testing.T) {
	base := buildBase(t, 5, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	d := NewDeltaCSR(base)
	d.AddEdge(0, 2)
	d.AddEdge(3, 0)

	c := d.Clone()
	before := sortedRow(d, 0)
	beforeOps := len(d.Ops())

	// Mutate the clone heavily; the original must be unaffected.
	c.AddEdge(0, 3)
	c.AddEdge(0, 4)
	c.AddEdge(4, 1) // a dangling row gains an edge in the clone only

	if got := sortedRow(d, 0); !slices.Equal(got, before) {
		t.Fatalf("original row 0 changed after clone mutation: %v → %v", before, got)
	}
	if len(d.Ops()) != beforeOps {
		t.Fatalf("original log grew after clone mutation: %d → %d", beforeOps, len(d.Ops()))
	}
	if got := sortedRow(d, 4); len(got) != 0 {
		t.Fatalf("original row 4 gained an edge: %v", got)
	}
	if got := sortedRow(c, 4); !slices.Equal(got, []int32{1}) {
		t.Fatalf("clone insert lost: row 4 = %v", got)
	}
	assertCompactEqualsRebuild(t, c)
}

func TestDeltaCSRRandomizedVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		var edges [][2]int32
		for k := 0; k < rng.Intn(3*n); k++ {
			edges = append(edges, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		base := buildBase(t, n, edges)
		d := NewDeltaCSR(base)
		for k := 0; k < rng.Intn(4*n); k++ {
			d.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		model := effectiveEdges(base, d.Ops())
		if d.NumEdges() != len(model) {
			t.Fatalf("trial %d: NumEdges = %d, want %d", trial, d.NumEdges(), len(model))
		}
		assertCompactEqualsRebuild(t, d)
	}
}

// FuzzDeltaCompaction drives an arbitrary insertion sequence against an
// arbitrary base graph and asserts the compaction contract: compaction produces
// offset/column arrays byte-identical to NewCSR over the equivalent full
// edge list.
func FuzzDeltaCompaction(f *testing.F) {
	f.Add(uint8(4), []byte{0x01, 0x12, 0x83, 0x21})
	f.Add(uint8(1), []byte{0x00, 0x80})
	f.Add(uint8(9), []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde})
	f.Fuzz(func(t *testing.T, nRaw uint8, ops []byte) {
		n := 1 + int(nRaw%12)
		// Base edges come from the first half of ops, overlay inserts from
		// all of it, so the base and the delta overlap in interesting ways.
		var edges [][2]int32
		for _, b := range ops[:len(ops)/2] {
			edges = append(edges, [2]int32{int32(int(b>>4) % n), int32(int(b&0x0f) % n)})
		}
		base := buildBase(t, n, edges)
		d := NewDeltaCSR(base)
		for _, b := range ops {
			d.AddEdge(int32(int(b>>4)%n), int32(int(b&0x0f)%n))
		}
		model := effectiveEdges(base, d.Ops())
		if d.NumEdges() != len(model) {
			t.Fatalf("NumEdges = %d, want %d", d.NumEdges(), len(model))
		}
		assertCompactEqualsRebuild(t, d)
	})
}
