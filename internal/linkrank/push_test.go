package linkrank

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mass/internal/graph"
)

// ---------------------------------------------------------------------------
// Helpers.

// buildCSR constructs a base CSR over n nodes from dense edge pairs.
func buildCSR(t testing.TB, n int, edges [][2]int32) *graph.CSR {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%03d", i)
	}
	from := make([]int32, len(edges))
	to := make([]int32, len(edges))
	for k, e := range edges {
		from[k], to[k] = e[0], e[1]
	}
	c := graph.NewCSR(ids, from, to)
	if err := c.Validate(); err != nil {
		t.Fatalf("base CSR invalid: %v", err)
	}
	return c
}

// coldReference solves the view's effective graph from scratch with a fixed
// sweep count and no convergence cutoff: 300 damped sweeps contract any
// start to the fixed point far below 1e-12 (0.85^300 ≈ 4e-22), so the
// result is the machine-precision ground truth the push solver is compared
// against.
func coldReference(view *graph.DeltaCSR) []float64 {
	res := PageRankCSR(view.Flatten(), Options{
		Epsilon: ExplicitZero,
		MaxIter: 300,
	})
	return res.Scores
}

// pushTestOpts are the solver options every equivalence test uses: epsilon
// tight enough that the n·eps/(1−d) error bound stays under 1e-12 for the
// graph sizes involved, a push budget far above the default (tight epsilon
// on dense little graphs can exceed MaxIter·n pushes), and a fallback bound
// high enough that no delta is refused.
var pushTestOpts = Options{
	Epsilon:      1e-15,
	MaxIter:      100000,
	FallbackMass: 1e18,
}

// assertDeltaMatchesCold runs the delta solver and compares against a cold
// dense reference of the same effective graph.
func assertDeltaMatchesCold(t *testing.T, view *graph.DeltaCSR, st *PushState, label string) DeltaResult {
	t.Helper()
	res, ok := DeltaPageRankCSR(view, st, pushTestOpts)
	if !ok {
		t.Fatalf("%s: delta solver refused (seeded %d, mass %v)", label, res.Seeded, st.ResidualMass())
	}
	want := coldReference(view)
	got := st.AppendScores(nil)
	if len(got) != len(want) {
		t.Fatalf("%s: score length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12 {
			t.Fatalf("%s: node %d delta %v vs cold %v (diff %.3e)", label, i, got[i], want[i], d)
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Equivalence: delta == cold dense solve to ≤ 1e-12.

// TestDeltaPageRankSingleFlush covers the canonical shapes by hand: edge
// adds into a cycle, a dangling node gaining its first edge, a self-link
// row fanning out, and a disconnected island.
func TestDeltaPageRankSingleFlush(t *testing.T) {
	base := buildCSR(t, 7, [][2]int32{
		{0, 1}, {1, 2}, {2, 0}, // cycle
		{3, 3}, // self-link
		{4, 0}, // feeder; 5, 6 disconnected
	})
	view := graph.NewDeltaCSR(base)
	cold := coldReference(view)
	st := NewPushState(view, cold, pushTestOpts)

	view.AddEdge(5, 2) // dangling island node joins the cycle
	view.AddEdge(6, 6) // dangling island node links itself
	view.AddEdge(3, 1) // self-link row gains a second edge
	view.AddEdge(2, 4) // back edge
	view.AddEdge(4, 5) // feeder fans out to the island
	res := assertDeltaMatchesCold(t, view, st, "hand-built flush")
	if res.Seeded == 0 || res.Pushed == 0 {
		t.Fatalf("flush must seed and push: %+v", res)
	}
}

// TestDeltaPageRankRandomized is the main property test: random base graphs
// (danglings, self-links and disconnected nodes all occur naturally),
// random multi-flush sequences of edge insertions, checked
// against a cold dense solve after every flush.
func TestDeltaPageRankRandomized(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		n := 2 + rng.Intn(40)
		var edges [][2]int32
		for k := rng.Intn(3 * n); k > 0; k-- {
			edges = append(edges, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		base := buildCSR(t, n, edges)
		view := graph.NewDeltaCSR(base)
		st := NewPushState(view, coldReference(view), pushTestOpts)

		flushes := 1 + rng.Intn(5)
		for f := 0; f < flushes; f++ {
			for m := 1 + rng.Intn(8); m > 0; m-- {
				view.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
			assertDeltaMatchesCold(t, view, st,
				fmt.Sprintf("trial %d flush %d (n=%d)", trial, f, n))
		}
	}
}

// TestDeltaPageRankDeterministic: identical (state, delta) sequences must
// produce bit-identical scores — the solver is serial with a fixed seeding
// and queue order.
func TestDeltaPageRankDeterministic(t *testing.T) {
	run := func() []float64 {
		base := buildCSR(t, 12, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 1}, {5, 6}})
		view := graph.NewDeltaCSR(base)
		st := NewPushState(view, coldReference(view), pushTestOpts)
		view.AddEdge(7, 0)
		view.AddEdge(8, 3)
		view.AddEdge(1, 3)
		if _, ok := DeltaPageRankCSR(view, st, pushTestOpts); !ok {
			t.Fatal("delta refused")
		}
		view.AddEdge(1, 0)
		view.AddEdge(9, 9)
		if _, ok := DeltaPageRankCSR(view, st, pushTestOpts); !ok {
			t.Fatal("second delta refused")
		}
		return st.AppendScores(nil)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at node %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// ---------------------------------------------------------------------------
// State bootstrap and stopping contract.

// TestNewPushStateExactResidual: built from a machine-precision solve, the
// state's residual mass must be at noise level; built from a sloppy solve,
// it must reflect the real distance so the first delta call finishes the
// job.
func TestNewPushStateExactResidual(t *testing.T) {
	base := buildCSR(t, 9, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 4}, {5, 0}})
	view := graph.NewDeltaCSR(base)

	tight := NewPushState(view, coldReference(view), pushTestOpts)
	if m := tight.ResidualMass(); m > 1e-12 {
		t.Fatalf("residual after exact solve = %v, want ~0", m)
	}

	sloppy := PageRankCSR(base, Options{Epsilon: ExplicitZero, MaxIter: 3})
	st := NewPushState(view, sloppy.Scores, pushTestOpts)
	if m := st.ResidualMass(); m < 1e-6 {
		t.Fatalf("residual after 3 sweeps = %v, should be far from converged", m)
	}
	// No ops at all: the delta call just polishes the leftover residual.
	assertDeltaMatchesCold(t, view, st, "polish-only")
}

// TestDeltaPageRankStopsUnderEpsilon: after a successful solve the residual
// bound must actually be under the configured epsilon per node.
func TestDeltaPageRankStopsUnderEpsilon(t *testing.T) {
	base := buildCSR(t, 20, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 0}, {6, 5}})
	view := graph.NewDeltaCSR(base)
	opts := Options{Epsilon: 1e-9, MaxIter: 10000, FallbackMass: 1e18}
	st := NewPushState(view, coldReference(view), opts)
	view.AddEdge(7, 2)
	view.AddEdge(8, 2)
	res, ok := DeltaPageRankCSR(view, st, opts)
	if !ok {
		t.Fatal("delta refused")
	}
	if res.ResidualMass > 20*1e-9 {
		t.Fatalf("residual mass %v exceeds n·eps", res.ResidualMass)
	}
}

// ---------------------------------------------------------------------------
// Fallback and decline conditions.

func TestDeltaPageRankFallsBackOnMass(t *testing.T) {
	base := buildCSR(t, 30, [][2]int32{{0, 1}, {1, 0}})
	view := graph.NewDeltaCSR(base)
	opts := Options{Epsilon: 1e-12, MaxIter: 10000, FallbackMass: 1e-9}
	st := NewPushState(view, coldReference(view), opts)
	if _, ok := DeltaPageRankCSR(view, st, opts); !ok {
		t.Fatal("settle with no ops must succeed")
	}
	// A big structural delta seeds far more than FallbackMass.
	for i := int32(2); i < 30; i++ {
		view.AddEdge(i, 0)
		view.AddEdge(0, i)
	}
	res, ok := DeltaPageRankCSR(view, st, opts)
	if ok {
		t.Fatalf("huge delta must refuse under FallbackMass=1e-9: %+v", res)
	}
	if res.Seeded == 0 {
		t.Fatal("refusal must happen after seeding, reporting the frontier size")
	}
	// The caller's documented recovery: full solve, fresh state. (With a
	// non-degenerate mass bound — 1e-9 refuses even a single-edge delta.)
	recover := opts
	recover.FallbackMass = 0.5
	st = NewPushState(view, coldReference(view), recover)
	view.AddEdge(1, 2)
	if _, ok := DeltaPageRankCSR(view, st, recover); !ok {
		t.Fatal("rebuilt state must accept a small delta again")
	}
}

func TestDeltaPageRankDeclines(t *testing.T) {
	base := buildCSR(t, 5, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	view := graph.NewDeltaCSR(base)
	st := NewPushState(view, coldReference(view), pushTestOpts)

	if _, ok := DeltaPageRankCSR(view, nil, pushTestOpts); ok {
		t.Fatal("nil state must decline")
	}
	bad := pushTestOpts
	bad.Damping = 0.5
	if _, ok := DeltaPageRankCSR(view, st, bad); ok {
		t.Fatal("damping change must decline")
	}
	bad = pushTestOpts
	bad.Epsilon = ExplicitZero
	if _, ok := DeltaPageRankCSR(view, st, bad); ok {
		t.Fatal("epsilon=0 (sweep forever) must decline")
	}
	// A recompacted view has a different base CSR: stale state declines.
	view.AddEdge(3, 4)
	rebased := graph.NewDeltaCSR(view.Compact())
	if _, ok := DeltaPageRankCSR(rebased, st, pushTestOpts); ok {
		t.Fatal("base change must decline")
	}
	// The original view still works with the original state.
	if _, ok := DeltaPageRankCSR(view, st, pushTestOpts); !ok {
		t.Fatal("original view must still be accepted")
	}
}

func TestDeltaPageRankEmptyGraph(t *testing.T) {
	view := graph.NewDeltaCSR(graph.NewCSR(nil, nil, nil))
	st := NewPushState(view, nil, pushTestOpts)
	if _, ok := DeltaPageRankCSR(view, st, pushTestOpts); !ok {
		t.Fatal("empty graph must trivially succeed")
	}
}

// ---------------------------------------------------------------------------
// Allocation contract.

// TestPushLoopAllocFree pins the O(1)-allocations-per-solve contract: an
// insert/solve cycle that seeds and pushes every round must average a
// small constant number of allocations — overlay bookkeeping and amortized
// row and op-log growth — independent of how many pushes run. Any per-push
// or per-seeded-node allocation would multiply through the hundreds of
// pushes each cycle performs.
func TestPushLoopAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 300
	var edges [][2]int32
	for k := 0; k < 1500; k++ {
		edges = append(edges, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	base := buildCSR(t, n, edges)
	view := graph.NewDeltaCSR(base)
	opts := Options{Epsilon: 1e-12, MaxIter: 100000, FallbackMass: 1e18}
	st := NewPushState(view, coldReference(view), opts)

	// Every cycle inserts a fresh edge out of node 7.
	var fresh []int32
	for to := int32(0); int(to) < n; to++ {
		if !view.HasEdge(7, to) {
			fresh = append(fresh, to)
		}
	}
	insert := func() {
		view.AddEdge(7, fresh[0])
		fresh = fresh[1:]
		if _, ok := DeltaPageRankCSR(view, st, opts); !ok {
			t.Fatal("delta refused")
		}
	}
	insert() // warm up workspace (key scratch, overlay rows)
	var pushes uint64
	avg := testing.AllocsPerRun(50, func() {
		before := st.totalPushes
		insert()
		pushes += st.totalPushes - before
	})
	if pushes == 0 {
		t.Fatal("cycle performed no pushes — alloc assertion would be vacuous")
	}
	if avg > 8 {
		t.Fatalf("insert/solve cycle averages %v allocs (%d pushes total) — push loop is allocating", avg, pushes)
	}
}

// ---------------------------------------------------------------------------
// The dangling share's closed-form fold.

// TestFoldFirstOutLink: a flush whose only op gives a dangling source its
// first out-link removes that source's d·x from the uniform share, so the
// fold scales the state down (c < 1). The result must still match a cold
// solve.
func TestFoldFirstOutLink(t *testing.T) {
	base := buildCSR(t, 8, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 0}, {4, 3}, {5, 3}})
	view := graph.NewDeltaCSR(base)
	st := NewPushState(view, coldReference(view), pushTestOpts)
	if view.OutDegree(6) != 0 {
		t.Fatal("node 6 must start dangling")
	}
	view.AddEdge(6, 2)
	assertDeltaMatchesCold(t, view, st, "first out-link of a dangling source")
	if !(st.scale < 1) {
		t.Fatalf("scale %v after removing dangling mass, want < 1", st.scale)
	}
}

// TestFoldAllButOneDangling: when every node but one is dangling nearly
// all pushed mass lands in the uniform share, so nearly every push is
// folded rather than pushed.
func TestFoldAllButOneDangling(t *testing.T) {
	const n = 40
	var edges [][2]int32
	for i := int32(1); i < n; i += 3 {
		edges = append(edges, [2]int32{0, i})
	}
	base := buildCSR(t, n, edges)
	view := graph.NewDeltaCSR(base)
	st := NewPushState(view, coldReference(view), pushTestOpts)
	view.AddEdge(0, 2)
	assertDeltaMatchesCold(t, view, st, "hub gains an edge")
	view.AddEdge(0, 5)
	view.AddEdge(0, 0)
	assertDeltaMatchesCold(t, view, st, "hub gains a self-link")
}

// TestFoldDampingOneDeclines: at damping 1, I − M is singular and the
// dangling share has no closed form, so the delta path declines.
func TestFoldDampingOneDeclines(t *testing.T) {
	base := buildCSR(t, 6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 0}})
	view := graph.NewDeltaCSR(base)
	opts := pushTestOpts
	opts.Damping = 1
	st := NewPushState(view, coldReference(view), opts)
	view.AddEdge(4, 0)
	if _, ok := DeltaPageRankCSR(view, st, opts); ok {
		t.Fatal("damping 1 must decline")
	}
}

// TestPushWorkBlogShaped bounds the work of a small link flush on a
// blog-shaped graph: two thirds of the nodes dangling, about two out-links
// per linking node, and 3-edge flushes from random sources (dangling ones
// included). Most pushed mass lands in dangling rows, so this is the
// shape where adding the uniform share to every residual each time it
// reached ε/2 cost the most: about 42 pushes per node per flush. Folded
// in closed form, the share costs no push and a flush averages well under
// one push per node.
func TestPushWorkBlogShaped(t *testing.T) {
	const n = 1200
	rng := rand.New(rand.NewSource(2010))
	var edges [][2]int32
	for i := 0; i < n; i += 3 { // every third node links out
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if to := rng.Intn(n); to != i {
				edges = append(edges, [2]int32{int32(i), int32(to)})
			}
		}
	}
	base := buildCSR(t, n, edges)
	view := graph.NewDeltaCSR(base)
	opts := Options{Epsilon: 1e-12, MaxIter: 100000, FallbackMass: 1e18}
	st := NewPushState(view, coldReference(view), opts)
	const flushes = 40
	pushes := 0
	for f := 0; f < flushes; f++ {
		for added := 0; added < 3; {
			from, to := int32(rng.Intn(n)), int32(rng.Intn(n))
			if from != to && !view.HasEdge(from, to) {
				view.AddEdge(from, to)
				added++
			}
		}
		res, ok := DeltaPageRankCSR(view, st, opts)
		if !ok {
			t.Fatalf("flush %d: delta refused", f)
		}
		pushes += res.Pushed
	}
	perNode := float64(pushes) / flushes / n
	t.Logf("%.2f pushes per node per flush", perNode)
	if perNode > 12 {
		t.Fatalf("%.2f pushes per node per 3-edge flush, budget 12", perNode)
	}
	want := coldReference(view)
	got := st.AppendScores(nil)
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-10 {
			t.Fatalf("node %d: delta %v vs cold %v (diff %.3e)", i, got[i], want[i], d)
		}
	}
}

// zipfGraph builds the link graph of the PageRank benchmarks at any size:
// draws edges from a uniform source to a Zipf(1.3)-distributed target,
// seed 2010, self-links dropped. draw keeps yielding edges of the same
// shape from the same stream.
func zipfGraph(t testing.TB, nodes, draws int) (base *graph.CSR, draw func() (int32, int32)) {
	t.Helper()
	rng := rand.New(rand.NewSource(2010))
	zipf := rand.NewZipf(rng, 1.3, 8, uint64(nodes-1))
	draw = func() (int32, int32) { return int32(rng.Intn(nodes)), int32(zipf.Uint64()) }
	var edges [][2]int32
	for k := 0; k < draws; k++ {
		if from, to := draw(); from != to {
			edges = append(edges, [2]int32{from, to})
		}
	}
	return buildCSR(t, nodes, edges), draw
}

// TestPushWorkZipfBatch bounds the push work of a link-only flush on the
// heavy-tailed Zipf graph: consecutive batches of 100 fresh edges, each
// pushed back under the refresh-grade ε 1e-7 the engine's link flushes
// run at between rebases. The budget is twice the costliest of these ten
// batches when it was set (351 pushes; the others took 72 to 182).
func TestPushWorkZipfBatch(t *testing.T) {
	base, draw := zipfGraph(t, 50_000, 500_000)
	view := graph.NewDeltaCSR(base)
	opts := Options{Epsilon: 1e-7}
	st := NewPushState(view, PageRankCSR(base, Options{}).Scores, opts)
	for batch := 0; batch < 10; batch++ {
		for added := 0; added < 100; {
			if from, to := draw(); from != to && !view.HasEdge(from, to) {
				view.AddEdge(from, to)
				added++
			}
		}
		res, ok := DeltaPageRankCSR(view, st, opts)
		if !ok {
			t.Fatalf("batch %d: delta refused", batch)
		}
		if res.Pushed > 702 {
			t.Fatalf("batch %d: %d pushes, budget 702", batch, res.Pushed)
		}
	}
}
