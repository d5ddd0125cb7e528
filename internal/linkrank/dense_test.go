package linkrank

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mass/internal/graph"
)

// ---------------------------------------------------------------------------
// refGraph is the test-local substrate of the reference solvers: a
// string-keyed directed graph with deduplicated edges, adjacency lists in
// edge-insertion order and nodes in insertion order. The kernels under
// test see it only through its CSR method.
type refGraph struct {
	order   []string
	nodes   map[string]bool
	out, in map[string][]string
	edges   map[[2]string]bool
}

func newRefGraph() *refGraph {
	return &refGraph{nodes: map[string]bool{}, out: map[string][]string{}, in: map[string][]string{}, edges: map[[2]string]bool{}}
}

func (g *refGraph) AddNode(id string) {
	if !g.nodes[id] {
		g.nodes[id] = true
		g.order = append(g.order, id)
	}
}

// AddEdge inserts from→to, creating missing nodes; parallel edges collapse.
func (g *refGraph) AddEdge(from, to string) {
	if g.edges[[2]string{from, to}] {
		return
	}
	g.AddNode(from)
	g.AddNode(to)
	g.edges[[2]string{from, to}] = true
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
}

func (g *refGraph) Nodes() []string         { return g.order }
func (g *refGraph) In(id string) []string   { return g.in[id] }
func (g *refGraph) OutDegree(id string) int { return len(g.out[id]) }
func (g *refGraph) SortedNodes() []string   { return slices.Sorted(slices.Values(g.order)) }

// CSR freezes g with graph.NewCSR over its sorted nodes.
func (g *refGraph) CSR() *graph.CSR {
	ids := g.SortedNodes()
	var from, to []int32
	for e := range g.edges {
		f, _ := slices.BinarySearch(ids, e[0])
		t, _ := slices.BinarySearch(ids, e[1])
		from, to = append(from, int32(f)), append(to, int32(t))
	}
	return graph.NewCSR(ids, from, to)
}

// ---------------------------------------------------------------------------
// Reference solvers: verbatim ports of the pre-CSR map-based implementations
// (sorted-node index maps, per-call adjacency rebuild). The dense kernels
// must reproduce their scores to ≤ 1e-12 on arbitrary graphs.

func refPageRank(g *refGraph, opts Options) mapResult {
	opts = opts.withDefaults()
	nodes := g.SortedNodes()
	n := len(nodes)
	if n == 0 {
		return mapResult{Scores: map[string]float64{}, Converged: true}
	}
	idx := make(map[string]int, n)
	for i, id := range nodes {
		idx[id] = i
	}
	outDeg := make([]int, n)
	inN := make([][]int, n)
	for i, id := range nodes {
		outDeg[i] = g.OutDegree(id)
		preds := g.In(id)
		inN[i] = make([]int, len(preds))
		for j, p := range preds {
			inN[i][j] = idx[p]
		}
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	uniform := 1 / float64(n)
	for i := range cur {
		cur[i] = uniform
	}
	if len(opts.WarmDense) > 0 {
		// WarmDense aligns to the CSR node index, which is the same
		// lexicographic order as nodes here.
		var sum float64
		for i := range nodes {
			v := 0.0
			if i < len(opts.WarmDense) {
				v = opts.WarmDense[i]
			}
			if v > 0 {
				cur[i] = v
			} else {
				cur[i] = uniform
			}
			sum += cur[i]
		}
		for i := range cur {
			cur[i] /= sum
		}
	}
	base := (1 - opts.Damping) / float64(n)
	res := mapResult{Scores: make(map[string]float64, n)}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		res.Iterations = iter
		var dangling float64
		for i := 0; i < n; i++ {
			if outDeg[i] == 0 {
				dangling += cur[i]
			}
		}
		danglingShare := opts.Damping * dangling / float64(n)
		var delta float64
		for i := 0; i < n; i++ {
			sum := 0.0
			for _, j := range inN[i] {
				sum += cur[j] / float64(outDeg[j])
			}
			next[i] = base + danglingShare + opts.Damping*sum
			delta += math.Abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if delta < opts.Epsilon {
			res.Converged = true
			break
		}
	}
	for i, id := range nodes {
		res.Scores[id] = cur[i]
	}
	return res
}

// ---------------------------------------------------------------------------
// Equivalence properties.

// messyGraph exercises every structural edge case the dense kernels must
// handle: dangling nodes, self-links, duplicate edges, and disconnected
// components (two islands of nodes with no edges between them plus fully
// isolated nodes).
func messyGraph(seed int64, n, e int) *refGraph {
	rng := rand.New(rand.NewSource(seed))
	g := newRefGraph()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("v%03d", i))
	}
	nodes := g.Nodes()
	half := len(nodes)/2 + 1
	pick := func(island int) string {
		if island == 0 {
			return nodes[rng.Intn(half)]
		}
		return nodes[half+rng.Intn(len(nodes)-half)]
	}
	for i := 0; i < e; i++ {
		island := 0
		if len(nodes) > half && rng.Intn(2) == 1 {
			island = 1
		}
		a, b := pick(island), pick(island)
		g.AddEdge(a, b) // a == b happens: self-link
		if rng.Intn(5) == 0 {
			g.AddEdge(a, b)
		}
	}
	return g
}

func maxDiff(a, b map[string]float64) float64 {
	worst := 0.0
	for k, v := range a {
		if d := math.Abs(v - b[k]); d > worst {
			worst = d
		}
	}
	if len(a) != len(b) {
		return math.Inf(1)
	}
	return worst
}

// TestDenseMatchesMapSolvers pins the CSR kernels to the pre-refactor
// map-based solvers to ≤ 1e-12 over randomized graphs with dangling nodes,
// self-links, duplicate edges, disconnected components, and the empty
// graph.
func TestDenseMatchesMapSolvers(t *testing.T) {
	const tol = 1e-12
	shapes := []struct{ n, e int }{
		{0, 0},   // empty
		{1, 0},   // single dangling node
		{7, 0},   // all dangling, no edges
		{12, 18}, // sparse, islands
		{25, 120},
		{40, 300}, // dense-ish
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			g := messyGraph(seed, sh.n, sh.e)
			name := fmt.Sprintf("n=%d/e=%d/seed=%d", sh.n, sh.e, seed)
			got := pageRank(g, Options{})
			want := refPageRank(g, Options{})
			if d := maxDiff(want.Scores, got.Scores); d > tol {
				t.Fatalf("%s: PageRank diverges from map solver by %g", name, d)
			}
			if got.Converged != want.Converged {
				t.Fatalf("%s: converged %v vs %v", name, got.Converged, want.Converged)
			}
		}
	}
}

// TestDenseWarmMatchesReference pins the dense warm-started path to the
// reference warm solver.
func TestDenseWarmMatchesReference(t *testing.T) {
	g := messyGraph(9, 30, 150)
	cold := refPageRank(g, Options{})

	csr := g.CSR()
	dense := make([]float64, csr.NumNodes())
	for i, id := range csr.IDs {
		dense[i] = cold.Scores[id]
	}
	want := refPageRank(g, Options{WarmDense: dense})

	viaDense := PageRankCSR(csr, Options{WarmDense: dense})
	for i, id := range csr.IDs {
		if d := math.Abs(viaDense.Scores[i] - want.Scores[id]); d > 1e-12 {
			t.Fatalf("dense warm start diverges for %s by %g", id, d)
		}
	}
	if viaDense.Iterations >= cold.Iterations {
		t.Fatalf("dense warm start no faster: %d vs %d iterations", viaDense.Iterations, cold.Iterations)
	}
}

// TestWarmStartSweepWork: a solve warm-started from the converged vector
// of the heavy-tailed Zipf graph takes at most a fifth of the cold solve's
// sweeps, and at most 2, twice the 1 it took when the budget was set (the
// cold solve took 20).
func TestWarmStartSweepWork(t *testing.T) {
	csr, _ := zipfGraph(t, 50_000, 500_000)
	cold := PageRankCSR(csr, Options{})
	warm := PageRankCSR(csr, Options{WarmDense: cold.Scores})
	if !cold.Converged || !warm.Converged {
		t.Fatalf("converged: cold %v, warm %v", cold.Converged, warm.Converged)
	}
	if warm.Iterations > 2 || 5*warm.Iterations > cold.Iterations {
		t.Fatalf("warm start took %d sweeps against %d cold; budget 2 and a fifth of cold",
			warm.Iterations, cold.Iterations)
	}
}

// ---------------------------------------------------------------------------
// Allocation contracts.

// TestSweepLoopAllocFree proves the sweep loop itself allocates nothing:
// running 6× the sweeps must not change allocs per solve.
func TestSweepLoopAllocFree(t *testing.T) {
	g := messyGraph(11, 200, 1200)
	csr := g.CSR()
	short := testing.AllocsPerRun(10, func() {
		PageRankCSR(csr, Options{Epsilon: ExplicitZero, MaxIter: 10})
	})
	long := testing.AllocsPerRun(10, func() {
		PageRankCSR(csr, Options{Epsilon: ExplicitZero, MaxIter: 60})
	})
	if long != short {
		t.Fatalf("60 sweeps allocate more than 10 (%v vs %v) — sweep loop is not alloc-free", long, short)
	}
}

// TestSolveAllocsSizeIndependent asserts the allocation budget of one solve
// is a constant count, not a function of graph size.
func TestSolveAllocsSizeIndependent(t *testing.T) {
	small := messyGraph(13, 64, 300).CSR()
	big := messyGraph(13, 1024, 6000).CSR()
	opts := Options{Epsilon: ExplicitZero, MaxIter: 8}
	a1 := testing.AllocsPerRun(10, func() { PageRankCSR(small, opts) })
	a2 := testing.AllocsPerRun(10, func() { PageRankCSR(big, opts) })
	if a1 != a2 {
		t.Fatalf("allocs grow with graph size: %v (64 nodes) vs %v (1024 nodes)", a1, a2)
	}
}

// ---------------------------------------------------------------------------
// Options clamping (regression: negative non-sentinel values used to pass
// straight through to the iteration).

func TestOptionsClampDamping(t *testing.T) {
	g := chain()
	// A negative damping factor is not a probability; it must clamp to 0
	// (pure teleport), not feed the iteration and produce negative scores.
	neg := pageRank(g, Options{Damping: -0.5})
	pure := pageRank(g, Options{Damping: ExplicitZero})
	if d := maxDiff(pure.Scores, neg.Scores); d != 0 {
		t.Fatalf("Damping=-0.5 must behave as 0, differs by %g", d)
	}
	for id, s := range neg.Scores {
		if math.Abs(s-1.0/3) > 1e-12 {
			t.Fatalf("clamped damping must be teleport-only, %s = %v", id, s)
		}
	}
	// Above 1 clamps to 1 and must still yield a valid distribution.
	over := pageRank(g, Options{Damping: 1.5, MaxIter: 50})
	if err := CheckStochastic(over.Scores, 1e-6); err != nil {
		t.Fatalf("Damping=1.5: %v", err)
	}
}

func TestOptionsClampEpsilonAndMaxIter(t *testing.T) {
	// A negative epsilon can never be crossed; it must mean "no cutoff",
	// exactly like the ExplicitZero sentinel.
	r := pageRank(chain(), Options{Epsilon: -0.5, MaxIter: 7})
	if r.Converged || r.Iterations != 7 {
		t.Fatalf("Epsilon=-0.5 must run exactly MaxIter sweeps: %+v", r)
	}
	// Negative MaxIter clamps to the default instead of returning the
	// start vector untouched.
	r = pageRank(chain(), Options{MaxIter: -3})
	if !r.Converged {
		t.Fatalf("MaxIter=-3 must clamp to the default and converge: %+v", r)
	}
	if !(r.Scores["c"] > r.Scores["b"] && r.Scores["b"] > r.Scores["a"]) {
		t.Fatalf("clamped MaxIter produced wrong ordering: %v", r.Scores)
	}
}
