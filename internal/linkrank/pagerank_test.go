package linkrank

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mapResult is a solver result keyed by node ID, the shape the reference
// solvers in dense_test.go return and these tests compare in.
type mapResult struct {
	Scores     map[string]float64
	Iterations int
	Converged  bool
}

func toMapResult(r DenseResult) mapResult {
	return mapResult{Scores: r.Map(), Iterations: r.Iterations, Converged: r.Converged}
}

// pageRank runs the dense kernel over g's frozen CSR view and keys the
// scores by node ID.
func pageRank(g *refGraph, opts Options) mapResult {
	return toMapResult(PageRankCSR(g.CSR(), opts))
}

func chain() *refGraph {
	g := newRefGraph()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	return g
}

func TestPageRankEmpty(t *testing.T) {
	r := pageRank(newRefGraph(), Options{})
	if len(r.Scores) != 0 || !r.Converged {
		t.Fatalf("empty graph result = %+v", r)
	}
}

func TestPageRankSingleNode(t *testing.T) {
	g := newRefGraph()
	g.AddNode("solo")
	r := pageRank(g, Options{})
	if math.Abs(r.Scores["solo"]-1) > 1e-9 {
		t.Fatalf("single node score = %v, want 1", r.Scores["solo"])
	}
}

func TestPageRankChainOrdering(t *testing.T) {
	r := pageRank(chain(), Options{})
	if !r.Converged {
		t.Fatal("chain must converge")
	}
	if !(r.Scores["c"] > r.Scores["b"] && r.Scores["b"] > r.Scores["a"]) {
		t.Fatalf("ordering wrong: %v", r.Scores)
	}
	if err := CheckStochastic(r.Scores, 1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankSymmetricCycle(t *testing.T) {
	g := newRefGraph()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "a")
	r := pageRank(g, Options{})
	for _, id := range []string{"a", "b", "c"} {
		if math.Abs(r.Scores[id]-1.0/3) > 1e-8 {
			t.Fatalf("cycle scores must be uniform: %v", r.Scores)
		}
	}
}

func TestPageRankStarAuthority(t *testing.T) {
	g := newRefGraph()
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		g.AddEdge(s, "hub")
	}
	r := pageRank(g, Options{})
	if r.Scores["hub"] <= r.Scores["s1"]*2 {
		t.Fatalf("hub must dominate spokes: %v", r.Scores)
	}
}

func TestPageRankDanglingMassConserved(t *testing.T) {
	// "b" is dangling; total mass must still sum to 1.
	g := newRefGraph()
	g.AddEdge("a", "b")
	g.AddNode("c")
	r := pageRank(g, Options{})
	if err := CheckStochastic(r.Scores, 1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankDampingExtremes(t *testing.T) {
	g := chain()
	// Tiny damping → nearly uniform.
	r := pageRank(g, Options{Damping: 0.01})
	for _, s := range r.Scores {
		if math.Abs(s-1.0/3) > 0.02 {
			t.Fatalf("low damping should be near-uniform: %v", r.Scores)
		}
	}
}

func TestPageRankMaxIterStops(t *testing.T) {
	g := chain()
	r := pageRank(g, Options{MaxIter: 1, Epsilon: 1e-300})
	if r.Converged || r.Iterations != 1 {
		t.Fatalf("MaxIter=1 must stop unconverged after 1 iter: %+v", r)
	}
}

func TestPageRankExplicitZeroDamping(t *testing.T) {
	// Damping = 0 means pure teleport: every node scores exactly 1/n no
	// matter the edges. The plain zero value must still mean 0.85.
	g := chain()
	r := pageRank(g, Options{Damping: ExplicitZero})
	for id, s := range r.Scores {
		if math.Abs(s-1.0/3) > 1e-12 {
			t.Fatalf("teleport-only score for %s = %v, want 1/3", id, s)
		}
	}
	def := pageRank(g, Options{})
	if math.Abs(def.Scores["c"]-1.0/3) < 1e-6 {
		t.Fatalf("default damping must not be teleport-only: %v", def.Scores)
	}
}

func TestPageRankExplicitZeroEpsilon(t *testing.T) {
	// Epsilon = 0 disables the convergence cutoff: all MaxIter sweeps run
	// and the result reports Converged = false.
	r := pageRank(chain(), Options{Epsilon: ExplicitZero, MaxIter: 7})
	if r.Converged || r.Iterations != 7 {
		t.Fatalf("epsilon=0 must run exactly MaxIter sweeps: %+v", r)
	}
}

// denseScores reindexes map-keyed scores into the dense WarmDense layout
// aligned to g's CSR node order.
func denseScores(g *refGraph, scores map[string]float64) []float64 {
	csr := g.CSR()
	dense := make([]float64, csr.NumNodes())
	for i, id := range csr.IDs {
		dense[i] = scores[id]
	}
	return dense
}

func TestPageRankWarmStartSameFixedPoint(t *testing.T) {
	g := newRefGraph()
	rng := rand.New(rand.NewSource(5))
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, id := range ids {
		g.AddNode(id)
	}
	for i := 0; i < 24; i++ {
		from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if from != to {
			g.AddEdge(from, to)
		}
	}
	cold := pageRank(g, Options{})
	warm := pageRank(g, Options{WarmDense: denseScores(g, cold.Scores)})
	if !warm.Converged {
		t.Fatal("warm start must converge")
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm start no faster: %d vs %d iterations", warm.Iterations, cold.Iterations)
	}
	for id, s := range cold.Scores {
		if math.Abs(warm.Scores[id]-s) > 1e-9 {
			t.Fatalf("warm fixed point differs for %s: %v vs %v", id, warm.Scores[id], s)
		}
	}
	if err := CheckStochastic(warm.Scores, 1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankWarmStartPartialVector(t *testing.T) {
	// Warm vectors from a smaller graph (short, with stale mass) must
	// still be renormalized into a valid start and reach the fixed point.
	g := chain()
	cold := pageRank(g, Options{})
	warm := pageRank(g, Options{WarmDense: []float64{0.9}})
	for id, s := range cold.Scores {
		if math.Abs(warm.Scores[id]-s) > 1e-8 {
			t.Fatalf("partial warm start diverged for %s: %v vs %v", id, warm.Scores[id], s)
		}
	}
}

func TestCheckStochastic(t *testing.T) {
	if err := CheckStochastic(map[string]float64{"a": 0.5, "b": 0.5}, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := CheckStochastic(map[string]float64{"a": 0.9}, 1e-9); err == nil {
		t.Fatal("sum != 1 must fail")
	}
	if err := CheckStochastic(map[string]float64{"a": -0.5, "b": 1.5}, 1e-9); err == nil {
		t.Fatal("negative score must fail")
	}
	if err := CheckStochastic(nil, 1e-9); err != nil {
		t.Fatal("empty scores must pass")
	}
}

func randomGraph(seed int64, n, e int) *refGraph {
	rng := rand.New(rand.NewSource(seed))
	g := newRefGraph()
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('A' + i%26)))
	}
	nodes := g.Nodes()
	for i := 0; i < e; i++ {
		a := nodes[rng.Intn(len(nodes))]
		b := nodes[rng.Intn(len(nodes))]
		if a != b {
			g.AddEdge(a, b)
		}
	}
	return g
}

// Property: PageRank is a probability distribution and deterministic for
// arbitrary random graphs.
func TestPageRankProperty(t *testing.T) {
	f := func(seed int64, n8, e8 uint8) bool {
		n := int(n8%20) + 1
		e := int(e8 % 60)
		g := randomGraph(seed, n, e)
		r1 := pageRank(g, Options{})
		r2 := pageRank(g, Options{})
		if err := CheckStochastic(r1.Scores, 1e-6); err != nil {
			return false
		}
		for k, v := range r1.Scores {
			if r2.Scores[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
