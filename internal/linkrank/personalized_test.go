package linkrank

import (
	"math"
	"testing"
)

func TestPersonalizedFallsBackToUniform(t *testing.T) {
	g := chain()
	plain := pageRank(g, Options{})
	pers := personalizedPageRank(g, nil, Options{})
	for id, s := range plain.Scores {
		if math.Abs(pers.Scores[id]-s) > 1e-9 {
			t.Fatalf("no-preference PPR must equal PageRank at %s: %v vs %v",
				id, pers.Scores[id], s)
		}
	}
}

func TestPersonalizedBiasesTowardPreference(t *testing.T) {
	// Two symmetric communities joined weakly; teleporting into one must
	// boost it.
	g := newRefGraph()
	g.AddEdge("a1", "a2")
	g.AddEdge("a2", "a1")
	g.AddEdge("b1", "b2")
	g.AddEdge("b2", "b1")
	g.AddEdge("a1", "b1")
	g.AddEdge("b1", "a1")
	uniform := pageRank(g, Options{})
	pers := personalizedPageRank(g, map[string]float64{"a1": 1, "a2": 1}, Options{})
	if pers.Scores["a2"] <= uniform.Scores["a2"] {
		t.Fatalf("preferred community must gain: %v vs %v",
			pers.Scores["a2"], uniform.Scores["a2"])
	}
	if pers.Scores["b2"] >= uniform.Scores["b2"] {
		t.Fatalf("non-preferred community must lose: %v vs %v",
			pers.Scores["b2"], uniform.Scores["b2"])
	}
	if err := CheckStochastic(pers.Scores, 1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestPersonalizedIgnoresUnknownAndNegative(t *testing.T) {
	g := chain()
	pers := personalizedPageRank(g, map[string]float64{
		"ghost": 5, "a": -3, "b": 1,
	}, Options{})
	if err := CheckStochastic(pers.Scores, 1e-8); err != nil {
		t.Fatal(err)
	}
	// All teleport mass is on b; b and its descendant c dominate a.
	if pers.Scores["a"] >= pers.Scores["b"] {
		t.Fatalf("a must not beat teleport target b: %v", pers.Scores)
	}
}

func TestPersonalizedEmptyGraph(t *testing.T) {
	r := personalizedPageRank(newRefGraph(), map[string]float64{"x": 1}, Options{})
	if len(r.Scores) != 0 || !r.Converged {
		t.Fatalf("empty graph: %+v", r)
	}
}

func TestPersonalizedDanglingMass(t *testing.T) {
	g := newRefGraph()
	g.AddEdge("src", "sink") // sink dangles
	r := personalizedPageRank(g, map[string]float64{"src": 1}, Options{})
	if err := CheckStochastic(r.Scores, 1e-8); err != nil {
		t.Fatal(err)
	}
}
