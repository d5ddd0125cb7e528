package netstats

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mass/internal/blog"
	"mass/internal/graph"
	"mass/internal/synth"
)

// csrOf builds a CSR over the sorted union of nodes and the edges'
// endpoints.
func csrOf(nodes []string, edges ...[2]string) *graph.CSR {
	ids := append([]string(nil), nodes...)
	for _, e := range edges {
		ids = append(ids, e[0], e[1])
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var from, to []int32
	for _, e := range edges {
		f, _ := slices.BinarySearch(ids, e[0])
		t, _ := slices.BinarySearch(ids, e[1])
		from, to = append(from, int32(f)), append(to, int32(t))
	}
	return graph.NewCSR(ids, from, to)
}

func TestAnalyzeEmpty(t *testing.T) {
	r := Analyze(graph.NewCSR(nil, nil, nil))
	if r.Nodes != 0 || r.Edges != 0 || r.Components != 0 {
		t.Fatalf("empty report = %+v", r)
	}
}

func TestAnalyzeTriangle(t *testing.T) {
	r := Analyze(csrOf(nil, [2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "a"}))
	if r.Nodes != 3 || r.Edges != 3 || r.Components != 1 || r.Largest != 3 {
		t.Fatalf("triangle report = %+v", r)
	}
	// Directed cycle: no reverse edges.
	if r.Reciprocity != 0 {
		t.Fatalf("cycle reciprocity = %v", r.Reciprocity)
	}
	// Undirected projection is a full triangle: clustering 1.
	if math.Abs(r.Clustering-1) > 1e-12 {
		t.Fatalf("triangle clustering = %v", r.Clustering)
	}
	if r.MeanInDegree != 1 || r.MaxInDegree != 1 {
		t.Fatalf("degrees = %+v", r)
	}
}

func TestReciprocity(t *testing.T) {
	r := Analyze(csrOf(nil, [2]string{"a", "b"}, [2]string{"b", "a"}, [2]string{"a", "c"}))
	if math.Abs(r.Reciprocity-2.0/3) > 1e-12 {
		t.Fatalf("reciprocity = %v, want 2/3", r.Reciprocity)
	}
}

func TestComponents(t *testing.T) {
	r := Analyze(csrOf([]string{"lonely"}, [2]string{"a", "b"}, [2]string{"x", "y"}))
	if r.Components != 3 || r.Largest != 2 {
		t.Fatalf("components = %+v", r)
	}
}

func TestPowerLawAlpha(t *testing.T) {
	// All degrees equal dmin → sum of logs 0 → alpha 0 (undefined).
	if a := powerLawAlpha([]int{1, 1, 1}, 1); a != 0 {
		t.Fatalf("degenerate alpha = %v", a)
	}
	if a := powerLawAlpha(nil, 1); a != 0 {
		t.Fatalf("empty alpha = %v", a)
	}
	// A genuine heavy tail gives alpha in a plausible range.
	degrees := []int{1, 1, 1, 1, 2, 2, 3, 4, 8, 16}
	a := powerLawAlpha(degrees, 1)
	if a <= 1 || a > 5 {
		t.Fatalf("alpha = %v, want in (1, 5]", a)
	}
}

func TestGraphBuilders(t *testing.T) {
	c := blog.Figure1Corpus()
	lg := c.Snapshot().LinkCSR()
	if lg.NumNodes() != 9 || lg.NumEdges() != 8 {
		t.Fatalf("link graph: %d nodes %d edges", lg.NumNodes(), lg.NumEdges())
	}
	cg := CommentGraph(c.Snapshot())
	// Comment edges: Bob→Amery, Cary→Amery, Jane→Helen, Eddie→Helen,
	// Leo→Michael, Dolly→Michael (Cary's two comments collapse to one edge).
	if cg.NumEdges() != 6 {
		t.Fatalf("comment graph edges = %d, want 6", cg.NumEdges())
	}
}

func TestSyntheticIsHeavyTailed(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 99, Bloggers: 200, Posts: 1200})
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(corpus.Snapshot().LinkCSR())
	if r.Nodes != 200 {
		t.Fatalf("nodes = %d", r.Nodes)
	}
	// Preferential attachment: the max in-degree should dwarf the mean.
	if float64(r.MaxInDegree) < 4*r.MeanInDegree {
		t.Fatalf("link graph not heavy-tailed: max=%d mean=%.2f", r.MaxInDegree, r.MeanInDegree)
	}
	if r.PowerLawAlpha <= 1 {
		t.Fatalf("alpha = %v, want > 1", r.PowerLawAlpha)
	}
	if !strings.Contains(r.String(), "alpha=") {
		t.Fatalf("String() = %q", r.String())
	}
}
