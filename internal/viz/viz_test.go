package viz

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mass/internal/blog"
)

func network(t *testing.T) *Network {
	t.Helper()
	c := blog.Figure1Corpus()
	scores := map[blog.BloggerID]float64{"Amery": 0.9, "Helen": 0.4, "Bob": 0.1}
	n, err := Build(c.Snapshot(), "Amery", 2, scores)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuildNetworkShape(t *testing.T) {
	n := network(t)
	if n.Center != "Amery" {
		t.Fatalf("center = %s", n.Center)
	}
	if len(n.Nodes) != 9 {
		t.Fatalf("radius-2 network of Amery has 9 nodes, got %d", len(n.Nodes))
	}
	// Cary commented twice on Amery's posts → edge count 2.
	found := false
	for _, e := range n.Edges {
		if e.Commenter == "Cary" && e.Author == "Amery" {
			found = true
			if e.Count != 2 {
				t.Fatalf("Cary→Amery count = %d, want 2", e.Count)
			}
		}
	}
	if !found {
		t.Fatal("Cary→Amery edge missing")
	}
	// Determinism: edges sorted by (commenter, author).
	for i := 1; i < len(n.Edges); i++ {
		a, b := n.Edges[i-1], n.Edges[i]
		if a.Commenter > b.Commenter || (a.Commenter == b.Commenter && a.Author >= b.Author) {
			t.Fatalf("edges not sorted at %d: %+v %+v", i, a, b)
		}
	}
	// Node properties (pop-up details).
	for _, node := range n.Nodes {
		if node.ID == "Amery" {
			if node.Posts != 2 || node.Inf != 0.9 {
				t.Fatalf("Amery node = %+v", node)
			}
		}
	}
}

func TestBuildUnknownCenter(t *testing.T) {
	if _, err := Build(blog.Figure1Corpus().Snapshot(), "Nobody", 1, nil); err == nil {
		t.Fatal("unknown center must error")
	}
}

func TestBuildRadiusRestricts(t *testing.T) {
	c := blog.Figure1Corpus()
	n, err := Build(c.Snapshot(), "Helen", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range n.Nodes {
		if node.ID == "Leo" {
			t.Fatal("Leo is outside Helen's radius-1 network")
		}
	}
	for _, e := range n.Edges {
		ok := false
		for _, node := range n.Nodes {
			if node.ID == e.Commenter || node.ID == e.Author {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("edge %v has no endpoint in node set", e)
		}
	}
}

func TestLayoutDeterministicAndBounded(t *testing.T) {
	n1, n2 := network(t), network(t)
	n1.Layout(7, 100)
	n2.Layout(7, 100)
	for i := range n1.Nodes {
		if n1.Nodes[i].X != n2.Nodes[i].X || n1.Nodes[i].Y != n2.Nodes[i].Y {
			t.Fatal("layout must be deterministic for equal seeds")
		}
		if n1.Nodes[i].X < 0 || n1.Nodes[i].X > 1 || n1.Nodes[i].Y < 0 || n1.Nodes[i].Y > 1 {
			t.Fatalf("coordinates out of [0,1]: %+v", n1.Nodes[i])
		}
	}
	// Different seed should give a different layout.
	n3 := network(t)
	n3.Layout(8, 100)
	same := true
	for i := range n1.Nodes {
		if n1.Nodes[i].X != n3.Nodes[i].X {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different layouts")
	}
}

func TestLayoutSpreadsNodes(t *testing.T) {
	n := network(t)
	n.Layout(1, 150)
	// No two nodes may end up in exactly the same spot.
	seen := map[[2]float64]bool{}
	for _, node := range n.Nodes {
		k := [2]float64{node.X, node.Y}
		if seen[k] {
			t.Fatalf("two nodes at identical position %v", k)
		}
		seen[k] = true
	}
}

func TestLayoutEmptyAndSingle(t *testing.T) {
	(&Network{}).Layout(1, 10) // must not panic
	n := &Network{Nodes: []Node{{ID: "solo"}}}
	n.Layout(1, 10)
	if n.Nodes[0].X != 0.5 || n.Nodes[0].Y != 0.5 {
		t.Fatalf("single node must center at (0.5, 0.5), got %+v", n.Nodes[0])
	}
}

func TestXMLRoundTrip(t *testing.T) {
	n := network(t)
	n.Layout(3, 50)
	var buf bytes.Buffer
	if err := n.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Center != n.Center || len(got.Nodes) != len(n.Nodes) || len(got.Edges) != len(n.Edges) {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	for i := range n.Nodes {
		if got.Nodes[i] != n.Nodes[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, got.Nodes[i], n.Nodes[i])
		}
	}
}

func TestXMLFileRoundTrip(t *testing.T) {
	n := network(t)
	path := filepath.Join(t.TempDir(), "net.xml")
	if err := n.SaveXML(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadXML(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(n.Nodes) {
		t.Fatal("file round trip lost nodes")
	}
	if _, err := LoadXML(filepath.Join(t.TempDir(), "missing.xml")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestReadXMLGarbage(t *testing.T) {
	if _, err := ReadXML(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage must error")
	}
}

func TestWriteSVG(t *testing.T) {
	n := network(t)
	n.Layout(2, 80)
	var buf bytes.Buffer
	if err := n.WriteSVG(&buf, 800, 600); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	// Every node name appears, the center is highlighted, and the
	// Cary→Amery edge label "2" is present.
	for _, node := range n.Nodes {
		if !strings.Contains(svg, ">"+string(node.ID)+"<") {
			t.Fatalf("node %s missing from SVG", node.ID)
		}
	}
	if !strings.Contains(svg, "#d94a4a") {
		t.Fatal("center highlight missing")
	}
	if !strings.Contains(svg, ">2</text>") {
		t.Fatal("comment-count edge label missing")
	}
	if err := n.WriteSVG(&buf, 0, 100); err == nil {
		t.Fatal("zero width must error")
	}
}

func TestWriteDOT(t *testing.T) {
	n := network(t)
	var buf bytes.Buffer
	if err := n.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	if !strings.HasPrefix(dot, "digraph") {
		t.Fatal("not a DOT document")
	}
	if !strings.Contains(dot, `"Cary" -> "Amery" [label="2"]`) {
		t.Fatalf("edge with count missing:\n%s", dot)
	}
	if !strings.Contains(dot, "doublecircle") {
		t.Fatal("center shape missing")
	}
}
