package blog

import (
	"fmt"
	"testing"
)

func linkedCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus()
	for i := 0; i < 6; i++ {
		if err := c.AddBlogger(&Blogger{ID: BloggerID(fmt.Sprintf("b%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"b0", "b1"}, {"b1", "b2"}, {"b2", "b0"}, {"b3", "b0"}, {"b4", "b1"}} {
		if err := c.AddLink(BloggerID(e[0]), BloggerID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestLinkCSRMatchesAdjacency(t *testing.T) {
	c := linkedCorpus(t)
	// Duplicate links must collapse in the view, matching the solver's
	// historical AddEdge dedup semantics.
	c.Links = append(c.Links, Link{From: "b0", To: "b1"})
	csr := c.Snapshot().LinkCSR()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	out := map[BloggerID]map[BloggerID]bool{} // distinct out-edges of Links
	for _, l := range c.Links {
		if out[l.From] == nil {
			out[l.From] = map[BloggerID]bool{}
		}
		out[l.From][l.To] = true
	}
	ids := c.BloggerIDs()
	if csr.NumNodes() != len(ids) {
		t.Fatalf("csr has %d nodes, corpus %d bloggers", csr.NumNodes(), len(ids))
	}
	for i, id := range ids {
		if csr.IDs[i] != string(id) {
			t.Fatalf("csr node %d = %q, want sorted blogger %q", i, csr.IDs[i], id)
		}
		if got, want := csr.OutDegree(i), len(out[id]); got != want {
			t.Fatalf("out-degree of %s = %d, want %d", id, got, want)
		}
	}
	if csr.NumEdges() != 5 {
		t.Fatalf("csr has %d edges, want 5 deduplicated", csr.NumEdges())
	}
}

// TestLinkCSRCachedPerGeneration: a generation builds its CSR once; a
// later generation builds its own, and the earlier one keeps serving the
// graph it was frozen with.
func TestLinkCSRCachedPerGeneration(t *testing.T) {
	c := linkedCorpus(t)
	g1 := c.Snapshot()
	v1 := g1.LinkCSR()
	if g1.LinkCSR() != v1 {
		t.Fatal("a generation must return its cached CSR")
	}
	if err := c.AddLink("b5", "b3"); err != nil {
		t.Fatal(err)
	}
	v2 := c.Snapshot().LinkCSR()
	if v2 == v1 {
		t.Fatal("a later generation must build its own CSR")
	}
	if bi, _ := v2.Index("b5"); v2.OutDegree(bi) != 1 {
		t.Fatal("the later generation's CSR is missing the new edge")
	}
	if g1.LinkCSR() != v1 {
		t.Fatal("the earlier generation must keep its CSR")
	}
	if bi, _ := v1.Index("b5"); v1.OutDegree(bi) != 0 {
		t.Fatal("the earlier generation's CSR gained an edge written after it")
	}
}
