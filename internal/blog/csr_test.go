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
	csr := c.LinkCSR()
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

func TestLinkCSRCachedPerEpochAndSharedWithSnapshots(t *testing.T) {
	c := linkedCorpus(t)
	v1 := c.LinkCSR()
	if c.LinkCSR() != v1 {
		t.Fatal("unchanged epoch must return the cached CSR")
	}
	snap := c.Snapshot()
	if snap.LinkCSR() != v1 {
		t.Fatal("a snapshot at the same epoch must share the built CSR")
	}
	// A link mutation bumps the epoch: the live corpus rebuilds, the old
	// snapshot keeps serving the view it was frozen with.
	if err := c.AddLink("b5", "b3"); err != nil {
		t.Fatal(err)
	}
	v2 := c.LinkCSR()
	if v2 == v1 {
		t.Fatal("link-epoch bump must invalidate the cached CSR")
	}
	bi, _ := v2.Index("b5")
	if v2.OutDegree(bi) != 1 {
		t.Fatal("rebuilt CSR is missing the new edge")
	}
	if snap.LinkCSR() != v1 {
		t.Fatal("frozen snapshot must keep its epoch's CSR")
	}
	// A post does not touch the link graph; the view survives.
	if err := c.AddPost(&Post{ID: "p1", Author: "b0", Body: "hello"}); err != nil {
		t.Fatal(err)
	}
	if c.LinkCSR() != v2 {
		t.Fatal("post mutation must not invalidate the link CSR")
	}
	// Reindex advances the epoch by contract.
	c.Reindex()
	if c.LinkCSR() == v2 {
		t.Fatal("Reindex must invalidate the link CSR")
	}
}
