package blog

import (
	"fmt"
	"testing"
)

// linkCorpus builds a corpus with n bloggers "b00".."b<n-1>" and the given
// links.
func linkCorpus(t testing.TB, n int, links [][2]int) *Corpus {
	t.Helper()
	c := NewCorpus()
	for i := 0; i < n; i++ {
		if err := c.AddBlogger(&Blogger{ID: bid(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range links {
		if err := c.AddLink(bid(l[0]), bid(l[1])); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func bid(i int) BloggerID { return BloggerID(fmt.Sprintf("b%02d", i)) }

// assertViewMatchesFresh checks a view's flat CSR against a from-scratch
// rebuild of the same generation (no prev view, so always the full-build
// path), edge for edge.
func assertViewMatchesFresh(t *testing.T, g *Frozen, v *LinkView) {
	t.Helper()
	fresh := g.buildLinkView(nil) // bypass the cache: guaranteed fresh base
	got, want := v.CSR(), fresh.CSR()
	if err := got.Validate(); err != nil {
		t.Fatalf("view CSR invalid: %v", err)
	}
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("view CSR %d nodes/%d edges, fresh build %d/%d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for i := 0; i < got.NumNodes(); i++ {
		g, w := got.Out(i), want.Out(i)
		if len(g) != len(w) {
			t.Fatalf("row %d: %v vs fresh %v", i, g, w)
		}
		for k := range g {
			if g[k] != w[k] {
				t.Fatalf("row %d: %v vs fresh %v", i, g, w)
			}
		}
	}
}

func TestLinkViewCachedPerEpoch(t *testing.T) {
	c := linkCorpus(t, 4, [][2]int{{0, 1}, {1, 2}})
	g := c.Snapshot()
	v1 := g.LinkViewFrom(nil)
	if v2 := g.LinkViewFrom(nil); v2 != v1 {
		t.Fatal("a generation must return its cached view")
	}
	if g.LinkCSR() != v1.CSR() {
		t.Fatal("LinkCSR must serve the cached view's flat CSR")
	}
	if err := c.AddLink(bid(2), bid(3)); err != nil {
		t.Fatal(err)
	}
	if v3 := c.Snapshot().LinkViewFrom(v1); v3 == v1 {
		t.Fatal("a new effective link must build a new view")
	}
}

func TestLinkViewExtendsInPlace(t *testing.T) {
	c := linkCorpus(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	v1 := c.Snapshot().LinkViewFrom(nil)
	base := v1.Delta().Base()

	if err := c.AddLink(bid(3), bid(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(bid(4), bid(1)); err != nil {
		t.Fatal(err)
	}
	g2 := c.Snapshot()
	v2 := g2.LinkViewFrom(v1)
	if v2.Delta().Base() != base {
		t.Fatal("extension must keep the frozen base CSR — O(delta), not a rebuild")
	}
	if got := v2.Delta().OverlaySize(); got != 2 {
		t.Fatalf("overlay size = %d, want 2 appended edges", got)
	}
	if v1.Delta().OverlaySize() != 0 {
		t.Fatal("extending must not mutate the previous view's overlay")
	}
	assertViewMatchesFresh(t, g2, v2)

	// A second extension stacks on the same base.
	if err := c.AddLink(bid(5), bid(2)); err != nil {
		t.Fatal(err)
	}
	g3 := c.Snapshot()
	v3 := g3.LinkViewFrom(v2)
	if v3.Delta().Base() != base || v3.Delta().OverlaySize() != 3 {
		t.Fatalf("stacked extension: base kept=%v overlay=%d", v3.Delta().Base() == base, v3.Delta().OverlaySize())
	}
	assertViewMatchesFresh(t, g3, v3)
}

func TestLinkViewWithoutPrevBuildsFreshBase(t *testing.T) {
	c := linkCorpus(t, 4, [][2]int{{0, 1}})
	v1 := c.Snapshot().LinkViewFrom(nil)
	if err := c.AddLink(bid(1), bid(2)); err != nil {
		t.Fatal(err)
	}
	g2 := c.Snapshot()
	v2 := g2.LinkViewFrom(nil) // nil prev: full invalidation path
	if v2.Delta().Base() == v1.Delta().Base() {
		t.Fatal("no prev view supplied: must freeze a fresh base")
	}
	if v2.Delta().OverlaySize() != 0 {
		t.Fatal("fresh base must start with an empty overlay")
	}
	assertViewMatchesFresh(t, g2, v2)
}

func TestLinkViewFreshBaseOnNodeChange(t *testing.T) {
	c := linkCorpus(t, 3, [][2]int{{0, 1}, {1, 2}})
	v1 := c.Snapshot().LinkViewFrom(nil)
	if err := c.AddBlogger(&Blogger{ID: bid(9)}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(bid(9), bid(0)); err != nil {
		t.Fatal(err)
	}
	g2 := c.Snapshot()
	v2 := g2.LinkViewFrom(v1)
	if v2.Delta().Base() == v1.Delta().Base() {
		t.Fatal("a blogger-set change must force a fresh base (node count moved)")
	}
	if v2.Delta().NumNodes() != 4 {
		t.Fatalf("new base has %d nodes, want 4", v2.Delta().NumNodes())
	}
	assertViewMatchesFresh(t, g2, v2)
}

func TestLinkViewReindexForcesFreshBase(t *testing.T) {
	c := linkCorpus(t, 3, [][2]int{{0, 1}})
	v1 := c.Snapshot().LinkViewFrom(nil)
	// Simulate a bulk edit: a non-append rewrite of Links, then Reindex.
	c.Links = []Link{{From: bid(1), To: bid(2)}}
	c.Reindex()
	g2 := c.Snapshot()
	v2 := g2.LinkViewFrom(v1)
	if v2.Delta().Base() == v1.Delta().Base() {
		t.Fatal("Reindex must force a fresh base — Links is no longer a prefix extension")
	}
	assertViewMatchesFresh(t, g2, v2)
	flat := v2.CSR()
	i1, _ := flat.Index(string(bid(1)))
	if row := flat.Out(int(i1)); len(row) != 1 {
		t.Fatalf("rewritten graph must have exactly the new edge: row=%v", row)
	}
}

// TestLinkViewCompaction drives the overlay past linkCompactThreshold (the
// 64 lower clamp on a tiny base) and checks it is merged into a fresh base
// whose edges match a from-scratch rebuild.
func TestLinkViewCompaction(t *testing.T) {
	n := 12 // 12·11 = 132 possible edges > 64 threshold
	c := linkCorpus(t, n, nil)
	g := c.Snapshot()
	v := g.LinkViewFrom(nil)
	firstBase := v.Delta().Base()
	threshold := linkCompactThreshold(firstBase.NumEdges())
	if threshold != 64 {
		t.Fatalf("tiny base threshold = %d, want the 64 clamp", threshold)
	}
	compacted := false
	added := 0
	for i := 0; i < n && !compacted; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := c.AddLink(bid(i), bid(j)); err != nil {
				t.Fatal(err)
			}
			added++
			prev := v
			g = c.Snapshot()
			v = g.LinkViewFrom(v)
			if sz := v.Delta().OverlaySize(); sz > threshold {
				t.Fatalf("overlay size %d exceeds compaction threshold %d", sz, threshold)
			}
			if v.Delta().Base() != prev.Delta().Base() {
				compacted = true
				if v.Delta().OverlaySize() != 0 {
					t.Fatalf("freshly compacted view has overlay %d, want 0", v.Delta().OverlaySize())
				}
				break
			}
		}
	}
	if !compacted {
		t.Fatalf("overlay never compacted after %d appends (threshold %d)", added, threshold)
	}
	assertViewMatchesFresh(t, g, v)
	if v.CSR().NumEdges() != added {
		t.Fatalf("compacted view has %d edges, want %d", v.CSR().NumEdges(), added)
	}
}

// TestLinkViewSnapshotShares: a later generation's view extends the
// earlier generation's and shares its frozen base CSR, while the earlier
// generation keeps its own view of the graph it was frozen with.
func TestLinkViewSnapshotShares(t *testing.T) {
	c := linkCorpus(t, 3, [][2]int{{0, 1}})
	s1 := c.Snapshot()
	v := s1.LinkViewFrom(nil)
	if err := c.AddLink(bid(1), bid(2)); err != nil {
		t.Fatal(err)
	}
	s2 := c.Snapshot()
	v2 := s2.LinkViewFrom(v)
	if v2 == v || v2.Delta().Base() != v.Delta().Base() {
		t.Fatal("the later generation must extend the earlier view over its shared base")
	}
	if s1.LinkViewFrom(nil) != v {
		t.Fatal("mutating the corpus must not replace the earlier generation's view")
	}
	if got := s1.LinkCSR().NumEdges(); got != 1 {
		t.Fatalf("earlier generation's graph has %d edges, want the frozen 1", got)
	}
	if got := s2.LinkCSR().NumEdges(); got != 2 {
		t.Fatalf("later generation's graph has %d edges, want 2", got)
	}
}

// ---------------------------------------------------------------------------
// Link-epoch stability: exactly the mutations that can change the link
// graph bump the epoch; everything else must leave cached views valid.

func TestLinkEpochStability(t *testing.T) {
	c := linkCorpus(t, 3, [][2]int{{0, 1}})
	post := &Post{ID: "p1", Author: bid(0), Body: "hello"}

	epochAfter := func(name string, wantBump bool, mutate func() error) {
		t.Helper()
		before, beforeLineage := c.linkEpoch, c.journal.Lineage
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bumped := c.linkEpoch != before
		if bumped != wantBump {
			t.Fatalf("%s: epoch bump = %v, want %v", name, bumped, wantBump)
		}
		if c.journal.Lineage != beforeLineage {
			t.Fatalf("%s: must never start a new lineage", name)
		}
	}

	// Mutations that cannot change the link graph: no bump.
	epochAfter("AddPost", false, func() error { return c.AddPost(post) })
	epochAfter("AddComment", false, func() error {
		return c.AddComment("p1", Comment{Commenter: bid(1), Text: "nice"})
	})
	epochAfter("UpsertBlogger enrich", false, func() error {
		return c.UpsertBlogger(&Blogger{ID: bid(0), Name: "Zero"})
	})
	epochAfter("AddLink duplicate", false, func() error { return c.AddLink(bid(0), bid(1)) })
	epochAfter("AddLinkDedup duplicate", false, func() error {
		added, err := c.AddLinkDedup(bid(0), bid(1))
		if added {
			t.Fatal("AddLinkDedup reported a duplicate as added")
		}
		return err
	})

	// Mutations that do change the graph: exactly one bump each.
	epochAfter("AddLink new edge", true, func() error { return c.AddLink(bid(1), bid(2)) })
	epochAfter("AddLinkDedup new edge", true, func() error {
		added, err := c.AddLinkDedup(bid(2), bid(0))
		if err == nil && !added {
			t.Fatal("AddLinkDedup dropped a new edge")
		}
		return err
	})
	epochAfter("AddBlogger", true, func() error { return c.AddBlogger(&Blogger{ID: bid(7)}) })
	epochAfter("UpsertBlogger insert", true, func() error {
		return c.UpsertBlogger(&Blogger{ID: bid(8)})
	})

	// Reindex bumps the epoch and starts a new lineage: Links may no longer be append-only.
	before, beforeLineage := c.linkEpoch, c.journal.Lineage
	c.Reindex()
	if c.linkEpoch == before || c.journal.Lineage == beforeLineage {
		t.Fatalf("Reindex must advance the epoch and the lineage: epoch %d→%d lineage %d→%d",
			before, c.linkEpoch, beforeLineage, c.journal.Lineage)
	}

	// The duplicate-AddLink record is still kept for crawl fidelity even
	// though the epoch did not move.
	dups := 0
	for _, l := range c.Links {
		if l.From == bid(0) && l.To == bid(1) {
			dups++
		}
	}
	if dups != 2 {
		t.Fatalf("duplicate AddLink must still append the Link record: found %d", dups)
	}
}
