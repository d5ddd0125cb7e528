package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/linkrank"
)

// linkCorpus builds a deterministic pure-graph corpus: nodes b000..b<n>,
// edges drawn from a seeded generator, self-loops skipped, duplicates left
// in (both pipelines dedup identically).
func linkCorpus(t testing.TB, nodes, edges int, seed int64) *blog.Corpus {
	t.Helper()
	c := blog.NewCorpus()
	for i := 0; i < nodes; i++ {
		if err := c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(fmt.Sprintf("b%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for len(c.Links) < edges {
		f, to := rng.Intn(nodes), rng.Intn(nodes)
		if f == to {
			continue
		}
		c.Links = append(c.Links, blog.Link{
			From: blog.BloggerID(fmt.Sprintf("b%03d", f)),
			To:   blog.BloggerID(fmt.Sprintf("b%03d", to)),
		})
	}
	return c
}

// quietEngine disables the background flush cadence so tests control
// generations explicitly.
func quietEngine() core.EngineOptions {
	return core.EngineOptions{FlushEvery: 1 << 30, FlushInterval: 1 << 40}
}

func maxAbsDiff(t *testing.T, ids []string, got []float64, wantIDs []string, want []float64) float64 {
	t.Helper()
	if len(ids) != len(wantIDs) {
		t.Fatalf("node sets differ: %d vs %d", len(ids), len(wantIDs))
	}
	var worst float64
	for i := range ids {
		if ids[i] != wantIDs[i] {
			t.Fatalf("node order diverges at %d: %q vs %q", i, ids[i], wantIDs[i])
		}
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestGlobalPageRankMatchesSingle is the tentpole exactness property:
// per-shard solves + boundary residual pushes must land within 1e-12 of
// the single-engine dense solve over the same graph, across shard counts
// and graph densities.
func TestGlobalPageRankMatchesSingle(t *testing.T) {
	opts := linkrank.Options{Epsilon: 1e-15, MaxIter: 500}
	for _, tc := range []struct{ nodes, edges, shards int }{
		{60, 240, 2},
		{200, 1200, 4},
		{200, 1200, 8},
		{150, 300, 3}, // sparse: many dangling nodes
	} {
		t.Run(fmt.Sprintf("n%d_e%d_s%d", tc.nodes, tc.edges, tc.shards), func(t *testing.T) {
			c := linkCorpus(t, tc.nodes, tc.edges, int64(tc.nodes*tc.shards))
			ref := linkrank.PageRankCSR(c.Snapshot().LinkCSR(), opts)

			cl, err := New(c, Options{Shards: tc.shards, Engine: quietEngine()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			po := opts
			po.FallbackMass = 1e18 // force the push path
			gr, err := cl.GlobalPageRank(po)
			if err != nil {
				t.Fatal(err)
			}
			if gr.Fallback {
				t.Fatalf("push path fell back (residual %.3g)", gr.Residual)
			}
			worst := maxAbsDiff(t, gr.IDs, gr.Scores, ref.CSR.IDs, ref.Scores)
			if worst > 1e-12 {
				t.Fatalf("max |diff| %.3g > 1e-12 (pushed %d, residual %.3g)", worst, gr.Pushed, gr.Residual)
			}
			t.Logf("shards=%d boundary=%d pushed=%d residual=%.3g maxdiff=%.3g",
				tc.shards, gr.BoundaryEdges, gr.Pushed, gr.Residual, worst)
		})
	}
}

// TestGlobalPageRankDefaultBoundNoFallback: on a blog-shaped Zipf link
// graph (3,000 bloggers, 30,000 draws with Zipf-distributed targets), the
// default merge bound (globalFallbackMass) lets the boundary residual
// correction produce the global ranking at 2, 4 and 8 shards: no merged
// dense solve, no MergeFallbacks, and scores within 1e-12 of the single
// engine's dense solve. Only the solver tolerance is tightened, as in
// TestGlobalPageRankMatchesSingle; FallbackMass stays at its default.
func TestGlobalPageRankDefaultBoundNoFallback(t *testing.T) {
	const nodes, draws = 3000, 30_000
	c := blog.NewCorpus()
	ids := make([]blog.BloggerID, nodes)
	for i := range ids {
		ids[i] = blog.BloggerID(fmt.Sprintf("b%04d", i))
		if err := c.AddBlogger(&blog.Blogger{ID: ids[i]}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2010))
	zipf := rand.NewZipf(rng, 1.3, 8, nodes-1)
	for k := 0; k < draws; k++ {
		f, to := rng.Intn(nodes), int(zipf.Uint64())
		if f == to {
			continue
		}
		if _, err := c.AddLinkDedup(ids[f], ids[to]); err != nil {
			t.Fatal(err)
		}
	}
	opts := linkrank.Options{Epsilon: 1e-15, MaxIter: 500}
	ref := linkrank.PageRankCSR(c.Snapshot().LinkCSR(), opts)
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cl, err := New(c, Options{Shards: shards, Engine: quietEngine()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			gr, err := cl.GlobalPageRank(opts)
			if err != nil {
				t.Fatal(err)
			}
			if gr.Fallback || cl.FullStatus().MergeFallbacks != 0 {
				t.Fatalf("global PageRank fell back to a merged solve (boundary=%d residual=%.3g)", gr.BoundaryEdges, gr.Residual)
			}
			worst := maxAbsDiff(t, gr.IDs, gr.Scores, ref.CSR.IDs, ref.Scores)
			if worst > 1e-12 {
				t.Fatalf("max |diff| %.3g > 1e-12 (pushed %d, residual %.3g)", worst, gr.Pushed, gr.Residual)
			}
			t.Logf("boundary=%d pushed=%d residual=%.3g maxdiff=%.3g", gr.BoundaryEdges, gr.Pushed, gr.Residual, worst)
		})
	}
}

// TestGlobalPageRankFallback: an impossible mass bound must divert to the
// merged dense solve — still within tolerance — and count the fallback.
func TestGlobalPageRankFallback(t *testing.T) {
	c := linkCorpus(t, 120, 600, 7)
	opts := linkrank.Options{Epsilon: 1e-15, MaxIter: 500}
	ref := linkrank.PageRankCSR(c.Snapshot().LinkCSR(), opts)
	cl, err := New(c, Options{Shards: 4, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gr, err := cl.GlobalPageRank(linkrank.Options{Epsilon: 1e-15, MaxIter: 500, FallbackMass: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Fallback {
		t.Fatal("expected the dense fallback path")
	}
	if got := cl.FullStatus().MergeFallbacks; got != 1 {
		t.Fatalf("mergeFallbacks = %d, want 1", got)
	}
	worst := maxAbsDiff(t, gr.IDs, gr.Scores, ref.CSR.IDs, ref.Scores)
	if worst > 1e-12 {
		t.Fatalf("fallback max |diff| %.3g > 1e-12", worst)
	}
}

// TestGlobalPageRankAfterIngest drives the same link stream through a
// 1-shard and a 5-shard cluster via AddBatch — exercising boundary
// routing, stub admission and the boundary WAL-less in-memory path — and
// requires the global solves to agree.
func TestGlobalPageRankAfterIngest(t *testing.T) {
	const nodes = 80
	mk := func(shards int) *Cluster {
		cl, err := New(nil, Options{Shards: shards, Engine: quietEngine()})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	one, five := mk(1), mk(5)
	defer one.Close()
	defer five.Close()
	rng := rand.New(rand.NewSource(42))
	var links []blog.Link
	for i := 0; i < 400; i++ {
		f, to := rng.Intn(nodes), rng.Intn(nodes)
		if f == to {
			continue
		}
		links = append(links, blog.Link{
			From: blog.BloggerID(fmt.Sprintf("b%03d", f)),
			To:   blog.BloggerID(fmt.Sprintf("b%03d", to)),
		})
	}
	for _, cl := range []*Cluster{one, five} {
		for i := 0; i < len(links); i += 32 {
			end := min(i+32, len(links))
			if err := cl.AddBatch(core.Batch{Links: links[i:end]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, cl := range []*Cluster{one, five} {
		if err := cl.Refresh(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	opts := linkrank.Options{Epsilon: 1e-15, MaxIter: 500, FallbackMass: 1e18}
	g1, err := one.GlobalPageRank(opts)
	if err != nil {
		t.Fatal(err)
	}
	g5, err := five.GlobalPageRank(opts)
	if err != nil {
		t.Fatal(err)
	}
	worst := maxAbsDiff(t, g5.IDs, g5.Scores, g1.IDs, g1.Scores)
	if worst > 1e-12 {
		t.Fatalf("ingest-path max |diff| %.3g > 1e-12", worst)
	}
	if g5.BoundaryEdges == 0 {
		t.Fatal("expected cross-shard edges at 5 shards")
	}
}
