package influence

import (
	"fmt"
	"math"
	"testing"

	"mass/internal/blog"
	"mass/internal/linkrank"
	"mass/internal/synth"
)

// deltaConfig is tightConfig with a generous delta-fallback bound, so a
// link-only flush deterministically takes the incremental push path instead
// of depending on how much residual mass the particular batch seeds.
func deltaConfig() Config {
	cfg := tightConfig()
	cfg.PageRank.FallbackMass = 0.5
	return cfg
}

// assertScoresMatch compares every score surface of two results.
func assertScoresMatch(t *testing.T, label string, got, want *Result, tol float64) {
	t.Helper()
	for b, s := range want.BloggerScores {
		if d := math.Abs(got.BloggerScores[b] - s); !(d <= tol) {
			t.Fatalf("%s: blogger %s: delta %v vs cold %v (|Δ|=%g)", label, b, got.BloggerScores[b], s, d)
		}
	}
	for b, s := range want.GL {
		if d := math.Abs(got.GL[b] - s); !(d <= tol) {
			t.Fatalf("%s: GL %s: delta %v vs cold %v (|Δ|=%g)", label, b, got.GL[b], s, d)
		}
	}
	for p, s := range postScores(want) {
		if d := math.Abs(got.PostScore(p) - s); !(d <= tol) {
			t.Fatalf("%s: post %s: delta %v vs cold %v (|Δ|=%g)", label, p, got.PostScore(p), s, d)
		}
	}
}

// TestDeltaPathMatchesCold is the end-to-end incremental-PageRank
// acceptance test at the analyzer level: across several link-only flushes,
// the cached analysis must take the delta push path (PageRankDelta) and
// still agree with a from-scratch Analyze of the same corpus.
func TestDeltaPathMatchesCold(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 17, Bloggers: 50, Posts: 220})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, deltaConfig(), trainDomainClassifier(t))
	cache := NewCache()
	if _, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache); err != nil {
		t.Fatal(err)
	}
	bloggers := corpus.BloggerIDs()

	for round := 0; round < 4; round++ {
		// Link-only delta: a few fresh edges between existing bloggers.
		added := 0
		for i := 0; added < 3 && i < 40; i++ {
			from := bloggers[(round*11+i*7)%len(bloggers)]
			to := bloggers[(round*5+i*13+1)%len(bloggers)]
			if from == to {
				continue
			}
			ok, err := corpus.AddLinkDedup(from, to)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				added++
			}
		}
		if added == 0 {
			t.Fatalf("round %d: no fresh edges found", round)
		}

		res, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PageRankDelta {
			t.Fatalf("round %d: link-only flush did not take the delta path (fallback=%v skipped=%v)",
				round, res.PageRankFallback, res.PageRankSkipped)
		}
		if res.PageRankPushed == 0 {
			t.Fatalf("round %d: delta path reported zero pushes", round)
		}
		if res.PageRankSkipped || res.PageRankFallback {
			t.Fatalf("round %d: inconsistent path flags: %+v", round, res)
		}

		cold, err := a.Analyze(corpus)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresMatch(t, fmt.Sprintf("round %d", round), res, cold, 1e-9)
	}

	// An unchanged corpus skips the solve outright — no delta, no fallback.
	res, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageRankSkipped || res.PageRankDelta || res.PageRankFallback {
		t.Fatalf("unchanged corpus must skip PageRank entirely: %+v", res)
	}
}

// TestDeltaPathFallsBackOnNodeChange: a flush that grows the blogger set
// cannot be absorbed incrementally — it must run a full sweep, flag the
// fallback, and then re-arm the delta path for the next link-only flush.
func TestDeltaPathFallsBackOnNodeChange(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 29, Bloggers: 40, Posts: 150})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, deltaConfig(), trainDomainClassifier(t))
	cache := NewCache()
	if _, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache); err != nil {
		t.Fatal(err)
	}

	// New blogger + link: full invalidation.
	newcomer := blog.BloggerID("delta-newcomer")
	if err := corpus.AddBlogger(&blog.Blogger{ID: newcomer}); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.AddLinkDedup(newcomer, corpus.BloggerIDs()[0]); err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageRankDelta || !res.PageRankFallback {
		t.Fatalf("node-set change must fall back to a full sweep: %+v", res)
	}
	cold, err := a.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresMatch(t, "node change", res, cold, 1e-9)

	// Next link-only flush rides the rebuilt push state.
	ids := corpus.BloggerIDs()
	if _, err := corpus.AddLinkDedup(ids[1], ids[2]); err != nil {
		t.Fatal(err)
	}
	res, err = a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageRankDelta {
		t.Fatalf("delta path must re-arm after a fallback: %+v", res)
	}
}

// TestDeltaPathRespectsFallbackMass: with a tiny FallbackMass every link
// flush must refuse the push and run the warm sweep — scores still exact.
func TestDeltaPathRespectsFallbackMass(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 31, Bloggers: 30, Posts: 80})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tightConfig()
	cfg.PageRank.FallbackMass = linkrank.ExplicitZero // always fall back
	a := mustAnalyzer(t, cfg, trainDomainClassifier(t))
	cache := NewCache()
	if _, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache); err != nil {
		t.Fatal(err)
	}
	ids := corpus.BloggerIDs()
	if _, err := corpus.AddLinkDedup(ids[3], ids[4]); err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageRankDelta || !res.PageRankFallback {
		t.Fatalf("FallbackMass=0 must force the full sweep: %+v", res)
	}
	cold, err := a.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresMatch(t, "forced fallback", res, cold, 1e-9)
}
