package influence

import (
	"math"
	"testing"
	"time"

	"mass/internal/blog"
)

// freshAndStale builds two bloggers with identical output, except one
// posted recently and the other a year earlier.
func freshAndStale(t *testing.T) *blog.Corpus {
	t.Helper()
	c := blog.NewCorpus()
	for _, id := range []string{"fresh", "stale"} {
		if err := c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)}); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Date(2009, 12, 1, 0, 0, 0, 0, time.UTC)
	if err := c.AddPost(&blog.Post{ID: "pf", Author: "fresh",
		Body: "one two three four five", Posted: now}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPost(&blog.Post{ID: "ps", Author: "stale",
		Body: "six seven eight nine ten", Posted: now.AddDate(-1, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDecayDisabledEqualsAnalyze(t *testing.T) {
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{}, nil)
	plain, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	decayed, err := a.AnalyzeDecayed(c, DecayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for b, s := range plain.BloggerScores {
		if decayed.BloggerScores[b] != s {
			t.Fatalf("zero half-life must equal Analyze for %s", b)
		}
	}
}

func TestDecayFadesStaleBloggers(t *testing.T) {
	c := freshAndStale(t)
	a := mustAnalyzer(t, Config{}, nil)
	plain, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// Without decay the two are identical.
	if math.Abs(plain.BloggerScores["fresh"]-plain.BloggerScores["stale"]) > 1e-12 {
		t.Fatalf("undecayed scores must tie: %v", plain.BloggerScores)
	}
	decayed, err := a.AnalyzeDecayed(c, DecayConfig{HalfLife: 90 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if decayed.BloggerScores["fresh"] <= decayed.BloggerScores["stale"] {
		t.Fatalf("decay must favour the fresh blogger: %v", decayed.BloggerScores)
	}
	// One year at a 90-day half-life ≈ factor 2^(365/90) ≈ 16.6 on the
	// post score (AP part only; GL is undecayed).
	ratio := decayed.PostScore("pf") / decayed.PostScore("ps")
	want := math.Pow(2, 365.0/90)
	if math.Abs(ratio-want)/want > 0.05 {
		t.Fatalf("post decay ratio = %.2f, want ≈ %.2f", ratio, want)
	}
}

func TestDecayExplicitNow(t *testing.T) {
	c := freshAndStale(t)
	a := mustAnalyzer(t, Config{}, nil)
	// Reference time far in the future: both posts fade, fresh still wins.
	future := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	decayed, err := a.AnalyzeDecayed(c, DecayConfig{
		HalfLife: 90 * 24 * time.Hour,
		Now:      future,
	})
	if err != nil {
		t.Fatal(err)
	}
	if decayed.PostScore("pf") >= 0.5*decayed.PostQuality("pf") {
		t.Fatalf("post from 13 months before Now must fade hard: %v", decayed.PostScore("pf"))
	}
	if decayed.BloggerScores["fresh"] <= decayed.BloggerScores["stale"] {
		t.Fatal("ordering must survive a shifted reference time")
	}
}

func TestDecayDomainConsistency(t *testing.T) {
	// Σ_t Inf(b,Ct) must still equal AP(b) after decay re-aggregation.
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{}, trainDomainClassifier(t))
	decayed, err := a.AnalyzeDecayed(c, DecayConfig{HalfLife: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for b, ds := range decayed.DomainScoresMap() {
		var sum float64
		for _, s := range ds {
			sum += s
		}
		if math.Abs(sum-decayed.AP[b]) > 1e-9 {
			t.Fatalf("decayed domain sum != AP for %s: %v vs %v", b, sum, decayed.AP[b])
		}
	}
}
