package influence

import (
	"math"
	"testing"

	"mass/internal/blog"
	"mass/internal/synth"
)

func TestWarmStartSameFixedPoint(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 71, Bloggers: 60, Posts: 400})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, Config{}, nil)
	cold, err := a.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := a.AnalyzeCached(corpus.Snapshot(), cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same unique fixed point.
	for b, s := range cold.BloggerScores {
		if math.Abs(warm.BloggerScores[b]-s) > 1e-7 {
			t.Fatalf("warm fixed point differs for %s: %v vs %v", b, warm.BloggerScores[b], s)
		}
	}
	// Warm start from the solution itself must converge almost instantly.
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm start no faster: %d vs %d iterations", warm.Iterations, cold.Iterations)
	}
}

func TestWarmStartAfterIncrementalGrowth(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 72, Bloggers: 60, Posts: 400})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, Config{}, nil)
	prev, err := a.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	// The crawler appends one new blogger with a post and a comment.
	if err := corpus.AddBlogger(&blog.Blogger{ID: "newcomer"}); err != nil {
		t.Fatal(err)
	}
	someone := corpus.BloggerIDs()[0]
	if err := corpus.AddPost(&blog.Post{
		ID: "newpost", Author: "newcomer",
		Body: "a fresh note about something entirely new around here",
		Comments: []blog.Comment{
			{Commenter: someone, Text: "I agree, great"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	cold, err := a.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := a.AnalyzeCached(corpus.Snapshot(), prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b, s := range cold.BloggerScores {
		if math.Abs(warm.BloggerScores[b]-s) > 1e-7 {
			t.Fatalf("incremental warm result differs for %s", b)
		}
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start slower than cold: %d vs %d", warm.Iterations, cold.Iterations)
	}
}

func TestWarmReusesClassifierPosteriors(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 73, Bloggers: 40, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, Config{}, trainDomainClassifier(t))
	prev, err := a.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if prev.ReusedPosteriors != 0 {
		t.Fatalf("cold analyze reported %d reused posteriors", prev.ReusedPosteriors)
	}
	old := len(corpus.Posts)
	author := corpus.BloggerIDs()[0]
	if err := corpus.AddPost(&blog.Post{
		ID: "warmnew", Author: author,
		Body: "travel notes from a long trip across the coast",
	}); err != nil {
		t.Fatal(err)
	}
	warm, err := a.AnalyzeCached(corpus.Snapshot(), prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ReusedPosteriors != old {
		t.Fatalf("reused %d posteriors, want %d (all pre-existing posts)", warm.ReusedPosteriors, old)
	}
	cold, err := a.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for b, ds := range cold.DomainScoresMap() {
		for d, s := range ds {
			if math.Abs(warm.DomainScore(b, d)-s) > 1e-7 {
				t.Fatalf("domain score differs for %s/%s: %v vs %v", b, d, warm.DomainScore(b, d), s)
			}
		}
	}
}

func TestWarmNilPrevEqualsCold(t *testing.T) {
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{}, nil)
	cold, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := a.AnalyzeCached(c.Snapshot(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b, s := range cold.BloggerScores {
		if warm.BloggerScores[b] != s {
			t.Fatal("nil prev must behave exactly like Analyze")
		}
	}
}
