package influence

import (
	"runtime"
	"testing"

	"mass/internal/classify"
	"mass/internal/synth"
)

// TestColdAnalysisAllocBudget pins what a cold analysis allocates per
// post on a synth corpus (with comments, links and the default naive
// Bayes classifier). Each post body and each comment is tokenized once,
// into a worker's reused Scanner, and classified over interned term IDs
// into its dense posterior row; a second tokenization per text or a
// posterior map per post shows up here as bytes or mallocs per post.
func TestColdAnalysisAllocBudget(t *testing.T) {
	const (
		bytesPerPost   = 10 << 10 // measured 6.4 KiB
		mallocsPerPost = 24       // measured 15.2
	)
	corpus, _, err := synth.Generate(synth.Config{Seed: 2010, Bloggers: 120, Posts: 1500})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 30, 1))
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, Config{}, nb)
	snap := corpus.Snapshot()
	if _, err := a.AnalyzeCached(snap, nil, nil); err != nil { // warm up lazily built corpus views
		t.Fatal(err)
	}
	posts := float64(snap.NumPosts())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := a.AnalyzeCached(snap, nil, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / posts
	mallocs := float64(after.Mallocs-before.Mallocs) / posts
	t.Logf("cold analysis of %d posts: %.0f B and %.1f mallocs per post", snap.NumPosts(), bytes, mallocs)
	if bytes > bytesPerPost || mallocs > mallocsPerPost {
		t.Fatalf("cold analysis allocates %.0f B and %.1f mallocs per post, budget %d B and %d",
			bytes, mallocs, bytesPerPost, mallocsPerPost)
	}
}
