package influence

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/novelty"
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
		bytesPerPost   = 10 << 10 // measured 4.0 KiB
		mallocsPerPost = 24       // measured 10.2
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

// TestNoveltyIndexBytesPerPosting pins the live heap the novelty index
// holds per posting (one shingle of one post) on a synth corpus: the
// detector plus any shingles the post facets still hold, measured as the
// heap that dropping both frees. It is measured after a cold analysis and
// again after warm flushes whose posts push the detector's overlay past
// its bound more than once. A posting is a hash and a document number
// (12 B) plus its share of the directory and the base's headroom; a second
// copy of each post's shingles, or a hash map, shows up here.
func TestNoveltyIndexBytesPerPosting(t *testing.T) {
	const budget = 13.0 // B per posting
	corpus, _, err := synth.Generate(synth.Config{Seed: 2010, Bloggers: 300, Posts: 4000})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, Config{IgnoreSentiment: true}, nil)
	perPosting := func(ch *Cache) (float64, int) {
		postings := ch.det.Postings()
		for i := range ch.posts {
			postings += ch.posts[i].prepared.Size()
		}
		// Two collections each: the first can leave the previous cycle's
		// garbage counted.
		var with, without runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&with)
		ch.det = nil
		for i := range ch.posts {
			ch.posts[i].prepared = novelty.Prepared{}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&without)
		runtime.KeepAlive(ch)
		return float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / float64(postings), postings
	}

	cold := NewCache()
	if _, err := a.AnalyzeCached(corpus.Snapshot(), nil, cold); err != nil {
		t.Fatal(err)
	}
	b, n := perPosting(cold)
	t.Logf("cold analysis: %.2f B per posting over %d postings", b, n)
	if b > budget {
		t.Fatalf("cold analysis: the novelty index holds %.2f B per posting, budget %.0f", b, budget)
	}

	warm := NewCache()
	prev, err := a.AnalyzeCached(corpus.Snapshot(), nil, warm)
	if err != nil {
		t.Fatal(err)
	}
	bloggers, ids := corpus.BloggerIDs(), corpus.Snapshot().PostIDs()
	base := warm.det.Postings()
	for i := 0; warm.det.Postings() < base+3*8192; i++ {
		for j := range 20 {
			src := corpus.Posts[ids[(i*20+j)%len(ids)]]
			if err := corpus.AddPost(&blog.Post{ID: blog.PostID(fmt.Sprintf("warm-%d-%d", i, j)), Author: bloggers[j%len(bloggers)],
				Body: src.Body + fmt.Sprintf(" and then some %d", i), Posted: src.Posted.Add(time.Minute)}); err != nil {
				t.Fatal(err)
			}
		}
		if prev, err = a.AnalyzeCached(corpus.Snapshot(), prev, warm); err != nil {
			t.Fatal(err)
		}
	}
	b, n = perPosting(warm)
	t.Logf("after warm flushes: %.2f B per posting over %d postings", b, n)
	if b > budget {
		t.Fatalf("after warm flushes: the novelty index holds %.2f B per posting, budget %.0f", b, budget)
	}
}
