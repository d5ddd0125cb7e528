package influence

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/synth"
)

// backdater adds posts dated at random inside a corpus's posting span,
// about a third of them verbatim copies of a body the corpus already
// holds. A copy dated before its original makes the original a
// near-duplicate, so the flush must cap a post the detector indexed long
// ago.
type backdater struct {
	rng    *rand.Rand
	start  time.Time
	span   time.Duration
	n      int // posts added
	copies int // of them, copies of an existing body
}

var backdatedWords = []string{"harbour", "market", "league", "gallery", "compiler", "election", "storm", "recipe"}

func newBackdater(c *blog.Corpus, seed int64) *backdater {
	var first, last time.Time
	for _, p := range c.Posts {
		if first.IsZero() || p.Posted.Before(first) {
			first = p.Posted
		}
		if p.Posted.After(last) {
			last = p.Posted
		}
	}
	return &backdater{rng: rand.New(rand.NewSource(seed)), start: first, span: last.Sub(first)}
}

// add appends k back-dated posts to c and returns their IDs.
func (bd *backdater) add(t *testing.T, c *blog.Corpus, k int) []blog.PostID {
	t.Helper()
	bloggers, posts := c.BloggerIDs(), c.Snapshot().PostIDs()
	ids := make([]blog.PostID, 0, k)
	for i := 0; i < k; i++ {
		bd.n++
		id := blog.PostID(fmt.Sprintf("backdated-%04d", bd.n))
		body := ""
		if bd.rng.Intn(3) == 0 {
			body = c.Posts[posts[bd.rng.Intn(len(posts))]].Body
			bd.copies++
		} else {
			for w := 0; w < 8+bd.rng.Intn(12); w++ {
				body += backdatedWords[bd.rng.Intn(len(backdatedWords))] + " "
			}
		}
		posted := bd.start.Add(time.Duration(bd.rng.Int63n(int64(bd.span) + 1)))
		if err := c.AddPost(&blog.Post{ID: id, Author: bloggers[bd.rng.Intn(len(bloggers))], Posted: posted, Body: body}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestBackdatedFlushesMatchCold is the property behind novelty inserts:
// flushes of 1–3 posts dated anywhere inside the corpus span, a third of
// them copies of existing bodies, leave the cached analysis equal to a
// cold one after every flush, the novelty slab bit for bit. Some flushes
// must have capped a post that was already scored, or the later-copy path
// went untested.
func TestBackdatedFlushesMatchCold(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 23, Bloggers: 30, Posts: 160})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, tightConfig(), trainDomainClassifier(t))
	cache := NewCache()
	prev, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	bd := newBackdater(corpus, 23)
	recapped := 0
	for flush := 0; flush < 48; flush++ {
		added := bd.add(t, corpus, 1+bd.rng.Intn(3))
		res, err := a.AnalyzeCached(corpus.Snapshot(), prev, cache)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("flush %d", flush)
		assertMatchesCold(t, label, a, corpus, res)
		if res.ScoredNovelty != len(added) {
			t.Fatalf("%s: detector looked up %d posts for a %d-post flush", label, res.ScoredNovelty, len(added))
		}
		for r, id := range prev.posts {
			if got := res.PostNovelty(id); got < prev.postNovelty[r] {
				recapped++
			}
		}
		prev = res
	}
	if bd.copies == 0 || recapped == 0 {
		t.Fatalf("no flush capped an already-scored post (%d copies added)", bd.copies)
	}
}

// TestBackdatedNoveltyWork is the work count of a back-dated flush:
// inserting k posts dated inside the corpus span looks up exactly k posts
// in the near-duplicate detector, not every post the cache holds.
func TestBackdatedNoveltyWork(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 24, Bloggers: 30, Posts: 300})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, Config{}, nil)
	cache := NewCache()
	prev, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if prev.ScoredNovelty != len(corpus.Posts) {
		t.Fatalf("cold analysis looked up %d of %d posts", prev.ScoredNovelty, len(corpus.Posts))
	}
	bd := newBackdater(corpus, 24)
	for _, k := range []int{1, 3, 7} {
		bd.add(t, corpus, k)
		res, err := a.AnalyzeCached(corpus.Snapshot(), prev, cache)
		if err != nil {
			t.Fatal(err)
		}
		if res.ScoredNovelty != k {
			t.Fatalf("%d back-dated posts: detector looked up %d posts (cache holds %d)", k, res.ScoredNovelty, cache.Posts())
		}
		prev = res
	}
}

// TestBackdatedCheckpointRoundTrip restores a cache whose detector took a
// back-dated insert, so its insertion order is no longer chronological,
// and flushes more back-dated posts on the restored cache: the result
// equals a cold analysis bit for bit, and the restored detector is kept,
// looking up only the second batch.
func TestBackdatedCheckpointRoundTrip(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 25, Bloggers: 30, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, tightConfig(), trainDomainClassifier(t))
	cache := NewCache()
	prev, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	bd := newBackdater(corpus, 25)
	bd.add(t, corpus, 3)
	if prev, err = a.AnalyzeCached(corpus.Snapshot(), prev, cache); err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "first back-dated flush", a, corpus, prev)

	restored := RestoreCache(cache.ExportState())
	second := bd.add(t, corpus, 4)
	res, err := a.AnalyzeCached(corpus.Snapshot(), prev, restored)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "back-dated flush after restore", a, corpus, res)
	if res.ScoredNovelty != len(second) {
		t.Fatalf("restored detector looked up %d posts, want the %d of the second batch", res.ScoredNovelty, len(second))
	}
}
