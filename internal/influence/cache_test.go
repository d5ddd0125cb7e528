package influence

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/linkrank"
	"mass/internal/novelty"
	"mass/internal/synth"
	"mass/internal/textutil"
)

// tightConfig pins both solvers far below the comparison tolerance so a
// cached run and a cold run land within 1e-12 of the same unique fixed
// point even when PageRank warm-starts from a previous vector.
func tightConfig() Config {
	return Config{
		Epsilon: 1e-13,
		MaxIter: 1000,
		PageRank: linkrank.Options{
			Epsilon: 1e-14,
			MaxIter: 1000,
		},
	}
}

// growMixed applies a mixed incremental batch to the corpus: new posts by
// existing and new authors, comments on old and new posts, and fresh
// links.
func growMixed(t *testing.T, c *blog.Corpus, round int) {
	t.Helper()
	authors := c.BloggerIDs()
	newcomer := blog.BloggerID(fmt.Sprintf("cache-newcomer-%d", round))
	if err := c.AddBlogger(&blog.Blogger{ID: newcomer}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		author := authors[(round*7+i)%len(authors)]
		if i == 0 {
			author = newcomer
		}
		pid := blog.PostID(fmt.Sprintf("cache-post-%d-%d", round, i))
		if err := c.AddPost(&blog.Post{
			ID: pid, Author: author,
			Body: fmt.Sprintf("round %d dispatch %d on coastal travel and late sports results", round, i),
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.AddComment(pid, blog.Comment{
			Commenter: authors[(round+i*3)%len(authors)], Text: "I agree, wonderful take",
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Comment on a pre-existing post too.
	oldPost := c.Snapshot().PostIDs()[round%len(c.Posts)]
	if err := c.AddComment(oldPost, blog.Comment{
		Commenter: newcomer, Text: "terrible, I disagree",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddLinkDedup(newcomer, authors[round%len(authors)]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddLinkDedup(authors[(round+1)%len(authors)], newcomer); err != nil {
		t.Fatal(err)
	}
}

// assertMatchesCold analyzes c from scratch and requires got to agree
// with it: every score within 1e-12, and the same dense layout — row
// order, per-post corpus facts, novelty, quality, sentiment and
// posteriors — bit for bit.
func assertMatchesCold(t *testing.T, label string, a *Analyzer, c *blog.Corpus, got *Result) {
	t.Helper()
	cold, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresMatch(t, label, got, cold, 1e-12)
	for b, s := range cold.AP {
		if d := math.Abs(got.AP[b] - s); !(d <= 1e-12) {
			t.Fatalf("%s: AP %s: cached %v vs cold %v (|Δ|=%g)", label, b, got.AP[b], s, d)
		}
	}
	g, w := got.Dense(), cold.Dense()
	exact := []struct {
		name string
		ok   bool
	}{
		{"Bloggers", slices.Equal(g.Bloggers, w.Bloggers)},
		{"Posts", slices.Equal(g.Posts, w.Posts)},
		{"Author", slices.Equal(g.Author, w.Author)},
		{"Posted", slices.Equal(g.Posted, w.Posted)},
		{"Comments", slices.Equal(g.Comments, w.Comments)},
		{"PostCounts", slices.Equal(g.PostCounts, w.PostCounts)},
		{"AuthorOff", slices.Equal(g.AuthorOff, w.AuthorOff)},
		{"ByAuthor", slices.Equal(g.ByAuthor, w.ByAuthor)},
		{"Quality", slices.Equal(g.Quality, w.Quality)},
		{"Novelty", slices.Equal(g.Novelty, w.Novelty)},
		{"Sentiment", slices.Equal(g.Sentiment, w.Sentiment)},
		{"Domains", slices.Equal(g.Domains, w.Domains)},
		{"PostDomains", slices.Equal(g.PostDomains, w.PostDomains)},
		{"Words", got.Words() == cold.Words()},
	}
	for _, e := range exact {
		if !e.ok {
			t.Fatalf("%s: dense %s differs from a cold analysis", label, e.name)
		}
	}
	near := []struct {
		name      string
		got, want []float64
	}{
		{"Influence", g.Influence, w.Influence},
		{"AP", g.AP, w.AP},
		{"GL", g.GL, w.GL},
		{"PostScore", g.PostScore, w.PostScore},
		{"DomainScores", g.DomainScores, w.DomainScores},
	}
	// The post-count slab and the author-grouped rows cover the posts the
	// analysis ran over, counted from the Posts map.
	postsBy := make(map[blog.BloggerID]int)
	for _, p := range c.Posts {
		postsBy[p.Author]++
	}
	if len(g.PostCounts) != len(g.Bloggers) || len(g.AuthorOff) != len(g.Bloggers)+1 || len(g.ByAuthor) != len(g.Posts) {
		t.Fatalf("%s: dense PostCounts/AuthorOff/ByAuthor have %d/%d/%d rows for %d bloggers, %d posts",
			label, len(g.PostCounts), len(g.AuthorOff), len(g.ByAuthor), len(g.Bloggers), len(g.Posts))
	}
	for i, b := range g.Bloggers {
		if want := postsBy[b]; int(g.PostCounts[i]) != want {
			t.Fatalf("%s: dense PostCounts[%s] = %d, corpus has %d posts", label, b, g.PostCounts[i], want)
		}
		rows := g.ByAuthor[g.AuthorOff[i]:g.AuthorOff[i+1]]
		if len(rows) != postsBy[b] || !slices.IsSorted(rows) {
			t.Fatalf("%s: ByAuthor rows of %s = %v, want %d ascending rows", label, b, rows, postsBy[b])
		}
		for _, r := range rows {
			if g.Author[r] != int32(i) {
				t.Fatalf("%s: ByAuthor lists post %s under %s", label, g.Posts[r], b)
			}
		}
	}
	for _, n := range near {
		if len(n.got) != len(n.want) {
			t.Fatalf("%s: dense %s has %d rows, cold %d", label, n.name, len(n.got), len(n.want))
		}
		for i := range n.want {
			if d := math.Abs(n.got[i] - n.want[i]); !(d <= 1e-12) {
				t.Fatalf("%s: dense %s[%d]: cached %v vs cold %v (|Δ|=%g)", label, n.name, i, n.got[i], n.want[i], d)
			}
		}
	}
}

// assertRejectsInvalid hands the warm cache TestAnalyzeRejectsInvalidCorpus's
// corpus, and a clone of c with the same ghost post written into its
// map, and requires both to be rejected.
func assertRejectsInvalid(t *testing.T, label string, a *Analyzer, c *blog.Corpus, cache *Cache) {
	t.Helper()
	if _, err := a.AnalyzeCached(invalidCorpus().Snapshot(), nil, cache); err == nil {
		t.Fatalf("%s: warm cache accepted an invalid corpus", label)
	}
	ghost := c.Clone()
	ghost.Posts["ghostpost"] = &blog.Post{ID: "ghostpost", Author: "nobody"}
	if _, err := a.AnalyzeCached(ghost.Snapshot(), nil, cache); err == nil {
		t.Fatalf("%s: warm cache accepted a ghost post written into its own lineage", label)
	}
}

// lineageStep mutates the corpus between two cached analyses and returns
// the corpus to analyze next (a rebuild returns a new one).
type lineageStep struct {
	name  string
	apply func(t *testing.T, c *blog.Corpus) *blog.Corpus
}

// lineageSteps are the mutation lineages the cache must follow exactly:
// append-only batches it extends in O(delta), and every way the journal
// can stop being an extension of what the cache saw.
func lineageSteps() []lineageStep {
	step := func(name string, f func(t *testing.T, c *blog.Corpus)) lineageStep {
		return lineageStep{name, func(t *testing.T, c *blog.Corpus) *blog.Corpus { f(t, c); return c }}
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	latest := func(c *blog.Corpus) time.Time {
		var last time.Time
		for _, p := range c.Posts {
			if p.Posted.After(last) {
				last = p.Posted
			}
		}
		return last
	}
	var steps []lineageStep
	for round := 0; round < 3; round++ {
		steps = append(steps, step(fmt.Sprintf("mixed batch %d", round), func(t *testing.T, c *blog.Corpus) {
			growMixed(t, c, round)
		}))
	}
	return append(steps,
		step("in-order post", func(t *testing.T, c *blog.Corpus) {
			author := c.BloggerIDs()[3]
			must(t, c.AddPost(&blog.Post{ID: "lineage-inorder", Author: author, Posted: latest(c).Add(time.Hour),
				Body: "a late evening dispatch on harbour markets and the price of fresh fish"}))
		}),
		step("commenter-only bloggers", func(t *testing.T, c *blog.Corpus) {
			posts := c.Snapshot().PostIDs()
			for i := 0; i < 3; i++ {
				id := blog.BloggerID(fmt.Sprintf("lineage-lurker-%d", i))
				must(t, c.AddBlogger(&blog.Blogger{ID: id}))
				must(t, c.AddComment(posts[i*11%len(posts)], blog.Comment{Commenter: id, Text: "great point, I agree"}))
				must(t, c.AddComment(posts[i*17%len(posts)], blog.Comment{Commenter: id, Text: "awful, I disagree"}))
			}
		}),
		step("comments on old posts", func(t *testing.T, c *blog.Corpus) {
			posts, bloggers := c.Snapshot().PostIDs(), c.BloggerIDs()
			for i := 0; i < 5; i++ {
				must(t, c.AddComment(posts[i*7%len(posts)], blog.Comment{Commenter: bloggers[i*5%len(bloggers)], Text: "fine"}))
			}
		}),
		step("links", func(t *testing.T, c *blog.Corpus) {
			bloggers := c.BloggerIDs()
			for i := 0; i < 4; i++ {
				_, err := c.AddLinkDedup(bloggers[i*3%len(bloggers)], bloggers[(i*3+7)%len(bloggers)])
				must(t, err)
			}
		}),
		step("back-dated copy", func(t *testing.T, c *blog.Corpus) {
			// A copy of the newest post, dated before every other one: the
			// copy becomes the original and the later post a near-duplicate.
			newest := c.Posts["lineage-inorder"]
			must(t, c.AddPost(&blog.Post{ID: "lineage-backdated", Author: c.BloggerIDs()[5],
				Posted: time.Date(1990, 1, 1, 0, 0, 0, 0, time.UTC), Body: newest.Body}))
		}),
		step("direct Posts write", func(t *testing.T, c *blog.Corpus) {
			c.Posts["lineage-direct"] = &blog.Post{ID: "lineage-direct", Author: c.BloggerIDs()[1],
				Posted: latest(c).Add(time.Hour), Body: "written straight into the map, past the journal",
				Comments: []blog.Comment{{Commenter: c.BloggerIDs()[2], Text: "great"}}}
		}),
		step("Reindex", func(t *testing.T, c *blog.Corpus) { c.Reindex() }),
		lineageStep{"FromParts rebuild", func(t *testing.T, c *blog.Corpus) *blog.Corpus {
			var bloggers []*blog.Blogger
			var posts []*blog.Post
			for _, id := range c.BloggerIDs() {
				bloggers = append(bloggers, c.Bloggers[id])
			}
			for _, id := range c.Snapshot().PostIDs() {
				posts = append(posts, c.Posts[id])
			}
			rebuilt, err := blog.FromParts(bloggers, posts, c.Links)
			must(t, err)
			return rebuilt
		}},
		step("mixed batch after rebuild", func(t *testing.T, c *blog.Corpus) { growMixed(t, c, 3) }),
	)
}

// TestCachedMatchesColdBitForBit is the cache acceptance test: along a
// lineage of mixed batches, commenter-only bloggers, comments on old posts,
// links, in-order and back-dated posts, a direct map write, Reindex and a
// FromParts rebuild, an AnalyzeCached run on a snapshot (as the engine
// flushes) must agree with a from-scratch Analyze to 1e-12 on every score
// surface and reproduce its dense layout exactly — and the warm cache must
// still reject an invalid corpus after every step.
func TestCachedMatchesColdBitForBit(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 91, Bloggers: 60, Posts: 400})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, tightConfig(), trainDomainClassifier(t))
	cache := NewCache()
	prev, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range lineageSteps() {
		corpus = st.apply(t, corpus)
		cached, err := a.AnalyzeCached(corpus.Snapshot(), prev, cache)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		assertMatchesCold(t, st.name, a, corpus, cached)
		if cache.Posts() != len(corpus.Posts) {
			t.Fatalf("%s: cache holds %d posts, corpus %d", st.name, cache.Posts(), len(corpus.Posts))
		}
		assertRejectsInvalid(t, st.name, a, corpus, cache)
		prev = cached
	}
}

// TestCachedReuseCounters pins the incremental contract: after a small
// batch, every unchanged post's tokenization and posterior and every
// pre-existing comment's sentiment must be served from the cache — zero
// redundant recomputation.
func TestCachedReuseCounters(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 92, Bloggers: 40, Posts: 250})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, Config{}, trainDomainClassifier(t))
	cache := NewCache()
	first, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if first.ReusedNovelty != 0 || first.ReusedPosteriors != 0 || first.ReusedSentiments != 0 {
		t.Fatalf("first cached run must reuse nothing: %+v", first)
	}
	oldPosts := len(corpus.Posts)
	oldComments := 0
	for _, p := range corpus.Posts {
		oldComments += len(p.Comments)
	}

	growMixed(t, corpus, 0)
	res, err := a.AnalyzeCached(corpus.Snapshot(), first, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedNovelty != oldPosts {
		t.Fatalf("re-tokenized %d unchanged posts (reused %d, want %d)",
			oldPosts-res.ReusedNovelty, res.ReusedNovelty, oldPosts)
	}
	if res.ReusedPosteriors != oldPosts {
		t.Fatalf("re-classified %d unchanged posts (reused %d, want %d)",
			oldPosts-res.ReusedPosteriors, res.ReusedPosteriors, oldPosts)
	}
	if res.ReusedSentiments != oldComments {
		t.Fatalf("re-scored %d unchanged comments (reused %d, want %d)",
			oldComments-res.ReusedSentiments, res.ReusedSentiments, oldComments)
	}
	if res.PageRankSkipped {
		t.Fatal("the batch added links; PageRank must have re-run")
	}

	// No mutations at all: the PageRank solve is skipped outright.
	again, err := a.AnalyzeCached(corpus.Snapshot(), res, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !again.PageRankSkipped {
		t.Fatal("unchanged link graph must skip the PageRank solve")
	}
	if again.ReusedNovelty != len(corpus.Posts) {
		t.Fatalf("no-op flush re-tokenized posts: reused %d of %d", again.ReusedNovelty, len(corpus.Posts))
	}
}

// TestCacheSurvivesCorpusSwap hands a warm cache a corpus of another
// lineage: an unrelated corpus (fresh post IDs, per the cache's lineage
// contract), a FromParts rebuild and a Reindex of the corpus it follows,
// and a forked snapshot mutated apart from its origin. The cache must reset
// to journal position 0, drop posts the corpus lacks, keep the facets of
// every post ID it holds, and match a cold analysis exactly.
func TestCacheSurvivesCorpusSwap(t *testing.T) {
	big, _, err := synth.Generate(synth.Config{Seed: 93, Bloggers: 40, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := synth.Generate(synth.Config{Seed: 94, Bloggers: 15, Posts: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Re-key the posts so no ID collides with big's: a post ID names one
	// immutable body, so a wholesale swap must not recycle IDs.
	small := blog.NewCorpus()
	for _, id := range gen.BloggerIDs() {
		if err := small.AddBlogger(gen.Bloggers[id]); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range gen.Snapshot().PostIDs() {
		p := *gen.Posts[pid]
		p.ID = "swap-" + p.ID
		if err := small.AddPost(&p); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range gen.Links {
		if err := small.AddLink(l.From, l.To); err != nil {
			t.Fatal(err)
		}
	}
	rebuild := func(c *blog.Corpus, _ *Analyzer, _ *Cache) *blog.Corpus {
		var bloggers []*blog.Blogger
		var posts []*blog.Post
		for _, id := range c.BloggerIDs() {
			bloggers = append(bloggers, c.Bloggers[id])
		}
		for _, id := range c.Snapshot().PostIDs() {
			posts = append(posts, c.Posts[id])
		}
		out, err := blog.FromParts(bloggers, posts, c.Links)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	reindexed := func(c *blog.Corpus, _ *Analyzer, _ *Cache) *blog.Corpus {
		s := c.Clone()
		s.Reindex()
		return s
	}
	forked := func(c *blog.Corpus, a *Analyzer, cache *Cache) *blog.Corpus {
		// Both the origin and its clone grow past the shared prefix; the
		// cache saw the origin's growth, then gets the clone's.
		s := c.Clone()
		growMixed(t, c, 7)
		if _, err := a.AnalyzeCached(c.Snapshot(), nil, cache); err != nil {
			t.Fatal(err)
		}
		growMixed(t, s, 8)
		return s
	}

	cases := []struct {
		name string
		swap func(c *blog.Corpus, a *Analyzer, cache *Cache) *blog.Corpus
		// keeps reports whether every post of the swapped-in corpus is one
		// the cache already held, so all facets must be reused.
		keeps bool
	}{
		{"unrelated corpus", func(*blog.Corpus, *Analyzer, *Cache) *blog.Corpus { return small }, false},
		{"FromParts rebuild", rebuild, true},
		{"Reindex", reindexed, true},
		{"forked snapshot", forked, false},
	}
	a := mustAnalyzer(t, tightConfig(), trainDomainClassifier(t))
	for _, tc := range cases {
		cache := NewCache()
		origin := big.Clone()
		if _, err := a.AnalyzeCached(origin.Snapshot(), nil, cache); err != nil {
			t.Fatal(err)
		}
		swapped := tc.swap(origin, a, cache)
		cached, err := a.AnalyzeCached(swapped.Snapshot(), nil, cache)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cache.Posts() != len(swapped.Posts) {
			t.Fatalf("%s: stale posts not evicted: cache has %d, corpus has %d", tc.name, cache.Posts(), len(swapped.Posts))
		}
		comments := 0
		for _, p := range swapped.Posts {
			comments += len(p.Comments)
		}
		if tc.keeps && (cached.ReusedNovelty != len(swapped.Posts) || cached.ReusedPosteriors != len(swapped.Posts) || cached.ReusedSentiments != comments) {
			t.Fatalf("%s: facets not carried over: reused novelty %d, posteriors %d of %d posts, sentiments %d of %d",
				tc.name, cached.ReusedNovelty, cached.ReusedPosteriors, len(swapped.Posts), cached.ReusedSentiments, comments)
		}
		assertMatchesCold(t, tc.name, a, swapped, cached)
		assertRejectsInvalid(t, tc.name, a, swapped, cache)
	}
}

// TestCacheCommentAppendKeepsPrefix verifies the per-comment sentiment
// cache tracks the copy-on-write append contract: a comment landing on an
// old post reuses every earlier comment's polarity and scores only the
// new one.
func TestCacheCommentAppendKeepsPrefix(t *testing.T) {
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{}, nil)
	cache := NewCache()
	if _, err := a.AnalyzeCached(c.Snapshot(), nil, cache); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range c.Posts {
		total += len(p.Comments)
	}
	pid := c.Snapshot().PostIDs()[0]
	commenter := c.BloggerIDs()[0]
	if err := c.AddComment(pid, blog.Comment{Commenter: commenter, Text: "support this fully"}); err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeCached(c.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedSentiments != total {
		t.Fatalf("reused %d comment sentiments, want %d", res.ReusedSentiments, total)
	}
	cold, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	for b, s := range cold.BloggerScores {
		if math.Abs(res.BloggerScores[b]-s) > 1e-12 {
			t.Fatalf("comment-append cached result differs for %s", b)
		}
	}
}

// TestWarmFlushAllocsSizeIndependent is the allocation budget of a warm
// flush: one post plus one comment on an old post, analyzed against a warm
// cache, allocates a constant count — the same on a corpus with 4× the
// posts — because the cache reads only the journal delta and the result
// slabs are flat, never per post.
func TestWarmFlushAllocsSizeIndependent(t *testing.T) {
	a := mustAnalyzer(t, Config{}, trainDomainClassifier(t))
	allocs := func(posts int) float64 {
		c, _, err := synth.Generate(synth.Config{Seed: 96, Bloggers: 30, Posts: posts})
		if err != nil {
			t.Fatal(err)
		}
		cache := NewCache()
		prev, err := a.AnalyzeCached(c.Snapshot(), nil, cache)
		if err != nil {
			t.Fatal(err)
		}
		bloggers, old := c.BloggerIDs(), c.Snapshot().PostIDs()
		var last time.Time
		comments := 0
		for _, p := range c.Posts {
			if p.Posted.After(last) {
				last = p.Posted
			}
			comments += len(p.Comments)
		}
		// IDs are built up front: fmt's printer pool drops entries at random
		// under the race detector, which would make the count noisy.
		ids := make([]blog.PostID, 64)
		for i := range ids {
			ids[i] = blog.PostID(fmt.Sprintf("alloc-%03d", i))
		}
		n := 0
		flush := func() {
			n++
			pid := ids[n]
			if err := c.AddPost(&blog.Post{ID: pid, Author: bloggers[n%len(bloggers)], Body: "zq",
				Posted: last.Add(time.Duration(n) * time.Hour)}); err != nil {
				t.Fatal(err)
			}
			if err := c.AddComment(old[n%len(old)], blog.Comment{Commenter: bloggers[(n+1)%len(bloggers)], Text: "fine"}); err != nil {
				t.Fatal(err)
			}
			comments++
			res, err := a.AnalyzeCached(c.Snapshot(), prev, cache)
			if err != nil {
				t.Fatal(err)
			}
			if res.ReusedNovelty != len(c.Posts)-1 || res.ReusedSentiments != comments-1 {
				t.Fatalf("%d posts: reused novelty %d of %d posts, sentiments %d of %d comments",
					posts, res.ReusedNovelty, len(c.Posts), res.ReusedSentiments, comments)
			}
			prev = res
		}
		return testing.AllocsPerRun(40, flush)
	}
	small, large := allocs(150), allocs(600)
	if small != large {
		t.Fatalf("warm flush allocations grow with corpus size: %v (150 posts) vs %v (600 posts)", small, large)
	}
}

// TestCacheRecoversFromFailedReset hands a warm cache a corpus that passes
// Validate but whose journal names a post its map no longer holds (a
// reindexed clone with one post moved to another ID by direct map
// writes), so the reset fails while interning. The next analysis of a
// valid corpus must not trust the detector that half-built reset left
// behind: it matches a cold analysis exactly.
func TestCacheRecoversFromFailedReset(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 97, Bloggers: 30, Posts: 150})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, tightConfig(), nil)
	cache := NewCache()
	if _, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache); err != nil {
		t.Fatal(err)
	}
	moved := corpus.Clone()
	moved.Reindex()
	// Sorted map keys, not a generation: freezing before the direct map
	// writes below would let the next Snapshot reuse that base.
	pid := slices.Max(slices.Collect(maps.Keys(moved.Posts)))
	p := *moved.Posts[pid]
	delete(moved.Posts, pid)
	p.ID = "moved-" + pid
	moved.Posts[p.ID] = &p
	if _, err := a.AnalyzeCached(moved.Snapshot(), nil, cache); err == nil {
		t.Fatal("warm cache accepted a journal naming a post its map lacks")
	}
	res, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "after a failed reset", a, corpus, res)
}

// TestDroppedDetectorHandsShinglesBack deletes an indexed post behind the
// journal and reindexes, so the reset cannot keep the novelty detector.
// The held posts hold no shingles of their own once indexed; they must
// read them back from the dropped detector, so nothing is re-tokenized
// and the result still equals a cold analysis.
func TestDroppedDetectorHandsShinglesBack(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 98, Bloggers: 30, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, tightConfig(), nil)
	cache := NewCache()
	prev, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	delete(corpus.Posts, corpus.Snapshot().PostIDs()[0])
	corpus.Reindex()
	res, err := a.AnalyzeCached(corpus.Snapshot(), prev, cache)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "after the detector was dropped", a, corpus, res)
	if res.ReusedNovelty != len(corpus.Posts) || res.ScoredNovelty != len(corpus.Posts) {
		t.Fatalf("reused the shingles of %d and re-indexed %d of %d posts", res.ReusedNovelty, res.ScoredNovelty, len(corpus.Posts))
	}
}

// TestExportStateReadsShinglesBack exports a warm cache, whose indexed
// posts' shingles live only in its detector: every post carries its own
// shingle set, and the restored cache exports the same state. A restore
// whose novelty order names a post twice keeps every post's shingles in
// its facets, with an empty detector; that cache exports them too, and
// its next analysis equals a cold one.
func TestExportStateReadsShinglesBack(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 99, Bloggers: 30, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, tightConfig(), nil)
	cache := NewCache()
	prev, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.ExportState()
	det := novelty.New()
	for _, ps := range st.Posts {
		body := corpus.Posts[ps.ID].Body
		want := det.Prepare(textutil.Tokenize(body), body).AppendShingles(nil)
		if !ps.HasPrepared || !ps.HasNov || !slices.Equal(ps.Shingles, want) {
			t.Fatalf("post %s exported shingles %v, prepared %v", ps.ID, ps.Shingles, want)
		}
	}
	if again := RestoreCache(st).ExportState(); !reflect.DeepEqual(again, st) {
		t.Fatal("a restored cache exports another state")
	}

	st.NovOrder = append(st.NovOrder, st.NovOrder[0])
	degraded := RestoreCache(st)
	again := degraded.ExportState()
	if len(again.NovOrder) != 0 {
		t.Fatalf("an invalid novelty order restored %d indexed posts", len(again.NovOrder))
	}
	for i, ps := range again.Posts {
		if !slices.Equal(ps.Shingles, st.Posts[i].Shingles) {
			t.Fatalf("post %s: exported %v from its facets, restored %v", ps.ID, ps.Shingles, st.Posts[i].Shingles)
		}
	}
	res, err := a.AnalyzeCached(corpus.Snapshot(), prev, degraded)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, "after an invalid novelty order", a, corpus, res)
}
