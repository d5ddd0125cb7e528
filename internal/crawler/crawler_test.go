package crawler

import (
	"context"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/core"
	"mass/internal/synth"
)

func serve(t *testing.T, c *blog.Corpus) (*blogserver.Server, string) {
	t.Helper()
	s := blogserver.New(c)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts.URL
}

func TestCrawlFigure1FullRadius(t *testing.T) {
	orig := blog.Figure1Corpus()
	_, url := serve(t, orig)
	cr := New(Config{Workers: 3, Radius: 5}, nil)
	got, stats, err := cr.Crawl(context.Background(), url, "Amery")
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 1 network is connected within radius 2 of Amery.
	if len(got.Bloggers) != 9 {
		t.Fatalf("crawled %d bloggers, want 9", len(got.Bloggers))
	}
	if len(got.Posts) != 4 {
		t.Fatalf("crawled %d posts, want 4", len(got.Posts))
	}
	if len(got.Links) != len(orig.Links) {
		t.Fatalf("crawled %d links, want %d", len(got.Links), len(orig.Links))
	}
	if stats.Fetched != 9 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := got.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrawlRadiusZero(t *testing.T) {
	_, url := serve(t, blog.Figure1Corpus())
	cr := New(Config{Radius: -1}, nil) // withDefaults keeps -1? No: Radius 0 means default.
	_ = cr
	cr2 := New(Config{Workers: 2, Radius: 1}, nil)
	got, stats, err := cr2.Crawl(context.Background(), url, "Helen")
	if err != nil {
		t.Fatal(err)
	}
	// Radius 1 from Helen: Helen fetched at depth 0; her commenters
	// (Jane, Eddie) and link target (Amery) fetched at depth 1. Amery's
	// commenters/linkers appear as stubs only.
	if _, ok := got.Bloggers["Helen"]; !ok {
		t.Fatal("Helen missing")
	}
	if _, ok := got.Posts["post3"]; !ok {
		t.Fatal("Helen's post3 missing")
	}
	if _, ok := got.Posts["post1"]; !ok {
		t.Fatal("Amery fetched at depth 1, post1 must be present")
	}
	// Bob commented on post1 → must exist at least as a stub.
	if _, ok := got.Bloggers["Bob"]; !ok {
		t.Fatal("commenter stub Bob missing")
	}
	// But Bob was never fetched, so his profile is empty and he has no posts.
	for _, p := range got.Posts {
		if p.Author == "Bob" {
			t.Fatalf("Bob must be a stub without posts, has %s", p.ID)
		}
	}
	if stats.Depth != 1 {
		t.Fatalf("depth = %d, want 1", stats.Depth)
	}
}

func TestCrawlRetriesTransientFailures(t *testing.T) {
	s, url := serve(t, blog.Figure1Corpus())
	s.FailEvery = 3 // every third request 503s
	cr := New(Config{Workers: 2, Radius: 5, Retries: 4, RetryDelay: time.Millisecond}, nil)
	got, stats, err := cr.Crawl(context.Background(), url, "Amery")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bloggers) != 9 {
		t.Fatalf("crawl with retries got %d bloggers, want 9", len(got.Bloggers))
	}
	if stats.Retries == 0 {
		t.Fatal("expected some retries against a flaky server")
	}
}

func TestCrawlRetriesCorruptPages(t *testing.T) {
	// The server returns truncated XML on every third space request; the
	// crawler must retry and still assemble a valid corpus.
	s, url := serve(t, blog.Figure1Corpus())
	s.CorruptEvery = 3
	cr := New(Config{Workers: 2, Radius: 5, Retries: 5, RetryDelay: time.Millisecond}, nil)
	got, stats, err := cr.Crawl(context.Background(), url, "Amery")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Bloggers) != 9 {
		t.Fatalf("crawl against corrupting server got %d bloggers, want 9", len(got.Bloggers))
	}
	if stats.Retries == 0 {
		t.Fatal("expected retries against corrupt pages")
	}
}

func TestCrawlGivesUpOnPermanentCorruption(t *testing.T) {
	// Every space page is corrupt: the crawl completes with failures and
	// an empty (but valid) corpus rather than hanging or panicking.
	s, url := serve(t, blog.Figure1Corpus())
	s.CorruptEvery = 1
	cr := New(Config{Workers: 2, Radius: 2, Retries: 1, RetryDelay: time.Millisecond}, nil)
	got, stats, err := cr.Crawl(context.Background(), url, "Amery")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fetched != 0 || stats.Failed == 0 {
		t.Fatalf("stats = %+v, want all failures", stats)
	}
	if len(got.Bloggers) != 0 {
		t.Fatalf("corpus must be empty, got %d bloggers", len(got.Bloggers))
	}
}

func TestCrawlMaxBloggersCap(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 1, Bloggers: 50, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	_, url := serve(t, c)
	seed := c.BloggerIDs()[0]
	cr := New(Config{Workers: 4, Radius: 10, MaxBloggers: 5}, nil)
	got, stats, err := cr.Crawl(context.Background(), url, seed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fetched > 5 {
		t.Fatalf("fetched %d > cap 5", stats.Fetched)
	}
	if !stats.Truncated {
		t.Fatal("expected truncation flag")
	}
	if err := got.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrawlUnknownSeedFails(t *testing.T) {
	_, url := serve(t, blog.Figure1Corpus())
	cr := New(Config{Workers: 1, Radius: 1, Retries: 1, RetryDelay: time.Millisecond}, nil)
	_, stats, err := cr.Crawl(context.Background(), url, "Nobody")
	if err != nil {
		t.Fatal(err) // crawl itself succeeds with zero results
	}
	if stats.Fetched != 0 || stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 failure", stats)
	}
}

func TestCrawlContextCancel(t *testing.T) {
	s, url := serve(t, blog.Figure1Corpus())
	s.Latency = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	cr := New(Config{Workers: 1, Radius: 5}, nil)
	_, _, err := cr.Crawl(ctx, url, "Amery")
	if err == nil {
		t.Fatal("cancelled crawl must return an error")
	}
}

func TestCrawlMatchesServedCorpus(t *testing.T) {
	// A full-radius crawl of a connected synthetic corpus reproduces all
	// posts of the reachable component.
	c, _, err := synth.Generate(synth.Config{Seed: 2, Bloggers: 30, Posts: 150})
	if err != nil {
		t.Fatal(err)
	}
	_, url := serve(t, c)
	seed := c.BloggerIDs()[0]
	cr := New(Config{Workers: 8, Radius: 50}, nil)
	got, _, err := cr.Crawl(context.Background(), url, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Every crawled post must match the original body exactly.
	for _, pid := range got.Snapshot().PostIDs() {
		if got.Posts[pid].Body != c.Posts[pid].Body {
			t.Fatalf("post %s body corrupted in transit", pid)
		}
	}
	// Every fetched blogger's comment totals must match the original
	// within the crawled subgraph (stubs may have fewer).
	if len(got.Posts) == 0 {
		t.Fatal("crawl returned no posts")
	}
}

func TestCrawlRateLimit(t *testing.T) {
	_, url := serve(t, blog.Figure1Corpus())
	cr := New(Config{Workers: 4, Radius: 5, RateLimit: 200}, nil)
	start := time.Now()
	got, _, err := cr.Crawl(context.Background(), url, "Amery")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bloggers) != 9 {
		t.Fatalf("got %d bloggers", len(got.Bloggers))
	}
	// 9 requests at 200 rps ≈ 45ms minimum.
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("rate limit had no effect")
	}
}

// recordingSink collects streamed pages, and can fail on demand.
type recordingSink struct {
	pages  []*blogserver.Page
	failOn int // 1-based page index to fail at; 0 means never
}

func (s *recordingSink) IngestPage(p *blogserver.Page) error {
	s.pages = append(s.pages, p)
	if s.failOn > 0 && len(s.pages) == s.failOn {
		return context.Canceled
	}
	return nil
}

func TestStreamDeliversSamePagesAsCrawl(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 3, Bloggers: 40, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	_, url := serve(t, c)
	seed := c.BloggerIDs()[0]

	cr := New(Config{Workers: 4, Radius: 100}, nil)
	crawled, cstats, err := cr.Crawl(context.Background(), url, seed)
	if err != nil {
		t.Fatal(err)
	}

	sink := &recordingSink{}
	sstats, err := cr.Stream(context.Background(), url, seed, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Fetched != cstats.Fetched || sstats.Depth != cstats.Depth {
		t.Fatalf("stream stats %+v != crawl stats %+v", sstats, cstats)
	}
	if len(sink.pages) != sstats.Fetched {
		t.Fatalf("sink saw %d pages, fetched %d", len(sink.pages), sstats.Fetched)
	}
	// The streamed pages, written through the engine's page path, give
	// the corpus Crawl assembled.
	e, err := core.NewEngine(nil, core.EngineOptions{FlushEvery: 1 << 30, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, p := range sink.pages {
		if err := e.Write(core.PageWrite, core.PageOps(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := e.Current().Corpus()
	if got.NumBloggers() != len(crawled.Bloggers) || got.NumPosts() != len(crawled.Posts) {
		t.Fatalf("streamed %d bloggers/%d posts, crawled %d/%d",
			got.NumBloggers(), got.NumPosts(), len(crawled.Bloggers), len(crawled.Posts))
	}
	for id, want := range crawled.Bloggers {
		b := got.Blogger(id)
		if b == nil || b.Name != want.Name || b.Profile != want.Profile || !slices.Equal(b.Friends, want.Friends) {
			t.Fatalf("blogger %q: streamed %+v, crawled %+v", id, b, want)
		}
	}
	for id, want := range crawled.Posts {
		p := got.Post(id)
		if p == nil || p.Author != want.Author || p.Title != want.Title || p.Body != want.Body ||
			!p.Posted.Equal(want.Posted) || !slices.Equal(p.Tags, want.Tags) ||
			!slices.EqualFunc(p.Comments, want.Comments, sameComment) {
			t.Fatalf("post %q: streamed %+v, crawled %+v", id, p, want)
		}
	}
	if !slices.Equal(got.Links(), crawled.Links) {
		t.Fatalf("streamed links %v, crawled %v", got.Links(), crawled.Links)
	}
}

func sameComment(a, b blog.Comment) bool {
	return a.Commenter == b.Commenter && a.Text == b.Text && a.Posted.Equal(b.Posted)
}

func TestStreamSinkErrorAborts(t *testing.T) {
	_, url := serve(t, blog.Figure1Corpus())
	cr := New(Config{Workers: 2, Radius: 5}, nil)
	sink := &recordingSink{failOn: 2}
	_, err := cr.Stream(context.Background(), url, "Amery", sink)
	if err == nil {
		t.Fatal("expected sink error to abort the stream")
	}
	if len(sink.pages) != 2 {
		t.Fatalf("stream continued past failing sink: %d pages", len(sink.pages))
	}
}

func TestPageNeighborsExcludesSelf(t *testing.T) {
	p := &blogserver.Page{
		Blogger: blog.Blogger{ID: "a", Friends: []blog.BloggerID{"b", "a"}},
		Posts: []blog.Post{
			{ID: "p", Author: "a", Comments: []blog.Comment{{Commenter: "c"}, {Commenter: "b"}}},
		},
		Links:     []blog.BloggerID{"d"},
		Linkbacks: []blog.BloggerID{"e", "d"},
	}
	got := PageNeighbors(p)
	want := []blog.BloggerID{"b", "c", "d", "e"}
	if len(got) != len(want) {
		t.Fatalf("neighbors %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors %v, want %v", got, want)
		}
	}
}

// tempErr is a transient sink failure: errors.As finds Temporary() true,
// matching the contract cluster.OverloadError exposes.
type tempErr struct{}

func (tempErr) Error() string   { return "sink overloaded, try again" }
func (tempErr) Temporary() bool { return true }

// transientSink fails each page's first failPerPage deliveries with a
// retryable error; pages in alwaysFail never succeed.
type transientSink struct {
	mu          sync.Mutex
	failPerPage int
	alwaysFail  map[blog.BloggerID]bool
	attempts    map[blog.BloggerID]int
	accepted    []*blogserver.Page
}

func (s *transientSink) IngestPage(p *blogserver.Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attempts == nil {
		s.attempts = make(map[blog.BloggerID]int)
	}
	s.attempts[p.Blogger.ID]++
	if s.alwaysFail[p.Blogger.ID] || s.attempts[p.Blogger.ID] <= s.failPerPage {
		return tempErr{}
	}
	s.accepted = append(s.accepted, p)
	return nil
}

func TestStreamRetriesTransientSinkErrors(t *testing.T) {
	_, url := serve(t, blog.Figure1Corpus())
	cr := New(Config{Workers: 2, Radius: 5, Retries: 3, RetryDelay: time.Millisecond}, nil)
	sink := &transientSink{failPerPage: 2}
	stats, err := cr.Stream(context.Background(), url, "Amery", sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.accepted) != 9 || stats.Fetched != 9 || stats.Failed != 0 {
		t.Fatalf("delivered %d pages, stats %+v; want all 9 after retries", len(sink.accepted), stats)
	}
	if stats.Retries == 0 {
		t.Fatal("transient sink failures must count as retries")
	}
}

func TestStreamShedsPageWhenTransientRetriesExhaust(t *testing.T) {
	// One page stays overloaded past every retry: the crawl sheds it like
	// a failed fetch and keeps going instead of aborting the whole stream.
	_, url := serve(t, blog.Figure1Corpus())
	cr := New(Config{Workers: 2, Radius: 5, Retries: 2, RetryDelay: time.Millisecond}, nil)
	sink := &transientSink{alwaysFail: map[blog.BloggerID]bool{"Helen": true}}
	stats, err := cr.Stream(context.Background(), url, "Amery", sink)
	if err != nil {
		t.Fatal(err)
	}
	// Shedding behaves exactly like a failed fetch: Helen counts once in
	// Failed and her unexpanded neighbors stay out of the frontier.
	if stats.Failed != 1 || stats.Fetched != len(sink.accepted) || stats.Fetched == 0 {
		t.Fatalf("stats = %+v (accepted %d), want exactly Helen shed", stats, len(sink.accepted))
	}
	for _, p := range sink.accepted {
		if p.Blogger.ID == "Helen" {
			t.Fatal("shed page leaked into the sink")
		}
	}
	if sink.attempts["Helen"] != 3 {
		t.Fatalf("Helen attempted %d times, want 1 + 2 retries", sink.attempts["Helen"])
	}
}
