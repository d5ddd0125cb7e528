package core

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/crawler"
	"mass/internal/influence"
	"mass/internal/linkrank"
	"mass/internal/synth"
)

func testEngineOptions() EngineOptions {
	return EngineOptions{
		FlushEvery:    8,
		FlushInterval: 25 * time.Millisecond,
	}
}

func startEngine(t *testing.T, c *blog.Corpus, opts EngineOptions) *Engine {
	t.Helper()
	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// coldSystem analyzes a published generation from scratch, as FromCorpus
// analyzes a corpus.
func coldSystem(t *testing.T, f *blog.Frozen, opts Options) *System {
	t.Helper()
	opts = opts.withDefaults()
	cl, err := opts.buildClassifier()
	if err != nil {
		t.Fatal(err)
	}
	an, err := influence.NewAnalyzer(opts.Influence, cl)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newSystem(f, opts, cl, an, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func synthCorpus(t *testing.T, seed int64, bloggers, posts int) *blog.Corpus {
	t.Helper()
	c, _, err := synth.Generate(synth.Config{Seed: seed, Bloggers: bloggers, Posts: posts})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineConcurrentIngestAndQuery is the acceptance race test: 4
// goroutines ingest posts, comments and links while 4 goroutines query
// whatever snapshot is current, with the background flusher republishing
// underneath them. Run with -race.
func TestEngineConcurrentIngestAndQuery(t *testing.T) {
	e := startEngine(t, synthCorpus(t, 81, 30, 150), testEngineOptions())

	base := e.Current().Corpus().BloggerIDs()
	initialPosts := e.Current().Corpus().NumPosts()
	const ingesters, readers, perIngester = 4, 4, 30

	var wg sync.WaitGroup
	errs := make(chan error, ingesters)
	stop := make(chan struct{})
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perIngester; i++ {
				author := blog.BloggerID(fmt.Sprintf("live-%d", g))
				pid := blog.PostID(fmt.Sprintf("live-%d-%d", g, i))
				if err := e.AddBatch(Batch{Posts: []*blog.Post{{
					ID: pid, Author: author,
					Title: "live post",
					Body:  fmt.Sprintf("fresh travel notes number %d from goroutine %d", i, g),
				}}}); err != nil {
					errs <- err
					return
				}
				if err := e.AddBatch(Batch{Comments: []BatchComment{{Post: pid, Comment: blog.Comment{
					Commenter: base[(g+i)%len(base)], Text: "great point, love it",
				}}}}); err != nil {
					errs <- err
					return
				}
				if err := e.AddBatch(Batch{Links: []blog.Link{{From: author, To: base[i%len(base)]}}}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Current()
				if s == nil {
					errs <- fmt.Errorf("Current returned nil")
					return
				}
				top := s.TopInfluential(3)
				for _, b := range top {
					_ = s.Result().DomainVector(b)
				}
				_ = s.Stats()
				_ = e.Status()
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		// Ingesters finish first; readers exit once stop closes.
		defer close(done)
		wg.Wait()
	}()

	// Wait for the ingesters by polling total mutations, then stop readers.
	deadline := time.After(30 * time.Second)
	want := uint64(ingesters * perIngester * 3)
	for {
		st := e.Status()
		if st.TotalMutations >= want {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("timed out: %d/%d mutations", st.TotalMutations, want)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Current()
	if got, want := s.Corpus().NumPosts(), initialPosts+ingesters*perIngester; got != want {
		t.Fatalf("final snapshot has %d posts, want %d", got, want)
	}
	if err := s.Corpus().Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Seq < 2 {
		t.Fatalf("flusher never republished: seq %d", s.Seq)
	}
}

// TestEngineWarmMatchesCold is the acceptance determinism test: after live
// ingestion, the engine's warm incremental re-analysis must land on the
// same scores as a cold Analyze of the same corpus, within 1e-9.
func TestEngineWarmMatchesCold(t *testing.T) {
	e := startEngine(t, synthCorpus(t, 82, 40, 250), testEngineOptions())

	base := e.Current().Corpus().BloggerIDs()
	for i := 0; i < 25; i++ {
		pid := blog.PostID(fmt.Sprintf("p-new-%d", i))
		if err := e.AddBatch(Batch{Posts: []*blog.Post{{
			ID: pid, Author: base[i%7],
			Body: fmt.Sprintf("a brand new dispatch about sports and markets, issue %d", i),
		}}}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddBatch(Batch{Comments: []BatchComment{{Post: pid, Comment: blog.Comment{Commenter: base[(i+3)%len(base)], Text: "excellent read"}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddBatch(Batch{Links: []blog.Link{{From: base[1], To: base[2]}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	warm := e.Current()
	if warm.Result().ReusedPosteriors == 0 {
		t.Fatal("warm path did not reuse any classifier posteriors")
	}

	// Cold: a from-scratch System over the very same frozen corpus, with
	// the same classifier.
	cold := coldSystem(t, warm.Corpus(), Options{
		Classifier: warm.Classifier(),
		Influence:  e.opts.Influence,
	})
	cr, wr := cold.Result(), warm.Result()
	if len(cr.BloggerScores) != len(wr.BloggerScores) {
		t.Fatalf("score sets differ: %d vs %d", len(cr.BloggerScores), len(wr.BloggerScores))
	}
	for b, s := range cr.BloggerScores {
		if math.Abs(wr.BloggerScores[b]-s) > 1e-9 {
			t.Fatalf("blogger %s: warm %v vs cold %v", b, wr.BloggerScores[b], s)
		}
	}
	cd := cr.Dense()
	for i, p := range cd.Posts {
		if s := cd.PostScore[i]; math.Abs(wr.PostScore(p)-s) > 1e-9 {
			t.Fatalf("post %s: warm %v vs cold %v", p, wr.PostScore(p), s)
		}
	}
	for b, ds := range cr.DomainScoresMap() {
		for d, s := range ds {
			if math.Abs(wr.DomainScore(b, d)-s) > 1e-9 {
				t.Fatalf("domain %s/%s: warm %v vs cold %v", b, d, wr.DomainScore(b, d), s)
			}
		}
	}
}

// TestEngineStartsEmpty checks the cold-start path: no corpus at boot,
// everything arrives through ingestion.
func TestEngineStartsEmpty(t *testing.T) {
	e := startEngine(t, nil, testEngineOptions())
	if got := e.Current().Corpus().NumBloggers(); got != 0 {
		t.Fatalf("empty engine has %d bloggers", got)
	}
	if top := e.Current().TopInfluential(3); len(top) != 0 {
		t.Fatalf("empty engine ranked %d bloggers", len(top))
	}
	if err := e.AddBatch(Batch{Posts: []*blog.Post{{ID: "p1", Author: "ann", Body: "first ever post here"}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Current()
	if s.Corpus().NumPosts() != 1 || s.Corpus().NumBloggers() != 1 {
		t.Fatal("ingested post did not reach the snapshot")
	}
	if top := s.TopInfluential(1); len(top) != 1 || top[0] != "ann" {
		t.Fatalf("expected ann on top, got %v", top)
	}
}

// TestEngineBatchAtomic checks that a failing batch leaves no partial state.
func TestEngineBatchAtomic(t *testing.T) {
	e := startEngine(t, nil, testEngineOptions())
	err := e.AddBatch(Batch{
		Posts: []*blog.Post{
			{ID: "ok", Author: "ann", Body: "fine"},
			{ID: "", Author: "ann", Body: "broken"}, // empty ID fails
		},
	})
	if err == nil {
		t.Fatal("expected batch error")
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := e.Current().Corpus().NumPosts(); got != 0 {
		t.Fatalf("failed batch leaked %d posts", got)
	}

	// A blogger with an invalid friend list fails before any stub lands.
	err = e.AddBatch(Batch{
		Bloggers: []*blog.Blogger{{ID: "x", Friends: []blog.BloggerID{"y", ""}}},
	})
	if err == nil {
		t.Fatal("expected error for empty friend ID")
	}
	// A comment on an unknown post must not leave the commenter stub.
	if err := e.AddBatch(Batch{Comments: []BatchComment{{Post: "no-such-post", Comment: blog.Comment{Commenter: "newbie"}}}}); err == nil {
		t.Fatal("expected error for unknown post")
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := e.Current().Corpus().NumBloggers(); got != 0 {
		t.Fatalf("rejected mutations leaked %d stub bloggers", got)
	}

	if err := e.AddBatch(Batch{
		Bloggers: []*blog.Blogger{{ID: "bob", Name: "Bob"}},
		Posts:    []*blog.Post{{ID: "p1", Author: "bob", Body: "batch post"}},
		Comments: []BatchComment{{Post: "p1", Comment: blog.Comment{Commenter: "ann", Text: "nice"}}},
		Links:    []blog.Link{{From: "ann", To: "bob"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := e.Current().Corpus()
	if cms := c.Post("p1").Comments; c.NumPosts() != 1 || len(c.Links()) != 1 || len(cms) != 1 || cms[0].Commenter != "ann" {
		t.Fatal("batch did not apply fully")
	}
}

// TestEngineClose checks shutdown folds pending mutations into a final
// snapshot and rejects writes afterwards.
func TestEngineClose(t *testing.T) {
	e, err := NewEngine(nil, EngineOptions{FlushEvery: 1 << 20, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddBatch(Batch{Posts: []*blog.Post{{ID: "p1", Author: "ann", Body: "last words"}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Current().Corpus().NumPosts(); got != 1 {
		t.Fatalf("close lost pending mutation: %d posts", got)
	}
	if err := e.AddBatch(Batch{Posts: []*blog.Post{{ID: "p2", Author: "ann", Body: "too late"}}}); err == nil {
		t.Fatal("write after Close must fail")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStreamingCrawl feeds a streaming crawl straight into a live
// engine (the crawler.Sink wiring) and checks the engine converges to the
// same corpus a one-shot Crawl would have produced.
func TestEngineStreamingCrawl(t *testing.T) {
	corpus := synthCorpus(t, 84, 30, 150)
	ts := httptest.NewServer(blogserver.New(corpus))
	t.Cleanup(ts.Close)
	seed := corpus.BloggerIDs()[0]

	cr := crawler.New(crawler.Config{Workers: 4, Radius: 100}, nil)
	oneShot, _, err := cr.Crawl(context.Background(), ts.URL, seed)
	if err != nil {
		t.Fatal(err)
	}

	e := startEngine(t, nil, testEngineOptions())
	if _, err := cr.Stream(context.Background(), ts.URL, seed, e); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := e.Current().Corpus()
	if c.NumBloggers() != len(oneShot.Bloggers) || c.NumPosts() != len(oneShot.Posts) ||
		len(c.Links()) != len(oneShot.Links) {
		t.Fatalf("streamed %d/%d/%d, one-shot %d/%d/%d",
			c.NumBloggers(), c.NumPosts(), len(c.Links()),
			len(oneShot.Bloggers), len(oneShot.Posts), len(oneShot.Links))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Re-streaming the same crawl is idempotent (dup posts and links skip).
	if _, err := cr.Stream(context.Background(), ts.URL, seed, e); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	c2 := e.Current().Corpus()
	if c2.NumPosts() != c.NumPosts() || len(c2.Links()) != len(c.Links()) {
		t.Fatal("re-streaming the same crawl duplicated data")
	}
}

// TestEngineCachedFlushReuse pins the incremental-flush contract: after a
// small live batch, the flush must serve every unchanged post's
// tokenization and posterior from the engine's analysis cache, and skip
// the PageRank solve outright while the link graph is unchanged.
func TestEngineCachedFlushReuse(t *testing.T) {
	// Huge debounce thresholds so the only flushes are this test's explicit
	// Refresh calls — the counters below are then exact.
	e := startEngine(t, synthCorpus(t, 83, 30, 200), EngineOptions{
		FlushEvery:    1 << 20,
		FlushInterval: time.Hour,
	})
	initialPosts := e.Current().Corpus().NumPosts()
	base := e.Current().Corpus().BloggerIDs()

	for i := 0; i < 10; i++ {
		pid := blog.PostID(fmt.Sprintf("reuse-%d", i))
		if err := e.AddBatch(Batch{Posts: []*blog.Post{{
			ID: pid, Author: base[i%5],
			Body: fmt.Sprintf("incremental coverage of the art fair, part %d", i),
		}}}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddBatch(Batch{Comments: []BatchComment{{Post: pid, Comment: blog.Comment{Commenter: base[(i+2)%len(base)], Text: "agree, superb"}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := e.Status()
	if st.ReusedNovelty != initialPosts {
		t.Fatalf("flush re-tokenized unchanged posts: reused %d, want %d", st.ReusedNovelty, initialPosts)
	}
	if st.ReusedPosteriors != initialPosts {
		t.Fatalf("flush re-classified unchanged posts: reused %d, want %d", st.ReusedPosteriors, initialPosts)
	}
	if !st.PageRankSkipped {
		t.Fatal("posts and comments do not touch the link graph; PageRank must be skipped")
	}

	// A link mutation invalidates the cached GL vector.
	if err := e.AddBatch(Batch{Links: []blog.Link{{From: "reuse-fresh-blogger", To: base[0]}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Status().PageRankSkipped {
		t.Fatal("a new link must force the PageRank solve to re-run")
	}
}

// TestEngineConcurrentIngestWithCachedFlushes hammers the engine with
// concurrent ingestion AND concurrent forced refreshes, so the analysis
// cache is exercised back-to-back while the corpus mutates underneath
// (run with -race). The final snapshot must still match a cold analysis.
func TestEngineConcurrentIngestWithCachedFlushes(t *testing.T) {
	e := startEngine(t, synthCorpus(t, 84, 25, 120), testEngineOptions())
	base := e.Current().Corpus().BloggerIDs()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := e.Refresh(context.Background()); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	const ingesters, perIngester = 3, 20
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perIngester; i++ {
				pid := blog.PostID(fmt.Sprintf("cc-%d-%d", g, i))
				if err := e.AddBatch(Batch{Posts: []*blog.Post{{
					ID: pid, Author: base[(g*3+i)%len(base)],
					Body: fmt.Sprintf("goroutine %d files report %d on medicine and travel", g, i),
				}}}); err != nil {
					errs <- err
					return
				}
				if err := e.AddBatch(Batch{Comments: []BatchComment{{Post: pid, Comment: blog.Comment{Commenter: base[(g+i)%len(base)], Text: "love it"}}}}); err != nil {
					errs <- err
					return
				}
				if i%5 == 0 {
					if err := e.AddBatch(Batch{Links: []blog.Link{{From: base[(g+i)%len(base)], To: blog.BloggerID(fmt.Sprintf("cc-hub-%d", g))}}}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	deadline := time.After(30 * time.Second)
	for {
		st := e.Status()
		if st.TotalMutations >= uint64(ingesters*perIngester*2) {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("timed out at %d mutations", st.TotalMutations)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	warm := e.Current()
	if err := warm.Corpus().Validate(); err != nil {
		t.Fatal(err)
	}
	cold := coldSystem(t, warm.Corpus(), Options{
		Classifier: warm.Classifier(),
		Influence:  e.opts.Influence,
	})
	for b, s := range cold.Result().BloggerScores {
		if math.Abs(warm.Result().BloggerScores[b]-s) > 1e-9 {
			t.Fatalf("cached flush diverged for %s: %v vs %v", b, warm.Result().BloggerScores[b], s)
		}
	}
}

// TestEngineConcurrentLinkEpochCSR races link-graph churn against forced
// and background flushes while readers consume the cached CSR view of
// whatever snapshot is current: every AddLink (and every stub blogger it
// admits) bumps the link epoch, every flush freezes a snapshot and either
// reuses or rebuilds the per-epoch CSR, and the readers run dense PageRank
// sweeps over views the engine is concurrently superseding. Run with -race.
func TestEngineConcurrentLinkEpochCSR(t *testing.T) {
	e := startEngine(t, synthCorpus(t, 85, 25, 100), testEngineOptions())
	base := e.Current().Corpus().BloggerIDs()

	var writers, loopers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)

	const linkers, perLinker = 3, 40
	for g := 0; g < linkers; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perLinker; i++ {
				from := base[(g*7+i)%len(base)]
				to := blog.BloggerID(fmt.Sprintf("csr-hub-%d-%d", g, i%6))
				if err := e.AddBatch(Batch{Links: []blog.Link{{From: from, To: to}}}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	loopers.Add(1)
	go func() {
		defer loopers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := e.Refresh(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		loopers.Add(1)
		go func() {
			defer loopers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Current()
				csr := s.Corpus().LinkCSR()
				if err := csr.Validate(); err != nil {
					errs <- err
					return
				}
				res := linkrank.PageRankCSR(csr, linkrank.Options{
					MaxIter: 5, Epsilon: linkrank.ExplicitZero,
				})
				if len(res.Scores) != csr.NumNodes() {
					errs <- fmt.Errorf("csr reader: %d scores for %d nodes", len(res.Scores), csr.NumNodes())
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	loopers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Fold everything in, then force one more flush over the unchanged
	// link graph: the GL cache must recognize the epoch and skip PageRank.
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := e.Status()
	if !st.PageRankSkipped {
		t.Fatal("flush over an unchanged link graph must skip PageRank")
	}
	final := e.Current().Corpus()
	if err := final.Validate(); err != nil {
		t.Fatal(err)
	}
	csr := final.LinkCSR()
	if csr.NumNodes() != final.NumBloggers() {
		t.Fatalf("final CSR has %d nodes, corpus %d bloggers", csr.NumNodes(), final.NumBloggers())
	}
	if want := len(final.Links()); csr.NumEdges() != want {
		t.Fatalf("final CSR has %d edges, corpus records %d", csr.NumEdges(), want)
	}
}
