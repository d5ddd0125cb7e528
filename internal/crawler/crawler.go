// Package crawler implements the Crawler Module of MASS (Fig. 2): a
// multi-threaded (worker-pool) crawler over a blog service. Crawling starts
// from a seed blogger and expands through the discovered network — friends,
// commenters and hyperlinks — up to a configurable radius, matching the
// demo's "specify a seed of the crawling ... and the radius of network
// where the crawling is performed".
//
// The crawl is level-synchronous BFS: each depth level is fetched by a pool
// of workers, newly discovered bloggers form the next level. Transient
// fetch failures are retried with backoff; a global rate limit keeps the
// crawler polite.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"mass/internal/blog"
	"mass/internal/blogserver"
)

// Config tunes the crawl.
type Config struct {
	// Workers is the number of concurrent fetchers ("multi-thread crawling
	// technique", paper §III). Default 4.
	Workers int
	// Radius bounds the BFS depth from the seed. Default 2.
	Radius int
	// MaxBloggers caps the total number of spaces fetched. Default 10000.
	MaxBloggers int
	// Retries is the number of re-attempts per space after a failure.
	// Default 2.
	Retries int
	// RetryDelay is the base backoff before the first retry. Subsequent
	// retries back off exponentially (doubling per attempt) with jitter, up
	// to MaxRetryDelay. Default 10ms.
	RetryDelay time.Duration
	// MaxRetryDelay caps the exponential backoff so a long retry ladder
	// never sleeps unboundedly. Default 2s.
	MaxRetryDelay time.Duration
	// RequestTimeout bounds one HTTP request. Default 10s.
	RequestTimeout time.Duration
	// RateLimit, when > 0, caps request starts per second across workers.
	RateLimit int
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Radius == 0 {
		c.Radius = 2
	}
	if c.MaxBloggers == 0 {
		c.MaxBloggers = 10000
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryDelay == 0 {
		c.RetryDelay = 10 * time.Millisecond
	}
	if c.MaxRetryDelay == 0 {
		c.MaxRetryDelay = 2 * time.Second
	}
	if c.MaxRetryDelay < c.RetryDelay {
		c.MaxRetryDelay = c.RetryDelay
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// Stats summarizes a finished crawl.
type Stats struct {
	Fetched   int           // spaces fetched successfully
	Failed    int           // spaces given up on after retries
	Retries   int           // total retry attempts
	Depth     int           // deepest level actually crawled
	Elapsed   time.Duration // wall-clock time
	Truncated bool          // MaxBloggers cap was hit
}

// Crawler fetches blogger spaces from a base URL.
type Crawler struct {
	cfg    Config
	client *http.Client
}

// New builds a crawler. client may be nil for http.DefaultClient semantics
// with the configured timeout.
func New(cfg Config, client *http.Client) *Crawler {
	cfg = cfg.withDefaults()
	if client == nil {
		client = &http.Client{Timeout: cfg.RequestTimeout}
	}
	return &Crawler{cfg: cfg, client: client}
}

// Sink consumes crawled pages one at a time, in BFS discovery order. A
// live ingestion engine implements Sink to be fed directly by a streaming
// crawl (core.Engine.IngestPage); corpusSink below implements it to
// assemble the classic one-shot corpus.
type Sink interface {
	IngestPage(p *blogserver.Page) error
}

// Crawl fetches the blogosphere reachable from seed within the configured
// radius and assembles a corpus. Commenters and link targets outside the
// radius appear as stub bloggers (ID only) so the corpus stays
// referentially intact — exactly what a real crawl knows about them.
func (cr *Crawler) Crawl(ctx context.Context, baseURL string, seed blog.BloggerID) (*blog.Corpus, Stats, error) {
	c := blog.NewCorpus()
	stats, err := cr.Stream(ctx, baseURL, seed, &corpusSink{c: c})
	if err != nil {
		return nil, stats, err
	}
	c.Reindex()
	if err := c.Snapshot().Validate(); err != nil {
		return nil, stats, fmt.Errorf("crawler: crawl produced invalid corpus: %w", err)
	}
	return c, stats, nil
}

// Stream runs the same level-synchronous BFS as Crawl, but hands each
// fetched page to sink instead of accumulating a monolithic corpus — the
// crawl feeds a live system while it is still running. Pages are delivered
// serially (sinks need no internal locking against the crawler) in
// deterministic BFS order. A sink error aborts the crawl.
func (cr *Crawler) Stream(ctx context.Context, baseURL string, seed blog.BloggerID, sink Sink) (Stats, error) {
	start := time.Now()
	var stats Stats

	type fetched struct {
		page *blogserver.Page
		err  error
		id   blog.BloggerID
	}

	visited := map[blog.BloggerID]bool{seed: true}
	level := []blog.BloggerID{seed}
	var limiter *time.Ticker
	if cr.cfg.RateLimit > 0 {
		limiter = time.NewTicker(time.Second / time.Duration(cr.cfg.RateLimit))
		defer limiter.Stop()
	}

	for depth := 0; depth <= cr.cfg.Radius && len(level) > 0; depth++ {
		if stats.Fetched >= cr.cfg.MaxBloggers {
			stats.Truncated = true
			break
		}
		// Fetch the whole level with a bounded worker pool.
		results := make([]fetched, len(level))
		var wg sync.WaitGroup
		sem := make(chan struct{}, cr.cfg.Workers)
		for i, id := range level {
			wg.Add(1)
			go func(i int, id blog.BloggerID) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if limiter != nil {
					select {
					case <-limiter.C:
					case <-ctx.Done():
						results[i] = fetched{id: id, err: ctx.Err()}
						return
					}
				}
				page, err := cr.fetchWithRetry(ctx, baseURL, id, &stats)
				results[i] = fetched{page: page, err: err, id: id}
			}(i, id)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return stats, err
		}

		// Deliver results serially and collect the next level.
		var next []blog.BloggerID
		for _, f := range results {
			if f.err != nil {
				stats.Failed++
				continue
			}
			if stats.Fetched >= cr.cfg.MaxBloggers {
				stats.Truncated = true
				break
			}
			if err := cr.deliver(ctx, sink, f.page, &stats); err != nil {
				if isTransientIngest(err) && ctx.Err() == nil {
					// The sink is shedding load (e.g. a quarantined shard's
					// spill queue saturated) and the retry budget is spent:
					// give up on this page like a failed fetch and keep
					// crawling, instead of aborting the whole stream.
					stats.Failed++
					continue
				}
				return stats, fmt.Errorf("crawler: ingesting %s: %w", f.id, err)
			}
			stats.Fetched++
			stats.Depth = depth
			for _, n := range PageNeighbors(f.page) {
				if !visited[n] {
					visited[n] = true
					next = append(next, n)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		level = next
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// PageNeighbors extracts every blogger a page references — friends,
// commenters, link targets and linkback sources — i.e. the BFS frontier
// contributed by this page.
func PageNeighbors(page *blogserver.Page) []blog.BloggerID {
	id := page.Blogger.ID
	var out []blog.BloggerID
	seen := map[blog.BloggerID]bool{id: true}
	add := func(ref blog.BloggerID) {
		if ref != "" && !seen[ref] {
			seen[ref] = true
			out = append(out, ref)
		}
	}
	for _, f := range page.Blogger.Friends {
		add(f)
	}
	for i := range page.Posts {
		for _, cm := range page.Posts[i].Comments {
			add(cm.Commenter)
		}
	}
	for _, target := range page.Links {
		add(target)
	}
	for _, source := range page.Linkbacks {
		add(source)
	}
	return out
}

// corpusSink accumulates pages into a corpus (the one-shot Crawl mode).
type corpusSink struct {
	c *blog.Corpus
}

func (s *corpusSink) IngestPage(p *blogserver.Page) error {
	return integrate(s.c, p)
}

// retryDelay computes the backoff before retry attempt (1-based):
// RetryDelay doubled per attempt, capped at MaxRetryDelay, then jittered
// into [d/2, d] so a fleet of workers hammering one recovering server
// doesn't retry in lockstep.
func (cr *Crawler) retryDelay(attempt int) time.Duration {
	d := cr.cfg.RetryDelay
	for i := 1; i < attempt && d < cr.cfg.MaxRetryDelay; i++ {
		d *= 2
	}
	if d > cr.cfg.MaxRetryDelay {
		d = cr.cfg.MaxRetryDelay
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(rand.Int63n(int64(half)+1))
	}
	return d
}

// deliver hands one page to the sink, retrying transient ingest
// failures with the same capped exponential backoff fetches use. A
// non-transient sink error (validation, closed engine) returns
// immediately; a transient one retries until the budget is spent and
// then reports the last error, leaving the abort-or-continue decision
// to the caller.
func (cr *Crawler) deliver(ctx context.Context, sink Sink, page *blogserver.Page, stats *Stats) error {
	var lastErr error
	for attempt := 0; attempt <= cr.cfg.Retries; attempt++ {
		if attempt > 0 {
			statsAddRetry(stats)
			timer := time.NewTimer(cr.retryDelay(attempt))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
		}
		err := sink.IngestPage(page)
		if err == nil {
			return nil
		}
		lastErr = err
		if !isTransientIngest(err) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// isTransientIngest matches sink errors that advertise themselves as
// retryable through a Temporary() bool method — the structural contract
// cluster overload errors satisfy — without coupling the crawler to any
// particular sink implementation.
func isTransientIngest(err error) bool {
	var tmp interface{ Temporary() bool }
	return errors.As(err, &tmp) && tmp.Temporary()
}

// fetchWithRetry downloads and parses one space page.
func (cr *Crawler) fetchWithRetry(ctx context.Context, baseURL string, id blog.BloggerID, stats *Stats) (*blogserver.Page, error) {
	var lastErr error
	for attempt := 0; attempt <= cr.cfg.Retries; attempt++ {
		if attempt > 0 {
			statsAddRetry(stats)
			timer := time.NewTimer(cr.retryDelay(attempt))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			}
		}
		page, err := cr.fetchOnce(ctx, baseURL, id)
		if err == nil {
			return page, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

var retryMu sync.Mutex

func statsAddRetry(stats *Stats) {
	retryMu.Lock()
	stats.Retries++
	retryMu.Unlock()
}

func (cr *Crawler) fetchOnce(ctx context.Context, baseURL string, id blog.BloggerID) (*blogserver.Page, error) {
	url := fmt.Sprintf("%s/space/%s", baseURL, id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cr.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("crawler: GET %s: status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return blogserver.ParsePage(data)
}

// integrate merges a fetched page into the corpus: the page's blogger is
// upserted (enriching a stub created earlier by a reference), every
// blogger it references is admitted as a stub, and its new posts and link
// edges are added.
func integrate(c *blog.Corpus, page *blogserver.Page) error {
	id := page.Blogger.ID
	if err := c.UpsertBlogger(&page.Blogger); err != nil {
		return err
	}
	ensure := func(ref blog.BloggerID) error {
		if _, ok := c.Bloggers[ref]; ok {
			return nil
		}
		return c.AddBlogger(&blog.Blogger{ID: ref})
	}
	for _, f := range page.Blogger.Friends {
		if err := ensure(f); err != nil {
			return err
		}
	}
	for i := range page.Posts {
		p := page.Posts[i]
		for _, cm := range p.Comments {
			if err := ensure(cm.Commenter); err != nil {
				return err
			}
		}
		if _, dup := c.Posts[p.ID]; !dup {
			if err := c.AddPost(&p); err != nil {
				return err
			}
		}
	}
	for _, target := range page.Links {
		if target == id {
			continue
		}
		if err := ensure(target); err != nil {
			return err
		}
		if _, err := c.AddLinkDedup(id, target); err != nil {
			return err
		}
	}
	// Linkbacks discover the bloggers pointing here and record their edges.
	for _, source := range page.Linkbacks {
		if source == id {
			continue
		}
		if err := ensure(source); err != nil {
			return err
		}
		if _, err := c.AddLinkDedup(source, id); err != nil {
			return err
		}
	}
	return nil
}
