package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/query"
	"mass/internal/subs"
	"mass/internal/wal"
)

// EngineOptions configures a live Engine.
type EngineOptions struct {
	// Options are the analysis options, as for FromCorpus. When
	// Options.Influence.Workers is zero the engine raises it to
	// runtime.GOMAXPROCS(0) so the classifier pass over new posts runs on a
	// bounded worker pool instead of serially.
	Options
	// FlushEvery re-analyzes after this many mutations have accumulated.
	// Default 64.
	FlushEvery int
	// FlushInterval re-analyzes pending mutations at least this often, even
	// below the FlushEvery threshold. Default 2s.
	FlushInterval time.Duration
	// Durability enables write-ahead logging, checkpointing, and crash
	// recovery when its Dir is set. Zero value = in-memory only.
	Durability DurabilityOptions
}

func (o EngineOptions) withDefaults() EngineOptions {
	o.Options = o.Options.withDefaults()
	if o.Influence.Workers == 0 {
		o.Influence.Workers = runtime.GOMAXPROCS(0)
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = 64
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 2 * time.Second
	}
	return o
}

// Snapshot is one published generation of the analyzed blogosphere: an
// immutable System plus bookkeeping about how it was produced. Queries hold
// a Snapshot for as long as they need a consistent view; the engine swaps
// in new generations underneath without disturbing them.
type Snapshot struct {
	*System
	// Seq is the analysis generation, starting at 1 for the initial build.
	Seq uint64
	// Mutations is the total number of mutations folded in up to this
	// generation.
	Mutations uint64
	// Elapsed is how long the re-analysis behind this snapshot took.
	Elapsed time.Duration
}

// ETag formats the snapshot's generation as a strong HTTP entity tag.
// Every read served from one snapshot is answerable by this single
// validator: the corpus and analysis behind a generation are immutable, so
// a response for a given URL can only change when Seq moves.
func (s *Snapshot) ETag() string {
	return fmt.Sprintf(`"mass-seq-%d"`, s.Seq)
}

// EngineStatus is a point-in-time health report (the /api/engine payload).
type EngineStatus struct {
	Seq              uint64        `json:"seq"`
	Pending          int           `json:"pending"`
	TotalMutations   uint64        `json:"totalMutations"`
	Bloggers         int           `json:"bloggers"`
	Posts            int           `json:"posts"`
	Links            int           `json:"links"`
	LastAnalysis     time.Duration `json:"lastAnalysisNs"`
	Iterations       int           `json:"iterations"`
	Converged        bool          `json:"converged"`
	ReusedPosteriors int           `json:"reusedPosteriors"`
	// ReusedNovelty / ReusedSentiments / PageRankSkipped report how much of
	// the last flush was served from the analysis cache: posts whose
	// tokenization was reused, comments whose sentiment was reused, and
	// whether the GL PageRank solve was skipped outright.
	ReusedNovelty    int  `json:"reusedNovelty"`
	ReusedSentiments int  `json:"reusedSentiments"`
	PageRankSkipped  bool `json:"pageRankSkipped"`
	// Cumulative delta-solver counters since the engine started:
	// PageRankDelta counts flushes whose GL vector was advanced by the
	// incremental push solver, PageRankFallback counts flushes where a push
	// state existed but a full warm sweep ran instead, and PageRankPushed
	// totals the node pushes performed by the delta solver.
	PageRankDelta    uint64 `json:"pageRankDelta"`
	PageRankFallback uint64 `json:"pageRankFallback"`
	PageRankPushed   uint64 `json:"pageRankPushed"`
	// Durability counters (all zero/-1-clean when durability is off):
	// WALRecords is the lifetime record count of the data directory,
	// WALSyncs the fsyncs issued by this process, Checkpoints the snapshots
	// written by this process, RecoveredRecords the log-tail records
	// replayed at boot, and RecoveryTruncatedAt the byte offset at which
	// boot recovery cut a torn or corrupt log tail (-1 = log was clean).
	WALRecords          uint64 `json:"walRecords"`
	WALSyncs            uint64 `json:"walSyncs"`
	Checkpoints         uint64 `json:"checkpoints"`
	RecoveredRecords    int    `json:"recoveredRecords"`
	RecoveryTruncatedAt int64  `json:"recoveryTruncatedAt"`
	Closed              bool   `json:"closed"`
	// Continuous-query counters from the subscription hub: resident
	// standing subscriptions, diff events pushed into subscriber queues,
	// events coalesced away by drop-to-latest backpressure, and how many
	// per-subscription evaluations went through the incremental path vs
	// fell back to a full re-execution.
	Subscribers       int    `json:"subscribers"`
	PushedDiffs       uint64 `json:"pushedDiffs"`
	DroppedDiffs      uint64 `json:"droppedDiffs"`
	IncrementalEvals  uint64 `json:"incrementalEvals"`
	FullEvalFallbacks uint64 `json:"fullEvalFallbacks"`
	// LastError is the most recent re-analysis failure ("" when the last
	// attempt succeeded). Failed analyses keep their mutations pending, so
	// the flusher retries them on the next tick.
	LastError string `json:"lastError,omitempty"`
}

// Engine is the live serving core: it owns a mutable corpus behind an
// ingestion API and publishes immutable, atomically swapped Snapshots for
// the query side. Reads (Current) are lock-free; writes take a short
// mutex only to apply the mutation, never to analyze. Re-analysis is
// debounced — it runs on a background goroutine after FlushEvery mutations
// or FlushInterval elapsed, warm-started from the previous generation so
// incremental batches converge in a handful of sweeps.
//
// Unknown authors, commenters and link endpoints are admitted as stub
// bloggers (ID only), mirroring what a live crawl knows about a reference
// before fetching it; a later AddBlogger/IngestPage enriches the stub.
type Engine struct {
	opts EngineOptions
	cl   classify.Classifier
	an   *influence.Analyzer
	// cache carries per-entity analysis facets (tokenization, novelty
	// shingles, classifier posteriors, comment sentiment, the PageRank
	// vector) across flushes, so a re-analysis only pays for the delta.
	// It is touched exclusively under analyzeSem; stale entries evict
	// automatically when posts disappear from the corpus.
	cache *influence.Cache
	// qcache is the query memo shared across generations: entries are
	// keyed by (seq, normalized query), and storing a result for a new
	// generation evicts the stale one's entries.
	qcache *query.Cache
	// hub fans published generations out to standing subscriptions. It is
	// created after the initial analysis (so registrations always have a
	// generation to evaluate against) and fed from publishWarm.
	hub *subs.Hub

	snap atomic.Pointer[Snapshot]

	mu      sync.Mutex // guards corpus, pending, total, closed, lastErr
	corpus  *blog.Corpus
	pending int
	total   uint64
	closed  bool
	lastErr error

	// analyzeSem serializes re-analysis (flusher vs Refresh); a channel
	// rather than a mutex so Refresh can give up when its context expires.
	analyzeSem chan struct{}

	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	// Cumulative GL delta-solver counters, accumulated at publish time
	// from each flush's Result. Atomics so Status can read them without
	// taking analyzeSem.
	prDelta    atomic.Uint64 // flushes that took the incremental push path
	prFallback atomic.Uint64 // flushes that fell back to a full warm sweep
	prPushed   atomic.Uint64 // total node pushes across all delta flushes

	// Durability state. wal is nil when durability is disabled. walIdx (the
	// index of the last record appended by this engine) is guarded by mu —
	// it advances under the same lock as the corpus mutation it logs, so a
	// corpus frozen under mu is exactly the state at walIdx. lastCkpt and
	// hasCkpt are touched only under analyzeSem; seq0, ckptEvery, recovered
	// and recTruncated are fixed at construction.
	wal          *wal.Log
	ckptEvery    int
	walIdx       uint64
	lastCkpt     uint64
	hasCkpt      bool
	ckpts        atomic.Uint64
	recovered    int   // WAL tail records replayed at boot
	recTruncated int64 // byte offset recovery truncated at; -1 = clean
	seq0         uint64
}

// NewEngine builds an engine over an initial corpus (nil means start
// empty), runs the initial analysis synchronously so Current never returns
// nil, and starts the background flusher. Callers must Close the engine to
// stop it.
//
// With durability enabled, the data directory is recovered first; when it
// holds any durable state, that state replaces the provided initial corpus
// (the preload only seeds the very first boot).
func NewEngine(c *blog.Corpus, opts EngineOptions) (*Engine, error) {
	opts = opts.withDefaults()
	if c == nil {
		c = blog.NewCorpus()
	}
	cl, err := opts.buildClassifier()
	if err != nil {
		return nil, err
	}
	an, err := influence.NewAnalyzer(opts.Influence, cl)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:         opts,
		cl:           cl,
		an:           an,
		cache:        influence.NewCache(),
		qcache:       query.NewCache(),
		corpus:       c,
		analyzeSem:   make(chan struct{}, 1),
		kick:         make(chan struct{}, 1),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		recTruncated: -1,
	}
	var prev *influence.Result
	if opts.Durability.Enabled() {
		prev, err = e.openDurable(opts.Durability)
		if err != nil {
			return nil, err
		}
	}
	if err := e.rebuild(prev); err != nil {
		if e.wal != nil {
			e.wal.Close()
		}
		return nil, err
	}
	if err := e.bootCheckpoint(); err != nil {
		e.wal.Close()
		return nil, err
	}
	s := e.snap.Load()
	e.hub = subs.NewHub(subs.Generation{Seq: s.Seq, Corpus: s.Corpus(), Result: s.Result()}, subs.Options{})
	go e.flusher()
	return e, nil
}

// Subscriptions is the continuous-query hub: standing subscriptions
// registered here receive an incremental result diff for every
// generation the engine publishes.
func (e *Engine) Subscriptions() *subs.Hub { return e.hub }

// Current returns the latest published snapshot. It never blocks and never
// returns nil.
func (e *Engine) Current() *Snapshot { return e.snap.Load() }

// Status reports the engine's health counters.
func (e *Engine) Status() EngineStatus {
	e.mu.Lock()
	pending, total, closed := e.pending, e.total, e.closed
	bloggers, posts, links := len(e.corpus.Bloggers), len(e.corpus.Posts), len(e.corpus.Links)
	lastErr := ""
	if e.lastErr != nil {
		lastErr = e.lastErr.Error()
	}
	e.mu.Unlock()
	s := e.Current()
	st := EngineStatus{
		Seq:                 s.Seq,
		Pending:             pending,
		TotalMutations:      total,
		Bloggers:            bloggers,
		Posts:               posts,
		Links:               links,
		LastAnalysis:        s.Elapsed,
		Iterations:          s.Result().Iterations,
		Converged:           s.Result().Converged,
		ReusedPosteriors:    s.Result().ReusedPosteriors,
		ReusedNovelty:       s.Result().ReusedNovelty,
		ReusedSentiments:    s.Result().ReusedSentiments,
		PageRankSkipped:     s.Result().PageRankSkipped,
		PageRankDelta:       e.prDelta.Load(),
		PageRankFallback:    e.prFallback.Load(),
		PageRankPushed:      e.prPushed.Load(),
		Checkpoints:         e.ckpts.Load(),
		RecoveredRecords:    e.recovered,
		RecoveryTruncatedAt: e.recTruncated,
		Closed:              closed,
		LastError:           lastErr,
	}
	if e.hub != nil {
		hs := e.hub.Stats()
		st.Subscribers = hs.Subscribers
		st.PushedDiffs = hs.PushedDiffs
		st.DroppedDiffs = hs.DroppedDiffs
		st.IncrementalEvals = hs.IncrementalEvals
		st.FullEvalFallbacks = hs.FullEvalFallbacks
	}
	if e.wal != nil {
		ws := e.wal.Stats()
		st.WALRecords = ws.Records
		st.WALSyncs = ws.Syncs
	}
	return st
}

// --------------------------------------------------------------- mutation

// ErrClosed is returned by every mutation path once the engine has been
// closed or killed. The cluster supervisor matches it to classify a
// rejected write as transient (the shard is restarting) rather than bad.
var ErrClosed = errors.New("core: engine is closed")

// mutate applies fn to the corpus under the write lock. fn reports how
// many mutations it actually applied (deduplicated re-deliveries count
// zero, so idempotent re-crawls don't trigger pointless re-analyses);
// reaching the debounce threshold kicks the flusher.
//
// fn stages the ops it applied on w, which is nil (a no-op sink) when
// durability is off. Successful ops are appended to the WAL before mutate
// returns, still under the write lock, so log order is exactly apply order
// and a corpus frozen under the lock matches the WAL prefix at walIdx. An
// append failure is returned to the caller — the mutation is applied in
// memory but is NOT durable, and the WAL's sticky fail-stop makes every
// later mutation fail too, so the divergence cannot silently grow.
func (e *Engine) mutate(fn func(c *blog.Corpus, w *wal.Batch) (int, error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	var w *wal.Batch
	if e.wal != nil {
		w = &wal.Batch{}
	}
	n, err := fn(e.corpus, w)
	if err != nil {
		return err
	}
	if w.Len() > 0 {
		if err := e.wal.Append(w.Ops()...); err != nil {
			e.lastErr = err
			return err
		}
		e.walIdx += uint64(w.Len())
	}
	e.pending += n
	e.total += uint64(n)
	if e.pending >= e.opts.FlushEvery {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// ensureBlogger admits id as a stub when unknown.
func ensureBlogger(c *blog.Corpus, id blog.BloggerID) error {
	if id == "" {
		return fmt.Errorf("core: empty blogger ID")
	}
	if _, ok := c.Bloggers[id]; ok {
		return nil
	}
	return c.AddBlogger(&blog.Blogger{ID: id})
}

// EnsureBlogger admits id as a stub blogger when unknown and is a no-op
// when the blogger already exists. The cluster router uses it to pre-admit
// the endpoints of cross-shard links on their owner shards before the edge
// itself goes to the boundary set.
func (e *Engine) EnsureBlogger(id blog.BloggerID) error {
	return e.mutate(func(c *blog.Corpus, w *wal.Batch) (int, error) {
		if _, ok := c.Bloggers[id]; ok {
			return 0, nil
		}
		if err := ensureBlogger(c, id); err != nil {
			return 0, err
		}
		w.Blogger(&blog.Blogger{ID: id})
		return 1, nil
	})
}

// AddBlogger inserts or enriches a blogger profile.
func (e *Engine) AddBlogger(b *blog.Blogger) error {
	return e.mutate(func(c *blog.Corpus, w *wal.Batch) (int, error) {
		if err := validateBlogger(b); err != nil {
			return 0, err
		}
		for _, f := range b.Friends {
			if err := ensureBlogger(c, f); err != nil {
				return 0, err
			}
		}
		if err := c.UpsertBlogger(b); err != nil {
			return 0, err
		}
		w.Blogger(b)
		return 1, nil
	})
}

// validateBlogger checks everything that could make the blogger-upsert
// path fail, before any stub is admitted.
func validateBlogger(b *blog.Blogger) error {
	if b == nil || b.ID == "" {
		return fmt.Errorf("core: blogger must have a non-empty ID")
	}
	for _, f := range b.Friends {
		if f == "" {
			return fmt.Errorf("core: blogger %q has an empty friend ID", b.ID)
		}
	}
	return nil
}

// AddPost ingests a new post. The author and commenters are admitted as
// stubs when unknown; a duplicate post ID is an error.
func (e *Engine) AddPost(p *blog.Post) error {
	return e.mutate(func(c *blog.Corpus, w *wal.Batch) (int, error) {
		if err := addPost(c, p); err != nil {
			return 0, err
		}
		w.Post(p)
		return 1, nil
	})
}

// validatePost checks everything that could make addPost fail, before any
// stub is admitted, so a rejected post leaves no partial state.
func validatePost(c *blog.Corpus, p *blog.Post) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("core: post must have a non-empty ID")
	}
	if p.Author == "" {
		return fmt.Errorf("core: post %q has an empty author", p.ID)
	}
	if _, dup := c.Posts[p.ID]; dup {
		return fmt.Errorf("core: duplicate post %q", p.ID)
	}
	for i, cm := range p.Comments {
		if cm.Commenter == "" {
			return fmt.Errorf("core: post %q comment %d has an empty commenter", p.ID, i)
		}
	}
	return nil
}

func addPost(c *blog.Corpus, p *blog.Post) error {
	if err := validatePost(c, p); err != nil {
		return err
	}
	if err := ensureBlogger(c, p.Author); err != nil {
		return err
	}
	for _, cm := range p.Comments {
		if err := ensureBlogger(c, cm.Commenter); err != nil {
			return err
		}
	}
	return c.AddPost(p)
}

// AddComment ingests a comment on an existing post, admitting the
// commenter as a stub when unknown. The post is checked first so a
// rejected comment leaves no stub behind.
func (e *Engine) AddComment(pid blog.PostID, cm blog.Comment) error {
	return e.mutate(func(c *blog.Corpus, w *wal.Batch) (int, error) {
		if _, ok := c.Posts[pid]; !ok {
			return 0, fmt.Errorf("core: comment on unknown post %q", pid)
		}
		if err := ensureBlogger(c, cm.Commenter); err != nil {
			return 0, err
		}
		if err := c.AddComment(pid, cm); err != nil {
			return 0, err
		}
		w.Comment(pid, &cm)
		return 1, nil
	})
}

// AddLink ingests a hyperlink, admitting unknown endpoints as stubs.
// Re-ingesting an existing link is a no-op (the crawl graph reports most
// edges from both ends).
func (e *Engine) AddLink(from, to blog.BloggerID) error {
	return e.mutate(func(c *blog.Corpus, w *wal.Batch) (int, error) {
		n, err := addLinkStubbed(c, from, to)
		if n > 0 {
			// Deduplicated links are dropped entirely, so they are not
			// logged either — replay reproduces the dedup decision for free.
			w.Link(from, to)
		}
		return n, err
	})
}

// addLinkStubbed admits unknown endpoints as stubs and records the edge
// once, reporting whether it was new. Both endpoints are validated before
// any stub is admitted.
func addLinkStubbed(c *blog.Corpus, from, to blog.BloggerID) (int, error) {
	if from == "" || to == "" {
		return 0, fmt.Errorf("core: link endpoints must be non-empty")
	}
	if from == to {
		return 0, fmt.Errorf("core: self-link %q rejected", from)
	}
	if err := ensureBlogger(c, from); err != nil {
		return 0, err
	}
	if err := ensureBlogger(c, to); err != nil {
		return 0, err
	}
	added, err := c.AddLinkDedup(from, to)
	if err != nil {
		return 0, err
	}
	if !added {
		return 0, nil
	}
	return 1, nil
}

// Batch is a bundle of mutations applied atomically under one lock
// acquisition — the bulk-ingestion variant of the AddX calls.
type Batch struct {
	Bloggers []*blog.Blogger
	Posts    []*blog.Post
	Comments []BatchComment
	Links    []blog.Link
}

// BatchComment targets one post with one comment.
type BatchComment struct {
	Post    blog.PostID
	Comment blog.Comment
}

func (b Batch) size() int {
	return len(b.Bloggers) + len(b.Posts) + len(b.Comments) + len(b.Links)
}

// Size reports how many mutations the batch carries.
func (b Batch) Size() int { return b.size() }

// AddBatch applies every mutation in the batch atomically: either all of
// it lands (counting the mutations actually applied toward the debounce),
// or none does and the first error is returned. Validation is a cheap
// field-level pass — the apply step cannot fail afterwards, so no corpus
// copy or rollback is needed.
func (e *Engine) AddBatch(b Batch) error {
	if b.size() == 0 {
		return nil
	}
	return e.mutate(func(c *blog.Corpus, w *wal.Batch) (int, error) {
		if err := validateBatch(c, b); err != nil {
			return 0, err
		}
		return applyBatch(c, b, w)
	})
}

// validateBatch checks everything that could make applyBatch fail, without
// touching the corpus: empty IDs, duplicate posts (against the corpus and
// within the batch), comments on posts that will not exist, self-links.
// Unknown bloggers never fail — they are admitted as stubs on apply.
func validateBatch(c *blog.Corpus, b Batch) error {
	for _, bl := range b.Bloggers {
		if err := validateBlogger(bl); err != nil {
			return err
		}
	}
	batchPosts := make(map[blog.PostID]bool, len(b.Posts))
	for _, p := range b.Posts {
		if err := validatePost(c, p); err != nil {
			return err
		}
		if batchPosts[p.ID] {
			return fmt.Errorf("core: duplicate post %q", p.ID)
		}
		batchPosts[p.ID] = true
	}
	for _, bc := range b.Comments {
		if bc.Comment.Commenter == "" {
			return fmt.Errorf("core: comment on %q has an empty commenter", bc.Post)
		}
		if _, ok := c.Posts[bc.Post]; !ok && !batchPosts[bc.Post] {
			return fmt.Errorf("core: comment on unknown post %q", bc.Post)
		}
	}
	for _, l := range b.Links {
		if l.From == "" || l.To == "" {
			return fmt.Errorf("core: link endpoints must be non-empty")
		}
		if l.From == l.To {
			return fmt.Errorf("core: self-link %q rejected", l.From)
		}
	}
	return nil
}

// applyBatch lands a validated batch, staging each applied op on w, and
// reports how many mutations it actually applied (deduplicated links count
// zero).
func applyBatch(c *blog.Corpus, b Batch, w *wal.Batch) (int, error) {
	applied := 0
	for _, bl := range b.Bloggers {
		for _, f := range bl.Friends {
			if err := ensureBlogger(c, f); err != nil {
				return applied, err
			}
		}
		if err := c.UpsertBlogger(bl); err != nil {
			return applied, err
		}
		w.Blogger(bl)
		applied++
	}
	for _, p := range b.Posts {
		if err := addPost(c, p); err != nil {
			return applied, err
		}
		w.Post(p)
		applied++
	}
	for i := range b.Comments {
		bc := &b.Comments[i]
		if err := ensureBlogger(c, bc.Comment.Commenter); err != nil {
			return applied, err
		}
		if err := c.AddComment(bc.Post, bc.Comment); err != nil {
			return applied, err
		}
		w.Comment(bc.Post, &bc.Comment)
		applied++
	}
	for _, l := range b.Links {
		n, err := addLinkStubbed(c, l.From, l.To)
		if err != nil {
			return applied, err
		}
		if n > 0 {
			w.Link(l.From, l.To)
		}
		applied += n
	}
	return applied, nil
}

// IngestPage folds one crawled space page into the corpus: the blogger
// profile, its posts (duplicates skipped — re-crawls re-serve old posts),
// and the link edges in both directions. It implements crawler.Sink, so a
// streaming crawl can feed the engine directly.
func (e *Engine) IngestPage(page *blogserver.Page) error {
	if page == nil {
		return fmt.Errorf("core: nil page")
	}
	return e.mutate(func(c *blog.Corpus, w *wal.Batch) (applied int, err error) {
		id := page.Blogger.ID
		existing, known := c.Bloggers[id]
		// A new blogger counts; so does enriching a stub (profiles feed the
		// recommenders). Re-delivering an already-enriched page counts zero.
		enriches := !known || (existing.Name == "" && existing.Profile == "" &&
			(page.Blogger.Name != "" || page.Blogger.Profile != ""))
		b := page.Blogger
		for _, f := range b.Friends {
			if err := ensureBlogger(c, f); err != nil {
				return applied, err
			}
		}
		if err := c.UpsertBlogger(&b); err != nil {
			return applied, err
		}
		// The upsert runs even when it enriches nothing (it may still admit
		// friend stubs), so it is always logged.
		w.Blogger(&b)
		if enriches {
			applied++
		}
		for i := range page.Posts {
			p := page.Posts[i]
			if _, dup := c.Posts[p.ID]; dup {
				continue
			}
			if err := addPost(c, &p); err != nil {
				return applied, err
			}
			w.Post(&p)
			applied++
		}
		for _, target := range page.Links {
			if target == id {
				continue
			}
			n, err := addLinkStubbed(c, id, target)
			if err != nil {
				return applied, err
			}
			if n > 0 {
				w.Link(id, target)
			}
			applied += n
		}
		for _, source := range page.Linkbacks {
			if source == id {
				continue
			}
			n, err := addLinkStubbed(c, source, id)
			if err != nil {
				return applied, err
			}
			if n > 0 {
				w.Link(source, id)
			}
			applied += n
		}
		return applied, nil
	})
}

// --------------------------------------------------------------- analysis

// flusher is the background re-analysis loop: it wakes when the mutation
// threshold kicks it or on the debounce timer, and republishes a snapshot
// whenever mutations are pending.
func (e *Engine) flusher() {
	defer close(e.done)
	ticker := time.NewTicker(e.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.quit:
			return
		case <-e.kick:
		case <-ticker.C:
		}
		e.refresh(false)
	}
}

// refresh re-analyzes if mutations are pending (or force). The corpus is
// snapshotted under the write lock, but the expensive pipeline runs outside
// it, so ingestion continues while the analysis is in flight. On failure
// the consumed mutations are put back in pending so the flusher's next
// tick retries them, and the error is kept for Status.
func (e *Engine) refresh(force bool) error {
	e.analyzeSem <- struct{}{}
	defer func() { <-e.analyzeSem }()
	return e.refreshLocked(force)
}

// refreshLocked is refresh's body; the caller holds analyzeSem.
func (e *Engine) refreshLocked(force bool) error {
	e.mu.Lock()
	if e.pending == 0 && !force {
		e.mu.Unlock()
		return nil
	}
	frozen := e.corpus.Snapshot()
	consumed := e.pending
	total := e.total
	// The WAL index is captured under the same lock as the freeze, so
	// records 1..walIdx are exactly the mutations folded into frozen — the
	// invariant a checkpoint at walIdx depends on.
	walIdx := e.walIdx
	e.pending = 0
	e.mu.Unlock()

	err := e.publish(frozen, total)
	e.mu.Lock()
	if err != nil {
		e.pending += consumed
	}
	e.lastErr = err
	e.mu.Unlock()
	if err == nil {
		e.maybeCheckpoint(frozen, walIdx, total)
	}
	return err
}

// rebuild runs the initial (cold) analysis during NewEngine.
func (e *Engine) rebuild(prev *influence.Result) error {
	e.mu.Lock()
	frozen := e.corpus.Snapshot()
	total := e.total
	e.mu.Unlock()
	return e.publishWarm(frozen, total, prev)
}

func (e *Engine) publish(frozen *blog.Corpus, total uint64) error {
	var prev *influence.Result
	if s := e.snap.Load(); s != nil {
		prev = s.Result()
	}
	return e.publishWarm(frozen, total, prev)
}

// publishWarm analyzes frozen (warm-started from prev) and swaps in the
// new snapshot. total is the mutation count at the moment frozen was
// taken, so Snapshot.Mutations matches the published corpus even when
// more mutations land during the analysis.
func (e *Engine) publishWarm(frozen *blog.Corpus, total uint64, prev *influence.Result) error {
	t0 := time.Now()
	// seq0 is nonzero after recovering a checkpoint, so generation numbers
	// (and with them ETags) keep advancing across restarts instead of
	// resetting and re-validating stale client caches.
	seq := e.seq0 + 1
	if s := e.snap.Load(); s != nil {
		seq = s.Seq + 1
	}
	sys, err := newSystem(frozen, e.opts.Options, e.cl, e.an, prev, e.cache, seq, e.qcache)
	if err != nil {
		return err
	}
	if r := sys.Result(); r != nil {
		if r.PageRankDelta {
			e.prDelta.Add(1)
			e.prPushed.Add(uint64(r.PageRankPushed))
		}
		if r.PageRankFallback {
			e.prFallback.Add(1)
		}
	}
	e.snap.Store(&Snapshot{
		System:    sys,
		Seq:       seq,
		Mutations: total,
		Elapsed:   time.Since(t0),
	})
	if e.hub != nil {
		// Never blocks: the hub's mailbox is latest-wins, so a slow
		// fan-out cannot delay the flush path.
		e.hub.Publish(subs.Generation{Seq: seq, Corpus: frozen, Result: sys.Result()})
	}
	return nil
}

// Refresh forces a synchronous re-analysis of everything ingested so far
// and returns once the new snapshot is published. ctx bounds only the wait
// for an in-flight analysis to finish; once Refresh's own analysis starts
// it runs to completion.
func (e *Engine) Refresh(ctx context.Context) error {
	select {
	case e.analyzeSem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-e.analyzeSem }()
	return e.refreshLocked(true)
}

// Close stops the flusher, folds any pending mutations into a final
// snapshot, and marks the engine read-only. With durability enabled it
// then writes a final checkpoint covering everything ingested and closes
// the WAL, so the next boot recovers from the snapshot alone. Queries
// against the last snapshot keep working after Close.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	<-e.done
	err := e.refresh(false)
	if e.hub != nil {
		e.hub.Shutdown()
	}
	if e.wal != nil {
		e.analyzeSem <- struct{}{}
		e.mu.Lock()
		frozen := e.corpus.Snapshot()
		walIdx := e.walIdx
		total := e.total
		e.mu.Unlock()
		if err == nil && (!e.hasCkpt || walIdx > e.lastCkpt) {
			// Skipped when the final flush failed: the cache then trails the
			// corpus, and the WAL alone already covers every record.
			if cerr := e.checkpointLocked(frozen, walIdx, total); cerr != nil && err == nil {
				err = cerr
			}
		}
		<-e.analyzeSem
		if cerr := e.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Kill tears the engine down without draining: mutations stop accepting
// immediately, the flusher is signalled but NOT awaited (a wedged analysis
// must not wedge the teardown too), no final flush or checkpoint runs, and
// the WAL is closed as-is. Everything the WAL acknowledged is still on
// disk (or in the OS page cache for an in-process restart), so a
// supervisor can re-create the engine from the same directory and recover
// every acknowledged mutation. The last published snapshot stays readable
// after Kill — queries against a quarantined shard serve stale data rather
// than failing. Idempotent, and safe to race with Close.
func (e *Engine) Kill() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	if e.hub != nil {
		e.hub.Shutdown()
	}
	if e.wal != nil {
		e.wal.Close()
	}
}

// DetachCorpus snapshots the engine's corpus — including mutations not yet
// folded into a published analysis snapshot. It works on a closed or
// killed engine (the corpus outlives the teardown), which is exactly the
// supervisor's restart path for an in-memory shard: Kill, detach, seed the
// replacement engine with the detached corpus so no acknowledged mutation
// is lost.
func (e *Engine) DetachCorpus() *blog.Corpus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.corpus.Snapshot()
}

// Durable reports whether this engine writes a WAL.
func (e *Engine) Durable() bool { return e.wal != nil }

// DurabilityErr returns the WAL's sticky fail-stop error, nil while
// durability is healthy or disabled.
func (e *Engine) DurabilityErr() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Err()
}

// ApplyOps replays logged ops into the live engine in order — the spill
// replay path. Each op runs through the same validated mutation helpers as
// live ingest and is re-logged to this engine's own WAL, so replayed state
// is exactly as durable as directly ingested state. Replay is idempotent
// at-least-once: a duplicate post, an identical duplicate comment, or an
// existing link is skipped silently (counted in dropped), so replaying a
// prefix twice — e.g. after a crash mid-replay — converges instead of
// erroring. Ops that fail validation are also dropped (a poison record
// must not wedge the queue forever); only an engine-level failure (closed,
// WAL fail-stop) aborts, reporting how far replay got.
func (e *Engine) ApplyOps(ops []wal.Op) (applied, dropped int, err error) {
	for i := range ops {
		op := &ops[i]
		merr := e.mutate(func(c *blog.Corpus, w *wal.Batch) (int, error) {
			switch op.Kind {
			case wal.OpPost:
				if op.Post != nil {
					if _, dup := c.Posts[op.Post.ID]; dup {
						return 0, errOpDropped
					}
				}
			case wal.OpComment:
				if op.Comment != nil {
					if p, ok := c.Posts[op.PostID]; ok {
						for _, cm := range p.Comments {
							if cm.Commenter == op.Comment.Commenter &&
								cm.Text == op.Comment.Text &&
								cm.Posted.Equal(op.Comment.Posted) {
								return 0, errOpDropped
							}
						}
					}
				}
			case wal.OpLink:
				// addLinkStubbed dedups; n == 0 below covers it.
			}
			n, err := applyOp(c, op)
			if err != nil {
				return 0, err
			}
			if n > 0 {
				w.Append(*op)
			}
			return n, nil
		})
		switch {
		case merr == nil:
			applied++
		case errors.Is(merr, errOpDropped):
			dropped++
		case errors.Is(merr, ErrClosed):
			return applied, dropped, merr
		default:
			if derr := e.DurabilityErr(); derr != nil {
				return applied, dropped, derr
			}
			dropped++
		}
	}
	return applied, dropped, nil
}

// errOpDropped marks a replayed op recognized as already applied.
var errOpDropped = errors.New("core: op already applied")
