package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/query"
	"mass/internal/wal"
)

// EngineOptions configures a live Engine.
type EngineOptions struct {
	// Options are the analysis options, as for FromCorpus. When
	// Options.Influence.Workers is zero the engine raises it to
	// runtime.GOMAXPROCS(0) so the text pass over new posts (tokenize,
	// shingle, classify) runs on a bounded worker pool instead of serially.
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
	// Owns, when set, makes the engine one shard of a cluster: it reports
	// whether the shard owns a blogger, and every snapshot's owned-row
	// mask (Snapshot.Owned) is built from it. nil owns every blogger.
	Owns func(blog.BloggerID) bool
	// OnPublish, when set, runs after every snapshot the engine publishes,
	// the initial one included: the cluster's subscription-hub hook.
	OnPublish func()
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
	// Elapsed is how long the flush behind this snapshot took: the corpus
	// freeze under the write lock (blog.Corpus.Snapshot) plus the
	// re-analysis and publication, not the wait for the lock.
	Elapsed time.Duration

	owns      func(blog.BloggerID) bool
	ownedOnce sync.Once
	owned     *query.Owned
}

// Owned is the generation's owned-row mask over its analysis result's
// blogger rows, built from EngineOptions.Owns on first use and dropped
// with the snapshot. It is nil for an engine that owns every blogger.
func (s *Snapshot) Owned() *query.Owned {
	if s.owns == nil {
		return nil
	}
	s.ownedOnce.Do(func() { s.owned = query.NewOwned(s.Result().Dense().Bloggers, s.owns) })
	return s.owned
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
	// Subscription counters, filled once by Cluster.Status from the
	// cluster's hub (an engine leaves them 0): resident subscriptions,
	// events handed to consumers, and query evaluations (each a full
	// re-run). DroppedDiffs and IncrementalEvals are always 0. All five
	// stay only for the v1 engine payload and perfbench.
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
// before fetching it; a later profile upsert enriches the stub.
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
	go e.flusher()
	return e, nil
}

// Current returns the latest published snapshot. It never blocks and never
// returns nil.
func (e *Engine) Current() *Snapshot { return e.snap.Load() }

// Pending reports how many mutations await the next re-analysis.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending
}

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
	if e.wal != nil {
		ws := e.wal.Stats()
		st.WALRecords = ws.Records
		st.WALSyncs = ws.Syncs
	}
	return st
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
	t0 := time.Now()
	frozen := e.corpus.Snapshot()
	consumed := e.pending
	total := e.total
	// The WAL index is captured under the same lock as the freeze, so
	// records 1..walIdx are exactly the mutations folded into frozen — the
	// invariant a checkpoint at walIdx depends on.
	walIdx := e.walIdx
	e.pending = 0
	e.mu.Unlock()

	err := e.publish(t0, frozen, total)
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
	t0 := time.Now()
	frozen := e.corpus.Snapshot()
	total := e.total
	e.mu.Unlock()
	return e.publishWarm(t0, frozen, total, prev)
}

func (e *Engine) publish(t0 time.Time, frozen *blog.Frozen, total uint64) error {
	var prev *influence.Result
	if s := e.snap.Load(); s != nil {
		prev = s.Result()
	}
	return e.publishWarm(t0, frozen, total, prev)
}

// publishWarm analyzes frozen (warm-started from prev) and swaps in the
// new snapshot. total is the mutation count at the moment frozen was
// taken, so Snapshot.Mutations matches the published corpus even when
// more mutations land during the analysis. t0 is when the freeze began;
// the snapshot's Elapsed is measured from it.
func (e *Engine) publishWarm(t0 time.Time, frozen *blog.Frozen, total uint64, prev *influence.Result) error {
	// seq0 is nonzero after recovering a checkpoint, so generation numbers
	// (and with them ETags) keep advancing across restarts instead of
	// resetting and re-validating stale client caches.
	seq := e.seq0 + 1
	if s := e.snap.Load(); s != nil {
		seq = s.Seq + 1
	}
	sys, err := newSystem(frozen, e.opts.Options, e.cl, e.an, prev, e.cache)
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
		owns:      e.opts.Owns,
	})
	if e.opts.OnPublish != nil {
		e.opts.OnPublish()
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
	if e.wal != nil {
		e.wal.Close()
	}
}

// DetachCorpus copies the engine's corpus (blog.Corpus.Clone, O(corpus))
// — including mutations not yet folded into a published analysis
// snapshot. It works on a closed or killed engine (the corpus outlives the
// teardown), which is exactly the supervisor's restart path for an
// in-memory shard: Kill, detach, seed the replacement engine with the
// detached corpus so no acknowledged mutation is lost.
func (e *Engine) DetachCorpus() *blog.Corpus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.corpus.Clone()
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
