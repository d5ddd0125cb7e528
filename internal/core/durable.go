package core

import (
	"fmt"
	"time"

	"mass/internal/blog"
	"mass/internal/influence"
	"mass/internal/wal"
)

// DurabilityOptions turns on write-ahead logging and checkpointing for an
// Engine. With a Dir set, every acknowledged mutation is appended to the
// WAL before the call returns (durable at the next group-commit sync), the
// engine periodically checkpoints corpus + analysis warm cache into a
// binary snapshot, and NewEngine recovers snapshot + log tail on boot.
type DurabilityOptions struct {
	// Dir is the data directory. Empty disables durability entirely.
	Dir string
	// SyncEvery / SyncInterval tune the WAL's group commit; zero values
	// take the wal package defaults (64 records, 100ms). Segments rotate
	// at the wal package's default size.
	SyncEvery    int
	SyncInterval time.Duration
	// CheckpointEvery writes a snapshot once this many WAL records have
	// accumulated past the last checkpoint (evaluated after each flush).
	// Default 4096.
	CheckpointEvery int
	// FS overrides filesystem access (fault injection in tests).
	FS wal.FS
}

// Enabled reports whether durability is configured.
func (d DurabilityOptions) Enabled() bool { return d.Dir != "" }

// openDurable opens (and recovers) the WAL directory, replacing the
// engine's corpus with the recovered state when the directory holds any.
// A recovered directory wins over a caller-provided initial corpus: the
// preloaded corpus is a bootstrap convenience for the first boot, while
// the directory is the durable truth afterwards. Returns the warm-start
// Result for the initial analysis (nil for a cold start).
func (e *Engine) openDurable(d DurabilityOptions) (*influence.Result, error) {
	l, rec, err := wal.Open(wal.Options{
		Dir:          d.Dir,
		FS:           d.FS,
		SyncEvery:    d.SyncEvery,
		SyncInterval: d.SyncInterval,
	})
	if err != nil {
		return nil, err
	}
	e.wal = l
	e.ckptEvery = d.CheckpointEvery
	if e.ckptEvery <= 0 {
		e.ckptEvery = 4096
	}
	e.walIdx = rec.LastIndex
	e.recovered = len(rec.Ops)
	e.recTruncated = rec.TruncatedAt
	if !rec.HasState() {
		return nil, nil
	}

	base := blog.NewCorpus()
	var prev *influence.Result
	if rec.Snapshot != nil {
		base = rec.Corpus
		e.cache = influence.RestoreCache(rec.Snapshot.Cache)
		// The snapshot's GL vector was solved against exactly this corpus;
		// bind it before tail replay so a linkless tail keeps the PageRank
		// skip path armed.
		e.cache.BindGL(base)
		prev = influence.WarmResult(rec.Snapshot.Cache)
		e.seq0 = rec.Snapshot.Seq
		e.total = rec.Snapshot.Mutations
		e.lastCkpt = rec.Snapshot.Index
		e.hasCkpt = true
	}
	for i := range rec.Ops {
		n, err := applyOp(base, &rec.Ops[i])
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("core: replay WAL record %d: %w", e.lastCkpt+uint64(i)+1, err)
		}
		e.total += uint64(n)
	}
	e.corpus = base
	return prev, nil
}

// checkpointState assembles the snapshot for the corpus frozen at WAL
// index idx. Caller holds analyzeSem (the cache is quiescent) and has just
// published the analysis of frozen, so cache and published result are both
// consistent with it.
func (e *Engine) checkpointState(frozen *blog.Frozen, idx, total uint64) *wal.Snapshot {
	st := e.cache.ExportState()
	if s := e.snap.Load(); s != nil {
		if r := s.Result(); r != nil {
			dv := r.Dense()
			st.InfBloggers = dv.Bloggers
			st.Influence = dv.Influence
		}
	}
	seq := uint64(0)
	if s := e.snap.Load(); s != nil {
		seq = s.Seq
	}
	return &wal.Snapshot{
		Index:     idx,
		Seq:       seq,
		Mutations: total,
		Corpus:    frozen,
		Cache:     st,
	}
}

// checkpointLocked durably snapshots frozen state at WAL index idx. The
// log is synced first so the snapshot never covers records that could
// still be lost. Caller holds analyzeSem.
func (e *Engine) checkpointLocked(frozen *blog.Frozen, idx, total uint64) error {
	if err := e.wal.Sync(); err != nil {
		return err
	}
	if err := e.wal.WriteSnapshot(e.checkpointState(frozen, idx, total)); err != nil {
		return err
	}
	e.lastCkpt = idx
	e.hasCkpt = true
	e.ckpts.Add(1)
	return nil
}

// maybeCheckpoint checkpoints after a successful flush once CheckpointEvery
// records have accumulated past the last checkpoint. A checkpoint failure
// never fails the flush that triggered it — the WAL still covers every
// record — but it is surfaced through Status.LastError. Caller holds
// analyzeSem.
func (e *Engine) maybeCheckpoint(frozen *blog.Frozen, idx, total uint64) {
	if e.wal == nil || idx < e.lastCkpt+uint64(e.ckptEvery) {
		return
	}
	if err := e.checkpointLocked(frozen, idx, total); err != nil {
		e.mu.Lock()
		e.lastErr = fmt.Errorf("core: checkpoint: %w", err)
		e.mu.Unlock()
	}
}

// bootCheckpoint runs once after the initial analysis: a fresh directory
// given a non-empty preloaded corpus checkpoints immediately, because the
// preload was never written to the WAL and would otherwise not be durable.
// Directories that already hold a checkpoint (or that can be rebuilt by
// replaying the log from scratch) are left untouched, so a plain restart
// does not mutate the data directory. Runs before the flusher starts, so
// no locks are needed.
func (e *Engine) bootCheckpoint() error {
	if e.wal == nil || e.hasCkpt || e.walIdx > 0 {
		return nil
	}
	if len(e.corpus.Bloggers) == 0 && len(e.corpus.Posts) == 0 {
		return nil
	}
	frozen := e.corpus.Snapshot()
	if err := e.checkpointLocked(frozen, e.walIdx, e.total); err != nil {
		return fmt.Errorf("core: initial checkpoint: %w", err)
	}
	return nil
}
