package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"mass/internal/blog"
)

// Options configures a Log.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string
	// FS overrides filesystem access (fault injection). Defaults to the os.
	FS FS
	// SyncEvery fsyncs after this many appended records (group commit).
	// Default 64; 1 means fsync on every append.
	SyncEvery int
	// SyncInterval fsyncs dirty buffers at this cadence from a background
	// goroutine, bounding the data-loss window when traffic is sparse.
	// Default 100ms; negative disables the background sync.
	SyncInterval time.Duration
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size. Default 64 MiB.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS()
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// Stats is a point-in-time view of the log's activity.
type Stats struct {
	// Records is the total number of records ever appended to this log
	// directory (the index of the last record).
	Records uint64
	// Syncs counts fsyncs issued by this process.
	Syncs uint64
}

// Recovered is what Open reconstructed from the directory.
type Recovered struct {
	// Snapshot is the newest decodable checkpoint, nil if none.
	Snapshot *Snapshot
	// Corpus is Snapshot's corpus as a mutable corpus to replay Ops onto,
	// nil without a snapshot. Snapshot.Corpus is a generation of it.
	Corpus *blog.Corpus
	// Ops is the log tail after the snapshot, in append order.
	Ops []Op
	// LastIndex is the index of the last valid record (0 = empty log).
	LastIndex uint64
	// TruncatedAt is the byte offset in TruncatedFile where recovery hit a
	// torn or corrupt frame and stopped; -1 when the log was clean.
	TruncatedAt   int64
	TruncatedFile string
}

// HasState reports whether recovery produced any durable state to restore.
func (r *Recovered) HasState() bool {
	return r != nil && (r.Snapshot != nil || len(r.Ops) > 0)
}

// Log is an append-only segmented WAL with group-commit fsync. All methods
// are safe for concurrent use. Any write or sync failure is sticky: the log
// fails stop, and every later call returns the original error — a
// durability layer that cannot promise durability must stop acknowledging,
// not limp along.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        File   // current segment
	segStart uint64 // first index in current segment
	segBytes int64  // bytes written to current segment (incl. header)
	next     uint64 // index the next appended record will get
	unsynced int    // records appended since last fsync
	dirty    bool
	failed   error
	syncs    uint64
	snapIdx  uint64 // newest snapshot index
	hasSnap  bool
	closed   bool

	// snapMu serializes WriteSnapshot with itself and with Reset. It is
	// held across a snapshot's stream to its file, which mu is not.
	snapMu sync.Mutex

	quit chan struct{}
	done chan struct{}
}

func segName(start uint64) string { return fmt.Sprintf("wal-%016x.seg", start) }
func snapName(idx uint64) string  { return fmt.Sprintf("snap-%016x.snap", idx) }

// Open recovers the directory and returns a log positioned after the last
// valid record, plus what was recovered. A fresh directory yields an empty
// Recovered with LastIndex 0 and TruncatedAt -1.
func Open(opts Options) (*Log, *Recovered, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	rec, snapIdx, hasSnap, err := recoverDir(opts.FS, opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		opts:    opts,
		next:    rec.LastIndex + 1,
		snapIdx: snapIdx,
		hasSnap: hasSnap,
	}
	// Always start a fresh segment rather than appending to a recovered
	// one: the recovered tail may sit in a file whose last frame we cannot
	// trust to be synced, and a clean segment boundary keeps the
	// append-only invariant per file.
	if err := l.openSegmentLocked(l.next); err != nil {
		return nil, nil, err
	}
	if opts.SyncInterval > 0 {
		l.quit = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

// openSegmentLocked creates the segment starting at index start and makes
// its existence durable.
func (l *Log) openSegmentLocked(start uint64) error {
	path := filepath.Join(l.opts.Dir, segName(start))
	f, err := l.opts.FS.Create(path)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := segmentHeader(start)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := l.opts.FS.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f = f
	l.segStart = start
	l.segBytes = int64(len(hdr))
	return nil
}

// Append encodes ops and appends them as one frame per op, assigning
// consecutive indexes. It returns once the records are written to the OS;
// durability follows at the next group-commit sync (SyncEvery/SyncInterval
// or an explicit Sync). Encoding errors leave the log untouched.
func (l *Log) Append(ops ...Op) error {
	if len(ops) == 0 {
		return nil
	}
	var buf []byte
	var payload []byte
	for i := range ops {
		var err error
		payload, err = appendOp(payload[:0], &ops[i])
		if err != nil {
			return err
		}
		if len(payload) > maxRecord {
			return fmt.Errorf("wal: record too large (%d bytes)", len(payload))
		}
		buf = appendFrame(buf, payload)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if _, err := l.f.Write(buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return l.failed
	}
	l.segBytes += int64(len(buf))
	l.next += uint64(len(ops))
	l.unsynced += len(ops)
	l.dirty = true
	if l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) syncLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: sync: %w", err)
		return l.failed
	}
	l.syncs++
	l.unsynced = 0
	l.dirty = false
	return nil
}

// usableLocked reports why the log can take no more writes, if it can't.
func (l *Log) usableLocked() error {
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	return l.failed
}

// Sync fsyncs any buffered records, making every acknowledged append
// durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	return l.syncLocked()
}

// rotateLocked seals the current segment and opens the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.failed = fmt.Errorf("wal: close segment: %w", err)
		return l.failed
	}
	if err := l.openSegmentLocked(l.next); err != nil {
		l.failed = err
		return err
	}
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.failed == nil {
				l.syncLocked() // sticky error surfaces on next Append
			}
			l.mu.Unlock()
		case <-l.quit:
			return
		}
	}
}

// LastIndex returns the index of the last appended record (0 = none yet).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Stats returns activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Records: l.next - 1, Syncs: l.syncs}
}

// Err returns the sticky failure, if the log has failed stop.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Reset truncates the log: every segment and snapshot file in the
// directory is removed and a fresh segment opens at the next index, so
// record indexes stay monotonic across the reset. The spill queue uses it
// to discard records that have been replayed into their destination —
// they are durable there now, and replaying them again on the next boot
// would be wasted (if harmless, thanks to idempotent replay) work.
func (l *Log) Reset() error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.failed = fmt.Errorf("wal: close segment: %w", err)
		return l.failed
	}
	names, err := l.opts.FS.ReadDir(l.opts.Dir)
	if err != nil {
		l.failed = fmt.Errorf("wal: reset: %w", err)
		return l.failed
	}
	for _, name := range names {
		if err := l.opts.FS.Remove(filepath.Join(l.opts.Dir, name)); err != nil {
			l.failed = fmt.Errorf("wal: reset: %w", err)
			return l.failed
		}
	}
	l.hasSnap = false
	l.snapIdx = 0
	l.dirty = false
	l.unsynced = 0
	if err := l.openSegmentLocked(l.next); err != nil {
		l.failed = err
		return err
	}
	return nil
}

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.quit != nil {
		close(l.quit)
		<-l.done
		l.quit = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}
