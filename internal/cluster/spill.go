package cluster

import (
	"errors"
	"fmt"
	"time"

	"mass/internal/wal"
)

// errSpillFull marks a spill queue at capacity; the supervised ingest path
// converts it into an OverloadError for the API layer.
var errSpillFull = errors.New("cluster: spill queue full")

// OverloadError is returned by routed ingest when a shard is down AND its
// spill queue is saturated — the cluster can neither apply nor buffer the
// write, so the caller must back off and retry. The API layer maps it to
// 429 with a Retry-After header; the crawler treats it as a transient
// delivery failure.
type OverloadError struct {
	Shard      int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("cluster: shard %d overloaded, retry in %s", e.Shard, e.RetryAfter)
}

// Temporary marks the condition retryable (the crawler's transient-error
// contract, matched structurally so callers need not import this package).
func (e *OverloadError) Temporary() bool { return true }

// spillQueue buffers acknowledged ingest for a shard that cannot take
// writes right now, bounded so a dead shard cannot grow memory without
// limit. With a WAL behind it every enqueued op is synced before the
// ingest is acknowledged, so spill-then-crash loses nothing: the queue
// recovers on boot and the shard starts out Recovering until it drains.
type spillQueue struct {
	limit int
	log   *wal.Log // nil for an in-memory cluster
	ops   []wal.Op // pending, in arrival order
}

// newSpillQueue opens (and recovers) a spill queue. dir == "" keeps it
// purely in memory. A non-empty recovered tail means the process died
// before the last replay finished; the caller must start the shard in the
// Recovering state and drain it.
func newSpillQueue(limit int, dir string, fs wal.FS) (*spillQueue, error) {
	q := &spillQueue{limit: limit}
	if dir == "" {
		return q, nil
	}
	l, rec, err := wal.Open(wal.Options{Dir: dir, FS: fs})
	if err != nil {
		return nil, fmt.Errorf("cluster: spill wal: %w", err)
	}
	q.log = l
	q.ops = append(q.ops, rec.Ops...)
	return q, nil
}

// enqueue buffers ops, durably when the queue is WAL-backed. All-or-
// nothing against the limit: a batch that would overflow is rejected
// whole, so replay order never interleaves halves of one ingest call.
// force admits it past the limit anyway (the rest of its write has landed).
func (q *spillQueue) enqueue(ops []wal.Op, force bool) error {
	if !force && len(q.ops)+len(ops) > q.limit {
		return errSpillFull
	}
	if q.log != nil {
		if err := q.log.Append(ops...); err != nil {
			return err
		}
		// Durable before the ingest is acknowledged — same contract as a
		// live engine append followed by group commit, but the spill ack
		// races a shard crash, so it syncs eagerly.
		if err := q.log.Sync(); err != nil {
			return err
		}
	}
	q.ops = append(q.ops, ops...)
	return nil
}

// pending returns the buffered ops in order. The slice is shared; callers
// only read it and only under the owning slot's lock.
func (q *spillQueue) pending() []wal.Op { return q.ops }

// clear discards the buffer after a successful replay, truncating the
// backing WAL so the next boot does not replay records that already made
// it into the shard's own log.
func (q *spillQueue) clear() error {
	q.ops = q.ops[:0]
	if q.log != nil {
		return q.log.Reset()
	}
	return nil
}

func (q *spillQueue) close() error {
	if q.log != nil {
		return q.log.Close()
	}
	return nil
}
