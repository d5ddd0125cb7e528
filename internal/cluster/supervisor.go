package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/wal"
)

// ShardHealth is a shard's position in the supervised lifecycle:
//
//	Healthy ──failure──▶ Degraded ──threshold──▶ Quarantined
//	   ▲                    │                        │ supervisor
//	   │                 success                  restarts engine
//	   │                    ▼                        ▼
//	   └──────────────── Healthy ◀──replay──── Recovering
//
// The circuit breaker is the Quarantined/Recovering pair: the scatter path
// skips those shards outright (fast-fail as a degraded partial result
// instead of burning the shard timeout), and routed ingest spills to the
// shard's queue instead of calling a dead engine. The supervisor's probe
// is the half-open state — only a successful probe plus a full spill
// replay closes the breaker.
type ShardHealth int32

const (
	// HealthHealthy serves queries and ingest normally.
	HealthHealthy ShardHealth = iota
	// HealthDegraded has recent failures below the breaker threshold; it
	// still serves, and the supervisor probes it actively.
	HealthDegraded
	// HealthQuarantined is breaker-open: scatters skip it, ingest spills,
	// and the supervisor tears the engine down and restarts it.
	HealthQuarantined
	// HealthRecovering has a fresh engine recovered from WAL + snapshot (or
	// the detached in-memory corpus); the breaker stays open until the
	// half-open probe passes and the spill queue replays in order.
	HealthRecovering
)

func (h ShardHealth) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthQuarantined:
		return "quarantined"
	case HealthRecovering:
		return "recovering"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// errShardPanic wraps a panic recovered from a per-shard engine call; it
// classifies as transient, so the caller quarantines the shard instead of
// failing the request.
var errShardPanic = errors.New("cluster: shard panicked")

// shardSlot wraps one shard's engine with its supervision state. The
// engine pointer is atomic so the supervisor can swap in a restarted
// engine while scatters keep reading; it is never nil (a failed restart
// leaves the killed engine in place, still serving its last snapshot).
// slot.mu serializes routed ingest against restart and spill replay, which
// is what makes "health flipped to Healthy ⇒ spill queue empty" an
// invariant rather than a race.
type shardSlot struct {
	idx      int
	eng      atomic.Pointer[core.Engine]
	health   atomic.Int32 // ShardHealth
	consec   atomic.Int32 // consecutive failures toward the breaker
	restarts atomic.Uint64

	mu    sync.Mutex // ingest vs restart/replay; guards spill
	spill *spillQueue
}

func (sh *shardSlot) healthState() ShardHealth { return ShardHealth(sh.health.Load()) }

// breakerOpen reports whether the scatter path should skip this shard.
func (sh *shardSlot) breakerOpen() bool {
	h := sh.healthState()
	return h == HealthQuarantined || h == HealthRecovering
}

// recordSuccess resets the failure streak and closes a Degraded shard back
// to Healthy. It never touches Quarantined/Recovering — only the
// supervisor's replay path closes an open breaker.
func (sh *shardSlot) recordSuccess() {
	sh.consec.Store(0)
	sh.health.CompareAndSwap(int32(HealthDegraded), int32(HealthHealthy))
}

// recordFailure counts one timeout/error/panic against the shard, marks it
// Degraded, and trips the breaker at the consecutive-failure threshold.
func (sh *shardSlot) recordFailure(cl *Cluster) {
	n := sh.consec.Add(1)
	sh.health.CompareAndSwap(int32(HealthHealthy), int32(HealthDegraded))
	if int(n) >= cl.opts.BreakerThreshold {
		sh.forceQuarantine(cl)
	}
}

// forceQuarantine opens the breaker from any serving state, hands the
// subscription hub the generation that skips the shard, and wakes the
// supervisor. No-op when already Quarantined or Recovering.
func (sh *shardSlot) forceQuarantine(cl *Cluster) {
	for {
		h := sh.health.Load()
		if ShardHealth(h) == HealthQuarantined || ShardHealth(h) == HealthRecovering {
			return
		}
		if sh.health.CompareAndSwap(h, int32(HealthQuarantined)) {
			cl.breakerOpens.Add(1)
			cl.publish()
			cl.kickSupervisor()
			return
		}
	}
}

// guardedWrite runs one engine write with panic isolation: a panicking
// shard becomes a transient, quarantinable error instead of taking the
// whole process down.
func guardedWrite(e *core.Engine, mode core.WriteMode, ops []wal.Op) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errShardPanic, r)
		}
	}()
	return e.Write(mode, ops)
}

// transientShardErr classifies an ingest failure: closed engine (mid
// restart), panic, or a fail-stopped WAL are shard conditions worth
// retrying/spilling; anything else is the caller's bad request and is
// returned raw.
func (sh *shardSlot) transientShardErr(err error) bool {
	if errors.Is(err, core.ErrClosed) || errors.Is(err, errShardPanic) {
		return true
	}
	return sh.eng.Load().DurabilityErr() != nil
}

// ---------------------------------------------------------------- ingest

// applyShard is the supervised write path for one shard's ops: a live
// engine write with panic isolation and bounded capped-backoff retries; a
// shard with its breaker open (or one that exhausts the retries) spills
// the ops to its queue instead, acknowledging them for later in-order
// replay. A saturated spill queue sheds with OverloadError unless force is
// set — another part of the same write has already landed.
func (cl *Cluster) applyShard(sh *shardSlot, mode core.WriteMode, ops []wal.Op, force bool) error {
	var delay time.Duration
	for attempt := 0; ; attempt++ {
		sh.mu.Lock()
		if sh.breakerOpen() {
			err := cl.spillLocked(sh, ops, force)
			sh.mu.Unlock()
			return err
		}
		err := guardedWrite(sh.eng.Load(), mode, ops)
		sh.mu.Unlock()
		if err == nil {
			sh.recordSuccess()
			return nil
		}
		if !sh.transientShardErr(err) {
			return err
		}
		sh.recordFailure(cl)
		if attempt >= cl.opts.IngestRetries {
			// Out of patience: open the breaker and loop once more — the
			// re-check under the lock lands in the spill branch (or on a
			// freshly healthy engine, if the supervisor beat us to it).
			sh.forceQuarantine(cl)
			continue
		}
		if delay == 0 {
			delay = cl.opts.IngestRetryDelay
		} else if delay *= 2; delay > maxIngestRetryDelay {
			delay = maxIngestRetryDelay
		}
		time.Sleep(delay)
	}
}

// spillLocked buffers ops for replay, counting the acknowledgement; at
// capacity (unless force) or when the spill WAL itself cannot make the ack
// durable, it sheds with OverloadError. With force another part of the
// write has landed, so a retry would not be safe: a spill WAL failure is
// returned as is instead of shed. Caller holds sh.mu with the breaker
// open, so the queue cannot be drained-and-closed between the check and
// the append.
func (cl *Cluster) spillLocked(sh *shardSlot, ops []wal.Op, force bool) error {
	if err := sh.spill.enqueue(ops, force); err != nil {
		if force {
			return fmt.Errorf("spill: %w", err)
		}
		return cl.shed(sh)
	}
	cl.spilledRecords.Add(uint64(len(ops)))
	return nil
}

// shed counts a write rejected because shard sh can neither apply nor
// buffer it, and tells the caller when to retry.
func (cl *Cluster) shed(sh *shardSlot) error {
	cl.shedRequests.Add(1)
	return &OverloadError{Shard: sh.idx, RetryAfter: cl.opts.ProbeInterval}
}

// ------------------------------------------------------------ supervisor

// kickSupervisor nudges the supervisor loop out of its probe-interval
// sleep — breaker trips and crash injections want sub-interval reaction.
func (cl *Cluster) kickSupervisor() {
	select {
	case cl.supKick <- struct{}{}:
	default:
	}
}

// CrashShard kills shard i's engine in place and quarantines it: the
// deterministic crash injection for the chaos harness, and an operator
// lever to force a clean restart of a misbehaving shard. Acknowledged
// state survives — durable shards recover from their own WAL + snapshot
// dir, in-memory shards from the killed engine's detached corpus.
func (cl *Cluster) CrashShard(i int) {
	sh := cl.shards[i]
	sh.eng.Load().Kill()
	sh.forceQuarantine(cl)
}

// ShardHealths reports every shard's current lifecycle state.
func (cl *Cluster) ShardHealths() []ShardHealth {
	out := make([]ShardHealth, len(cl.shards))
	for i, sh := range cl.shards {
		out[i] = sh.healthState()
	}
	return out
}

// supervise is the supervisor loop: every ProbeInterval (or immediately
// when kicked) it probes Degraded shards, restarts Quarantined ones, and
// walks Recovering ones through half-open probe + spill replay back to
// Healthy. One goroutine for the whole cluster — restarts are rare enough
// that serializing them keeps the reasoning simple.
func (cl *Cluster) supervise() {
	defer close(cl.supDone)
	t := time.NewTicker(cl.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-cl.supQuit:
			return
		case <-t.C:
		case <-cl.supKick:
		}
		for _, sh := range cl.shards {
			select {
			case <-cl.supQuit:
				return
			default:
			}
			switch sh.healthState() {
			case HealthDegraded:
				if cl.probeShard(sh) {
					sh.recordSuccess()
				} else {
					sh.recordFailure(cl)
				}
			case HealthQuarantined:
				cl.restartShard(sh)
				if sh.healthState() == HealthRecovering {
					cl.tryRejoin(sh)
				}
			case HealthRecovering:
				cl.tryRejoin(sh)
			}
		}
	}
}

// probeShard runs one bounded read against the shard — the active health
// check, and the breaker's half-open trial when the shard is Recovering.
// It runs the slow-shard hook so injected wedges stall the probe exactly
// as they stall a scatter worker; a probe that panics or outlasts
// ProbeTimeout fails. The probe goroutine is never cancelled, only
// abandoned — like a late scatter worker, it parks on a buffered channel.
func (cl *Cluster) probeShard(sh *shardSlot) bool {
	done := make(chan bool, 1)
	go func() {
		ok := func() (ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			if hook := cl.slowShard.Load(); hook != nil {
				(*hook)(sh.idx)
			}
			return sh.eng.Load().Current() != nil
		}()
		done <- ok
	}()
	select {
	case ok := <-done:
		return ok
	case <-time.After(cl.opts.ProbeTimeout):
		return false
	}
}

// restartShard tears down a quarantined shard's engine and builds a fresh
// one from its durable state (WAL + snapshot dir) or, for an in-memory
// cluster, from the killed engine's detached corpus — which still holds
// every acknowledged mutation, flushed or not. On failure the shard stays
// Quarantined with the killed engine still in the slot (its last snapshot
// keeps answering scatter-skipped reads as stale data) and the supervisor
// retries next round. On success the subscription hub gets a generation
// over the new engine's snapshot, so standing subscriptions carry on.
func (cl *Cluster) restartShard(sh *shardSlot) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.healthState() != HealthQuarantined {
		return
	}
	old := sh.eng.Load()
	old.Kill()
	var preload *blog.Corpus
	if !old.Durable() {
		preload = old.DetachCorpus()
	}
	e, err := core.NewEngine(preload, cl.shardEngineOpts(sh.idx))
	if err != nil {
		return
	}
	sh.eng.Store(e)
	cl.publish()
	sh.restarts.Add(1)
	cl.shardRestarts.Add(1)
	sh.consec.Store(0)
	sh.health.Store(int32(HealthRecovering))
}

// tryRejoin closes the breaker on a Recovering shard: half-open probe
// first, then — under the slot lock, so no ingest can interleave — the
// spill queue replays in arrival order through the engine's idempotent
// ApplyOps. Only a fully drained queue flips the shard Healthy (and hands
// the subscription hub the generation that reads it again); an
// engine-level replay failure sends it back to Quarantined for another
// restart (the queue keeps the unreplayed tail: ApplyOps re-logs each op
// before moving on, and replaying an already-applied prefix is a no-op).
func (cl *Cluster) tryRejoin(sh *shardSlot) {
	if !cl.probeShard(sh) {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.healthState() != HealthRecovering {
		return
	}
	if ops := sh.spill.pending(); len(ops) > 0 {
		applied, dropped, err := sh.eng.Load().ApplyOps(ops)
		if err != nil {
			sh.health.Store(int32(HealthQuarantined))
			return
		}
		cl.replayedRecords.Add(uint64(applied + dropped))
		sh.spill.clear()
	}
	sh.consec.Store(0)
	sh.health.Store(int32(HealthHealthy))
	cl.publish()
}
