package subs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/blog"
	"mass/internal/influence"
	"mass/internal/query"
)

// Package subs turns the engine's pull-only read surface into push:
// clients register a standing query once and receive per-flush result
// diffs over a stream, instead of polling and re-executing. The hub sits
// on the engine's publish path: for each published generation it re-runs
// every subscription's query through query.Execute, diffs the new window
// against the previous one (diffEvent), and pushes the diff event into
// the subscriber's bounded queue. Slow consumers coalesce to the newest
// diff; they never block the flush path.

// Generation is one published analysis generation: the frozen corpus and
// its influence result, stamped with the engine's snapshot seq. Both are
// immutable once published, so a Generation can be held across flushes
// without copying.
type Generation struct {
	Seq    uint64
	Corpus *blog.Corpus
	Result *influence.Result
}

// ErrClosed is returned by operations against a shut-down hub.
var ErrClosed = errors.New("subs: hub closed")

// ErrNotFound is returned when a subscription ID is unknown (canceled,
// GC'd, or never registered).
var ErrNotFound = errors.New("subs: subscription not found")

// ErrAttached is returned by Attach when the subscription already has a
// live event-stream consumer.
var ErrAttached = errors.New("subs: subscription already has an attached consumer")

// Options tunes the hub. Zero values select the defaults.
type Options struct {
	// BufferSize bounds each subscriber's pending-event queue. When a
	// push would exceed it the queue is coalesced to just the newest
	// event (drop-to-latest) and the dropped count is recorded.
	BufferSize int
	// IdleTTL is how long a subscription may sit with no attached
	// consumer and no Snapshot/resync activity before GC cancels it.
	IdleTTL time.Duration
}

const (
	defaultBufferSize = 8
	defaultIdleTTL    = 5 * time.Minute
	// gcInterval is how often idle subscriptions are collected.
	gcInterval = time.Minute
)

func (o Options) withDefaults() Options {
	if o.BufferSize <= 0 {
		o.BufferSize = defaultBufferSize
	}
	if o.IdleTTL <= 0 {
		o.IdleTTL = defaultIdleTTL
	}
	return o
}

// Stats is a point-in-time snapshot of the hub's counters, surfaced
// through EngineStatus / GET /api/v1/engine. Every per-generation
// evaluation re-runs the query in full and counts in FullEvalFallbacks;
// IncrementalEvals is always 0. Both keep their names and JSON keys
// because the v1 engine payload carries them.
type Stats struct {
	Subscribers       int    `json:"subscribers"`
	PushedDiffs       uint64 `json:"pushedDiffs"`
	DroppedDiffs      uint64 `json:"droppedDiffs"`
	IncrementalEvals  uint64 `json:"incrementalEvals"`
	FullEvalFallbacks uint64 `json:"fullEvalFallbacks"`
}

// Hub is the subscription registry and fan-out pump. Publish hands it a
// generation and returns immediately — a worker goroutine picks it up
// and re-evaluates every subscription against it; a 1-slot latest-wins
// mailbox between publisher and worker guarantees the flush path never
// waits on subscription work. If generations outpace the worker,
// intermediate ones are skipped; each event diffs the subscription's
// last window against the newest one, so skipping is lossless (clients
// see one combined diff).
type Hub struct {
	opts Options

	mu     sync.Mutex
	subs   map[string]*Subscription
	prev   Generation // last processed generation
	closed bool

	pending chan Generation // cap 1, latest wins
	quit    chan struct{}
	done    chan struct{}

	pushed  atomic.Uint64
	dropped atomic.Uint64
	evals   atomic.Uint64
}

// NewHub starts a hub whose subscriptions register against the given
// initial generation.
func NewHub(initial Generation, opts Options) *Hub {
	h := &Hub{
		opts:    opts.withDefaults(),
		subs:    make(map[string]*Subscription),
		prev:    initial,
		pending: make(chan Generation, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go h.run()
	return h
}

// Publish hands a newly published generation to the hub. It never
// blocks: the 1-slot mailbox is drained-and-replaced so the newest
// generation always wins, and the flush path continues immediately.
func (h *Hub) Publish(gen Generation) {
	for {
		select {
		case h.pending <- gen:
			return
		default:
			select {
			case <-h.pending:
			default:
			}
		}
	}
}

// run is the worker loop: process pending generations, collect idle
// subscriptions, exit on shutdown.
func (h *Hub) run() {
	defer close(h.done)
	gc := time.NewTicker(gcInterval)
	defer gc.Stop()
	for {
		select {
		case <-h.quit:
			return
		case gen := <-h.pending:
			h.process(gen)
		case <-gc.C:
			h.collectIdle(time.Now())
		}
	}
}

// Apply processes one generation synchronously on the caller's
// goroutine — the deterministic entry point benchmarks and tests use to
// measure evaluation work without mailbox scheduling.
func (h *Hub) Apply(gen Generation) { h.process(gen) }

func (h *Hub) process(gen Generation) {
	h.mu.Lock()
	if h.closed || gen.Seq <= h.prev.Seq {
		h.mu.Unlock()
		return
	}
	h.prev = gen
	targets := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		targets = append(targets, s)
	}
	h.mu.Unlock()
	for _, s := range targets {
		h.evalSub(s, gen)
	}
}

// evalSub re-runs one subscription's query against gen and enqueues the
// diff from its previous window. An evaluation error leaves the
// subscription at its old seq: a query that evaluated at registration
// cannot fail against a later generation of the same schema, and if it
// somehow does, the client's gap detection on the next event forces a
// resync.
func (h *Hub) evalSub(s *Subscription, gen Generation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.seq >= gen.Seq {
		return
	}
	res, err := query.Execute(gen.Corpus, gen.Result, s.q)
	if err != nil {
		return
	}
	h.evals.Add(1)
	s.pushLocked(diffEvent(s.seq, s.res, gen.Seq, res), h)
	h.pushed.Add(1)
	s.seq, s.res = gen.Seq, res
}

// Subscribe registers q as a standing subscription against the current
// generation. It returns the subscription plus the seq and full result
// the registration snapshot evaluated to — the client's initial replica
// state.
func (h *Hub) Subscribe(q *query.Query) (*Subscription, uint64, *query.Result, error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, 0, nil, err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, 0, nil, ErrClosed
	}
	gen := h.prev
	h.mu.Unlock()
	// Evaluate outside the hub lock: registration cost must not stall
	// the publish worker or other registrations.
	res, err := query.Execute(gen.Corpus, gen.Result, n)
	if err != nil {
		return nil, 0, nil, err
	}
	s := &Subscription{
		id:         newSubID(),
		q:          n,
		seq:        gen.Seq,
		res:        res,
		notify:     make(chan struct{}, 1),
		done:       make(chan struct{}),
		lastActive: time.Now(),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, 0, nil, ErrClosed
	}
	h.subs[s.id] = s
	h.mu.Unlock()
	return s, gen.Seq, res, nil
}

// Get resolves a subscription by ID.
func (h *Hub) Get(id string) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	s, ok := h.subs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// Cancel removes a subscription and wakes its consumer (which observes
// the closed state and ends the stream).
func (h *Hub) Cancel(id string) error {
	h.mu.Lock()
	s, ok := h.subs[id]
	if ok {
		delete(h.subs, id)
	}
	closed := h.closed
	h.mu.Unlock()
	if !ok {
		if closed {
			return ErrClosed
		}
		return ErrNotFound
	}
	s.close()
	return nil
}

// collectIdle cancels subscriptions that have had no attached consumer
// and no activity for longer than IdleTTL.
func (h *Hub) collectIdle(now time.Time) {
	h.mu.Lock()
	var idle []*Subscription
	for id, s := range h.subs {
		if s.idleSince(now) > h.opts.IdleTTL {
			delete(h.subs, id)
			idle = append(idle, s)
		}
	}
	h.mu.Unlock()
	for _, s := range idle {
		s.close()
	}
}

// Shutdown stops the worker and closes every subscription. It is
// idempotent and safe to call concurrently with everything else.
func (h *Hub) Shutdown() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		<-h.done
		return
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = map[string]*Subscription{}
	h.mu.Unlock()
	close(h.quit)
	<-h.done
	for _, s := range subs {
		s.close()
	}
}

// Stats snapshots the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	return Stats{
		Subscribers:       n,
		PushedDiffs:       h.pushed.Load(),
		DroppedDiffs:      h.dropped.Load(),
		FullEvalFallbacks: h.evals.Load(),
	}
}

func newSubID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("subs: crypto/rand unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Subscription is one registered standing query: its normalized query,
// the result it last evaluated to, plus a bounded queue of diff events
// awaiting the consumer. At most one consumer may be attached at a time
// (SSE streams are single-reader); Snapshot serves resync fetches.
type Subscription struct {
	id string
	q  *query.Query // normalized; never mutated

	mu         sync.Mutex
	seq        uint64        // generation res reflects
	res        *query.Result // read-only once stored; shared with callers
	queue      []*Event
	closed     bool
	attached   bool
	lastActive time.Time

	notify chan struct{} // cap 1: "queue non-empty" edge signal
	done   chan struct{} // closed on cancel/GC/shutdown
}

// ID is the subscription's opaque identifier.
func (s *Subscription) ID() string { return s.id }

// Done is closed when the subscription is canceled, GC'd, or the hub
// shuts down.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Notify signals (edge-triggered, coalesced) that the queue may have
// events; consumers select on it alongside Done.
func (s *Subscription) Notify() <-chan struct{} { return s.notify }

// pushLocked enqueues an event under s.mu. When the queue is full it is
// coalesced down to just the newest event — the diff chain is broken,
// the consumer's replica will detect the gap (PrevSeq mismatch) and
// resync — so a stalled consumer costs O(BufferSize) memory and zero
// publish latency, and on resume it sees the newest seq immediately.
func (s *Subscription) pushLocked(ev *Event, h *Hub) {
	if s.closed {
		return
	}
	if len(s.queue) >= h.opts.BufferSize {
		h.dropped.Add(uint64(len(s.queue)))
		s.queue = s.queue[:0]
	}
	s.queue = append(s.queue, ev)
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// TryNext pops the oldest pending event, or nil when the queue is
// empty.
func (s *Subscription) TryNext() *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	ev := s.queue[0]
	s.queue = s.queue[1:]
	s.lastActive = time.Now()
	return ev
}

// Snapshot returns the subscription's current result and the seq it
// reflects — the resync target. It is the sub's own state, not a fresh
// engine query: the returned seq is always on the subscription's
// processed-generation chain, so subsequent events chain from it even
// when the hub skipped intermediate generations.
func (s *Subscription) Snapshot() (uint64, *query.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastActive = time.Now()
	return s.seq, s.res
}

// Attach claims the subscription's single consumer slot.
func (s *Subscription) Attach() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.attached {
		return ErrAttached
	}
	s.attached = true
	s.lastActive = time.Now()
	return nil
}

// Detach releases the consumer slot.
func (s *Subscription) Detach() {
	s.mu.Lock()
	s.attached = false
	s.lastActive = time.Now()
	s.mu.Unlock()
}

// idleSince reports how long the subscription has been consumer-less.
// An attached subscription is never idle.
func (s *Subscription) idleSince(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attached || s.closed {
		return 0
	}
	return now.Sub(s.lastActive)
}

func (s *Subscription) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.queue = nil
	s.mu.Unlock()
	close(s.done)
}
