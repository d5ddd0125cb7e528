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
// clients register a standing query once and receive result diffs over a
// stream, instead of polling and re-executing. The hub is a passive
// registry: the engine's publish path hands it each new generation and
// wakes waiting consumers, and a subscription evaluates its query only
// when its consumer asks for the next event. That event diffs the last
// window the consumer was given against the newest generation
// (diffEvent), so a consumer that falls behind gets one combined event
// and a subscription nobody reads costs nothing.

// Generation is one published analysis generation: the frozen corpus and
// its influence result, stamped with the engine's snapshot seq. Both are
// immutable once published, so a Generation can be held across flushes
// without copying.
type Generation struct {
	Seq    uint64
	Corpus *blog.Frozen
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

// idleTTL is how long a subscription may sit with no attached consumer
// and no Snapshot activity before it is collected.
const idleTTL = 5 * time.Minute

// Stats is a point-in-time snapshot of the hub's counters, surfaced
// through EngineStatus / GET /api/v1/engine: resident subscriptions,
// events handed to consumers, and query evaluations (each one a full
// query.Execute at a newer generation, for Next or Snapshot).
type Stats struct {
	Subscribers       int
	PushedDiffs       uint64
	FullEvalFallbacks uint64
}

// Hub is the subscription registry. It runs no goroutine: Publish
// records the newest generation and wakes consumers, and all query
// evaluation happens on the goroutine of the consumer that asks for it.
type Hub struct {
	mu      sync.Mutex
	subs    map[string]*Subscription
	gen     Generation    // newest published generation
	changed chan struct{} // closed by the Publish that replaces gen
	closed  bool

	pushed atomic.Uint64
	evals  atomic.Uint64
}

// NewHub returns a hub whose subscriptions register against the given
// initial generation.
func NewHub(initial Generation) *Hub {
	return &Hub{
		subs:    make(map[string]*Subscription),
		gen:     initial,
		changed: make(chan struct{}),
	}
}

// Publish records a newly published generation and wakes every consumer
// waiting for one. It is O(1) and never waits on subscription work, so
// the flush path continues immediately. A generation no newer than the
// current one is ignored.
func (h *Hub) Publish(gen Generation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || gen.Seq <= h.gen.Seq {
		return
	}
	h.gen = gen
	close(h.changed)
	h.changed = make(chan struct{})
}

// current returns the newest generation together with the channel the
// next Publish closes. Reading both under one lock is what makes a
// consumer that finds itself current unable to miss the next wakeup.
func (h *Hub) current() (Generation, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gen, h.changed
}

// Subscribe registers q as a standing subscription against the current
// generation. It returns the subscription plus the seq and full result
// the registration snapshot evaluated to — the client's initial replica
// state. Registration is also when idle subscriptions are collected, as
// it is the only call that grows the registry.
func (h *Hub) Subscribe(q *query.Query) (*Subscription, uint64, *query.Result, error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, 0, nil, err
	}
	h.collectIdle(time.Now())
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, 0, nil, ErrClosed
	}
	gen := h.gen
	h.mu.Unlock()
	// Evaluate outside the hub lock: registration cost must not stall
	// Publish or other registrations.
	res, err := query.Execute(gen.Corpus, gen.Result, n)
	if err != nil {
		return nil, 0, nil, err
	}
	s := &Subscription{
		hub:        h,
		id:         newSubID(),
		q:          n,
		seq:        gen.Seq,
		res:        res,
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
// and no activity for longer than idleTTL. It reads each subscription's
// state outside the hub lock: a consumer holds its subscription's lock
// while it evaluates, and Publish must never wait behind that.
func (h *Hub) collectIdle(now time.Time) {
	h.mu.Lock()
	all := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		all = append(all, s)
	}
	h.mu.Unlock()
	for _, s := range all {
		if s.idleSince(now) > idleTTL {
			h.Cancel(s.id)
		}
	}
}

// Shutdown closes every subscription and refuses further registrations.
// It is idempotent and safe to call concurrently with everything else.
func (h *Hub) Shutdown() {
	h.mu.Lock()
	h.closed = true
	subs := h.subs
	h.subs = map[string]*Subscription{}
	h.mu.Unlock()
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

// Subscription is one registered standing query: its normalized query
// and the result it last evaluated to, which is the state its consumer
// was last given. At most one consumer may be attached at a time (SSE
// streams are single-reader); Snapshot serves resync fetches.
type Subscription struct {
	hub *Hub
	id  string
	q   *query.Query // normalized; never mutated

	mu         sync.Mutex    // held across an evaluation
	seq        uint64        // generation res reflects
	res        *query.Result // read-only once stored; shared with callers
	closed     bool
	attached   bool
	lastActive time.Time

	done chan struct{} // closed on cancel/GC/shutdown
}

// ID is the subscription's opaque identifier.
func (s *Subscription) ID() string { return s.id }

// Done is closed when the subscription is canceled, GC'd, or the hub
// shuts down.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Next returns the subscription's next event: the diff from the state
// its consumer was last given to the newest published generation. When
// there is none — the subscription is current, closed, or its query
// failed to evaluate — ev is nil and wait is a channel the next Publish
// closes; the consumer selects on it alongside Done.
func (s *Subscription) Next() (ev *Event, wait <-chan struct{}) {
	gen, wait := s.hub.current()
	s.mu.Lock()
	defer s.mu.Unlock()
	prevSeq, prev := s.seq, s.res
	if !s.catchUpLocked(gen) {
		return nil, wait
	}
	s.lastActive = time.Now()
	s.hub.pushed.Add(1)
	return diffEvent(prevSeq, prev, s.seq, s.res), nil
}

// Snapshot catches the subscription up to the newest generation and
// returns its result and the seq it reflects — the resync target. The
// seq is on the subscription's event chain: the next event chains from
// it.
func (s *Subscription) Snapshot() (uint64, *query.Result) {
	gen, _ := s.hub.current()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catchUpLocked(gen)
	s.lastActive = time.Now()
	return s.seq, s.res
}

// catchUpLocked re-runs the query at gen when the subscription is behind
// it, reporting whether it advanced. An evaluation error leaves the
// subscription where it was: a query that evaluated at registration
// cannot fail against a later generation of the same schema, and if it
// somehow does, the next generation retries it.
func (s *Subscription) catchUpLocked(gen Generation) bool {
	if s.closed || gen.Seq <= s.seq {
		return false
	}
	res, err := query.Execute(gen.Corpus, gen.Result, s.q)
	if err != nil {
		return false
	}
	s.hub.evals.Add(1)
	s.seq, s.res = gen.Seq, res
	return true
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
	s.mu.Unlock()
	close(s.done)
}
