// Package subs turns the read surface into push: clients register a
// standing query once and receive result diffs over a stream, instead of
// polling and re-executing. The hub is a passive registry: its owner
// hands it each new generation — a view of the whole cluster, at any
// shard count — and wakes waiting consumers, and a subscription evaluates
// its query only when its consumer asks for the next event. That event
// diffs the last window the consumer was given against the newest
// generation (diffEvent), so a consumer that falls behind gets one
// combined event and a subscription nobody reads costs nothing.
package subs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/query"
)

// Generation is one published generation: a query evaluator bound to an
// immutable view, stamped with a seq that grows with every generation.
// The view never changes once published, so a Generation can be held
// across flushes without copying.
type Generation struct {
	Seq uint64
	// Seqs is the per-shard generation vector behind a sharded view (the
	// meta.seqs of a read at that view); nil at one shard.
	Seqs []uint64
	// Query answers a normalized query at the view, reporting whether
	// the answer is partial because a shard was skipped.
	Query func(q *query.Query) (res *query.Result, degraded bool, err error)
}

// State is what a subscription's query evaluated to at one generation:
// the registration and resync payload, and the replica state a client
// seeds from it.
type State struct {
	Seq      uint64
	Seqs     []uint64
	Degraded bool
	Result   *query.Result // read-only; shared with callers
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

// Publish makes gen the newest generation and wakes every consumer
// waiting for one. It is O(1) and never waits on subscription work, so
// the flush path continues immediately. A seq not ahead of the current
// one is raised to one past it: event chains keep growing even when the
// publisher's seqs restart.
func (h *Hub) Publish(gen Generation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	gen.Seq = max(gen.Seq, h.gen.Seq+1)
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
// generation. It returns the subscription plus the state its query
// evaluated to there — the client's initial replica state. Registration
// is also when idle subscriptions are collected, as it is the only call
// that grows the registry.
func (h *Hub) Subscribe(q *query.Query) (*Subscription, State, error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, State{}, err
	}
	h.collectIdle(time.Now())
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, State{}, ErrClosed
	}
	gen := h.gen
	h.mu.Unlock()
	// Evaluate outside the hub lock: registration cost must not stall
	// Publish or other registrations.
	res, degraded, err := gen.Query(n)
	if err != nil {
		return nil, State{}, err
	}
	st := State{Seq: gen.Seq, Seqs: gen.Seqs, Degraded: degraded, Result: res}
	s := &Subscription{
		hub:        h,
		id:         newSubID(),
		q:          n,
		st:         st,
		done:       make(chan struct{}),
		lastActive: time.Now(),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, State{}, ErrClosed
	}
	h.subs[s.id] = s
	h.mu.Unlock()
	return s, st, nil
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

// Stats reports the hub's counters, surfaced through GET /api/v1/engine:
// resident subscriptions, events handed to consumers, and query
// evaluations (each a full re-run at a newer generation, for Next or
// Snapshot).
func (h *Hub) Stats() (subscribers int, pushed, evals uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs), h.pushed.Load(), h.evals.Load()
}

func newSubID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("subs: crypto/rand unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Subscription is one registered standing query: its normalized query
// and the state it last evaluated to, which is what its consumer was
// last given. At most one consumer may be attached at a time (SSE
// streams are single-reader); Snapshot serves resync fetches.
type Subscription struct {
	hub *Hub
	id  string
	q   *query.Query // normalized; never mutated

	mu         sync.Mutex // held across an evaluation
	st         State
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
	prev := s.st
	if !s.catchUpLocked(gen) {
		return nil, wait
	}
	s.lastActive = time.Now()
	s.hub.pushed.Add(1)
	return diffEvent(prev, s.st), nil
}

// Snapshot catches the subscription up to the newest generation and
// returns the state it reflects — the resync target. Its seq is on the
// subscription's event chain: the next event chains from it.
func (s *Subscription) Snapshot() State {
	gen, _ := s.hub.current()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catchUpLocked(gen)
	s.lastActive = time.Now()
	return s.st
}

// catchUpLocked re-runs the query at gen when the subscription is behind
// it, reporting whether it advanced. An evaluation error leaves the
// subscription where it was: a query that evaluated at registration
// cannot fail against a later generation of the same schema, and if it
// somehow does, the next generation retries it.
func (s *Subscription) catchUpLocked(gen Generation) bool {
	if s.closed || gen.Seq <= s.st.Seq {
		return false
	}
	res, degraded, err := gen.Query(s.q)
	if err != nil {
		return false
	}
	s.hub.evals.Add(1)
	s.st = State{Seq: gen.Seq, Seqs: gen.Seqs, Degraded: degraded, Result: res}
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
