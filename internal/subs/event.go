package subs

import (
	"fmt"

	"mass/internal/query"
)

// Event is one pushed diff: everything a client needs to advance its
// replica of the subscription's result from PrevSeq to Seq. Rows carries
// only the rows that entered the window or changed in place; Order is
// the full ID ordering of the new window, so exits are implicit (an ID
// absent from Order left the window) and reorderings need no row bytes.
// Events chain: a client whose replica is at seq s may apply an event
// iff ev.PrevSeq == s; anything else is a gap and the client must
// resync from a full result.
type Event struct {
	Seq     uint64 `json:"seq"`
	PrevSeq uint64 `json:"prevSeq"`
	// Seqs and Degraded mirror a read's meta at the event's generation:
	// the per-shard seq vector of a sharded cluster, and whether a
	// skipped shard left the window partial.
	Seqs     []uint64     `json:"seqs,omitempty"`
	Degraded bool         `json:"degraded,omitempty"`
	Entity   query.Entity `json:"entity"`
	Plan     string       `json:"plan"`
	Total    int          `json:"total"`

	// Unchanged marks a pure seq advance: the result is byte-identical
	// to the previous generation's. Order and Rows are omitted; the
	// client just moves its seq forward.
	Unchanged bool `json:"unchanged,omitempty"`

	Order []string    `json:"order"`
	Rows  []query.Row `json:"rows,omitempty"`
}

// diffEvent builds the event advancing a subscription from prev to cur,
// whose results are the materialized windows at the two generations.
// Rows are compared by value (Score plus projected Fields), so an
// unchanged row costs no bytes even when its neighbors moved.
func diffEvent(prev, cur State) *Event {
	old, res := prev.Result, cur.Result
	ev := &Event{Seq: cur.Seq, PrevSeq: prev.Seq, Seqs: cur.Seqs, Degraded: cur.Degraded,
		Entity: res.Entity, Plan: res.Plan, Total: res.Total}
	// Same-length windows usually keep their order; a lockstep ID pass
	// settles it without building the prior-row map.
	sameOrder := len(old.Rows) == len(res.Rows)
	if sameOrder {
		for i := range res.Rows {
			if old.Rows[i].ID != res.Rows[i].ID {
				sameOrder = false
				break
			}
		}
	}
	if sameOrder {
		for i, r := range res.Rows {
			if !rowEqualValue(old.Rows[i], r) {
				ev.Rows = append(ev.Rows, r)
			}
		}
		if len(ev.Rows) == 0 && old.Total == res.Total && old.Plan == res.Plan {
			ev.Unchanged = true
			return ev
		}
	} else {
		prior := make(map[string]query.Row, len(old.Rows))
		for _, r := range old.Rows {
			prior[r.ID] = r
		}
		for _, r := range res.Rows {
			if p, ok := prior[r.ID]; !ok || !rowEqualValue(p, r) {
				ev.Rows = append(ev.Rows, r)
			}
		}
	}
	ev.Order = make([]string, len(res.Rows))
	for i, r := range res.Rows {
		ev.Order[i] = r.ID
	}
	return ev
}

// rowEqualValue compares two result rows by value: ID, score, and the
// projected fields.
func rowEqualValue(a, b query.Row) bool {
	if a.ID != b.ID || a.Score != b.Score || len(a.Fields) != len(b.Fields) {
		return false
	}
	for k, v := range a.Fields {
		bv, ok := b.Fields[k]
		if !ok || bv != v {
			return false
		}
	}
	return true
}

// ClientState is the client-side replica a stream of events maintains —
// the reference implementation the examples and equivalence tests use.
// Apply advances it one event at a time; Result materializes it back
// into the query.Result a fresh full query at the same seq would
// return, byte-identical for every query shape.
type ClientState struct {
	seq    uint64
	entity query.Entity
	plan   string
	total  int
	order  []string
	rows   map[string]query.Row
}

// ApplyOutcome is the result of feeding one event to a ClientState.
type ApplyOutcome int

const (
	// Applied: the replica advanced to the event's seq.
	Applied ApplyOutcome = iota
	// Skipped: the event was stale (seq at or behind the replica).
	Skipped
	// Gap: the event does not chain from the replica's seq — the
	// client missed at least one diff (its connection dropped after an
	// event was sent, or a resync fetch moved the subscription on) and
	// must resync from a full result.
	Gap
)

// NewClientState seeds a replica from a full result at seq — the
// response of the registration call or of a resync fetch.
func NewClientState(seq uint64, res *query.Result) *ClientState {
	cs := &ClientState{}
	cs.Resync(seq, res)
	return cs
}

// Resync replaces the replica wholesale with a full result at seq.
func (cs *ClientState) Resync(seq uint64, res *query.Result) {
	cs.seq, cs.entity, cs.plan, cs.total = seq, res.Entity, res.Plan, res.Total
	cs.order = make([]string, len(res.Rows))
	cs.rows = make(map[string]query.Row, len(res.Rows))
	for i, r := range res.Rows {
		cs.order[i] = r.ID
		cs.rows[r.ID] = r
	}
}

// Seq is the generation the replica currently reflects.
func (cs *ClientState) Seq() uint64 { return cs.seq }

// Apply folds one event into the replica. Gap (with a non-nil error
// describing it) means the replica is unchanged and the caller must
// resync; Skipped means the event was a duplicate of already-applied
// history.
func (cs *ClientState) Apply(ev *Event) (ApplyOutcome, error) {
	if ev.Seq <= cs.seq {
		return Skipped, nil
	}
	if ev.PrevSeq != cs.seq {
		return Gap, fmt.Errorf("subs: event chains from seq %d, replica at %d", ev.PrevSeq, cs.seq)
	}
	if ev.Unchanged {
		cs.seq = ev.Seq
		return Applied, nil
	}
	next := make(map[string]query.Row, len(ev.Order))
	for _, r := range ev.Rows {
		next[r.ID] = r
	}
	for _, id := range ev.Order {
		if _, ok := next[id]; ok {
			continue
		}
		r, ok := cs.rows[id]
		if !ok {
			return Gap, fmt.Errorf("subs: event references row %q absent from both diff and replica", id)
		}
		next[id] = r
	}
	cs.seq, cs.plan, cs.total = ev.Seq, ev.Plan, ev.Total
	cs.order = append(cs.order[:0:0], ev.Order...)
	cs.rows = next
	return Applied, nil
}

// Result materializes the replica as the query.Result a fresh full
// query at the replica's seq would return.
func (cs *ClientState) Result() *query.Result {
	rows := make([]query.Row, 0, len(cs.order))
	for _, id := range cs.order {
		rows = append(rows, cs.rows[id])
	}
	return &query.Result{Entity: cs.entity, Rows: rows, Total: cs.total, Plan: cs.plan}
}
