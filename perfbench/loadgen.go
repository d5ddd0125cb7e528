package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// result is the outcome of one request.
type result struct {
	op        *op
	phase     string // "open" or "closed"
	due, sent time.Time
	done      time.Time
	late      time.Duration // how late the generator dispatched it
	status    int
	err       string          // "" when the response passed every check
	data      json.RawMessage // kept for writes and verifiable reads
}

func (r *result) latency() time.Duration { return r.done.Sub(r.due) }

// driver sends requests over at most `workers` connections and checks
// every response as it arrives.
type driver struct {
	base    string
	client  *http.Client
	workers int
	keep    func(*op) bool // which read responses to keep for later checks
	// register, when set, sees every op before it is sent; direct, when
	// set, may apply a write in process instead (errNotDirect declines).
	register func(*op)
	direct   func(*op) error

	mu      sync.Mutex
	results []*result
	// Per worker and per class (read/write): the last meta.seq seen. A
	// worker's requests do not overlap, so a later one must see a
	// generation at least as new.
	lastSeq []map[bool]uint64

	vis *visibility
}

func newDriver(base string, workers int) *driver {
	tr := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		IdleConnTimeout:     time.Minute,
	}
	d := &driver{
		base:    base,
		client:  &http.Client{Transport: tr, Timeout: 60 * time.Second},
		workers: workers,
		lastSeq: make([]map[bool]uint64, workers),
		vis:     newVisibility(),
	}
	for i := range d.lastSeq {
		d.lastSeq[i] = map[bool]uint64{}
	}
	return d
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// envelope is the v1 response shape every checked response must have.
type envelope struct {
	Data json.RawMessage `json:"data"`
	Meta *struct {
		Seq uint64 `json:"seq"`
	} `json:"meta"`
	Error json.RawMessage `json:"error"`
}

// do sends one request and validates the answer: status, envelope shape,
// non-decreasing meta.seq on this worker, and the write acknowledgment.
func (d *driver) do(ctx context.Context, worker int, o *op, due time.Time, phase string) *result {
	r := &result{op: o, phase: phase, due: due}
	if d.register != nil {
		d.register(o)
	}
	if d.direct != nil && o.isWrite() {
		r.sent = time.Now()
		err := d.direct(o)
		if err != errNotDirect {
			r.done = time.Now()
			if err != nil {
				r.err = err.Error()
			} else if o.write.kind == "posts" {
				d.vis.acked(o.write, r.done)
			}
			return r
		}
	}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, d.base+o.path, body)
	if err != nil {
		r.err = err.Error()
		return r
	}
	req.Header.Set(opHeader, strconv.Itoa(o.id))
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.sent = time.Now()
	resp, err := d.client.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.done = time.Now()
	if err != nil {
		r.err = err.Error()
		return r
	}
	want := http.StatusOK
	if o.isWrite() {
		want = http.StatusAccepted
	}
	if r.status != want {
		r.err = fmt.Sprintf("status %d, want %d: %.200s", r.status, want, raw)
		return r
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		r.err = "bad envelope: " + err.Error()
		return r
	}
	if len(env.Data) == 0 || string(env.Data) == "null" || env.Meta == nil || env.Error != nil {
		r.err = fmt.Sprintf("malformed envelope: %.200s", raw)
		return r
	}
	seq := env.Meta.Seq
	if seq == 0 {
		r.err = "meta.seq is 0"
		return r
	}
	d.mu.Lock()
	if prev := d.lastSeq[worker][o.isWrite()]; seq < prev {
		r.err = fmt.Sprintf("meta.seq went back from %d to %d", prev, seq)
	} else {
		d.lastSeq[worker][o.isWrite()] = seq
	}
	d.mu.Unlock()
	if r.err != "" {
		return r
	}
	if o.isWrite() {
		var ack struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(env.Data, &ack); err != nil || ack.Accepted != o.write.mutations() {
			r.err = fmt.Sprintf("ack %s, want %d accepted", env.Data, o.write.mutations())
			return r
		}
		if o.write.kind == "posts" {
			d.vis.acked(o.write, r.done)
		}
	}
	if o.probe != nil {
		if probeSees(env.Data, o.probe) {
			d.vis.probeSaw(o.probe, r.done)
		}
		d.vis.probeDone(o.probe)
	}
	if o.isWrite() || (d.keep != nil && d.keep(o)) {
		r.data = env.Data
	}
	return r
}

// errNotDirect is returned by a direct hook that leaves the op to HTTP.
var errNotDirect = errors.New("not applied directly")

// opHeader carries the op id to the traced run's handler wrapper.
const opHeader = "X-Bench-Op"

func (d *driver) record(r *result) {
	d.mu.Lock()
	d.results = append(d.results, r)
	d.mu.Unlock()
}

// probeSees reports whether a probe answer lists every post of w.
func probeSees(data json.RawMessage, w *writeOp) bool {
	var res struct {
		Rows []struct {
			ID string `json:"id"`
		} `json:"rows"`
	}
	if json.Unmarshal(data, &res) != nil {
		return false
	}
	have := map[string]bool{}
	for _, row := range res.Rows {
		have[row.ID] = true
	}
	for _, p := range w.posts {
		if !have[p.ID] {
			return false
		}
	}
	return true
}

// job is one dispatched request.
type job struct {
	o    *op
	due  time.Time
	late time.Duration
}

// openLoop sends ops on their schedule from start, regardless of how the
// server keeps up: each request is timed from its due time, so a stall
// shows in every request queued behind it. When probing, posts writes are
// probed every probeEvery after their ack until seen; probes keep running
// until every acked write is seen or probeUntil passes.
func (d *driver) openLoop(ctx context.Context, ops []*op, start time.Time, probing bool, probeUntil time.Time) {
	// Sized for every scheduled op plus a probe per pending write per
	// tick, so neither dispatcher ever blocks on a busy worker.
	jobs := make(chan job, len(ops)+4096)
	var wg sync.WaitGroup
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				r := d.do(ctx, w, j.o, j.due, "open")
				r.late = j.late
				d.record(r)
			}
		}(w)
	}
	var senders sync.WaitGroup
	schedDone := make(chan struct{})
	senders.Add(1)
	go func() {
		defer senders.Done()
		defer close(schedDone)
		for _, o := range ops {
			due := start.Add(o.due)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
			}
			if o.latestProbe {
				o = d.vis.latestProbe(o)
			}
			jobs <- job{o: o, due: due, late: time.Since(due)}
		}
	}()
	if probing {
		senders.Add(1)
		go func() {
			defer senders.Done()
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			nextID := len(ops)
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-tick.C:
					due := d.vis.dueProbes()
					for _, w := range due {
						p := probeFor(w, nextID)
						p.id = nextID
						nextID++
						select {
						case jobs <- job{o: p, due: now, late: time.Since(now)}:
						default:
							d.vis.probeDone(w) // queue full: try next tick
						}
					}
					select {
					case <-schedDone:
						if len(due) == 0 && d.vis.allSeen() || now.After(probeUntil) {
							return
						}
					default:
					}
				}
			}
		}()
	}
	senders.Wait()
	close(jobs)
	wg.Wait()
}

// closedIDBase numbers closed-loop requests apart from the open-loop
// schedule and its probes.
const closedIDBase = 1 << 30

// closedLoop runs `workers` clients back to back over ops (cycled) for dur:
// each sends its next request only when the previous one is answered.
func (d *driver) closedLoop(ctx context.Context, ops []*op, dur time.Duration) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(dur)
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				n := int(next.Add(1) - 1)
				o := *ops[n%len(ops)]
				o.id = closedIDBase + n // ops cycle; each request gets its own id
				r := d.do(ctx, w, &o, time.Now(), "closed")
				r.due = r.sent
				d.record(r)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

// visibility tracks when acked posts writes are first seen by a reader.
type visibility struct {
	mu       sync.Mutex
	ackAt    map[*writeOp]time.Time
	seenAt   map[*writeOp]time.Time
	inflight map[*writeOp]bool
	order    []*writeOp
	// sseFirst is when each post id first appeared in a subscription event.
	sseFirst map[string]time.Time
	// fallback is the author probed before any posts write is acked.
	fallback string
}

func newVisibility() *visibility {
	return &visibility{
		ackAt: map[*writeOp]time.Time{}, seenAt: map[*writeOp]time.Time{},
		inflight: map[*writeOp]bool{}, sseFirst: map[string]time.Time{},
	}
}

func (v *visibility) acked(w *writeOp, at time.Time) {
	v.mu.Lock()
	v.ackAt[w] = at
	v.order = append(v.order, w)
	v.mu.Unlock()
}

// latestProbe fills a probe slot with a probe of the latest acked posts
// write, or of a fixed corpus blogger before any write is acked.
func (v *visibility) latestProbe(slot *op) *op {
	v.mu.Lock()
	defer v.mu.Unlock()
	w := &writeOp{kind: "posts", posts: []postReq{{Author: v.fallback}}}
	if n := len(v.order); n > 0 {
		w = v.order[n-1]
	}
	p := probeFor(w, slot.id)
	p.id, p.due = slot.id, slot.due
	return p
}

func (v *visibility) probeSaw(w *writeOp, at time.Time) {
	v.mu.Lock()
	if _, ok := v.seenAt[w]; !ok {
		v.seenAt[w] = at
	}
	v.mu.Unlock()
}

func (v *visibility) probeDone(w *writeOp) {
	v.mu.Lock()
	delete(v.inflight, w)
	v.mu.Unlock()
}

// dueProbes marks and returns the acked, unseen writes with no probe in
// flight.
func (v *visibility) dueProbes() []*writeOp {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []*writeOp
	for _, w := range v.order {
		if _, seen := v.seenAt[w]; !seen && !v.inflight[w] {
			v.inflight[w] = true
			out = append(out, w)
		}
	}
	return out
}

func (v *visibility) allSeen() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.seenAt) == len(v.order)
}

func (v *visibility) sse(ids []string, at time.Time) {
	v.mu.Lock()
	for _, id := range ids {
		if _, ok := v.sseFirst[id]; !ok {
			v.sseFirst[id] = at
		}
	}
	v.mu.Unlock()
}

// freshness returns ack-to-visible times for the acked posts writes and
// how many were never seen. From the stream, a write is visible when its
// last post first appears in an event; otherwise when a probe saw it.
func (v *visibility) freshness(fromSSE bool) (lat []float64, unseen int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, w := range v.order {
		ack := v.ackAt[w]
		var at time.Time
		ok := true
		if fromSSE {
			for _, p := range w.posts {
				t, seen := v.sseFirst[p.ID]
				if !seen {
					ok = false
					break
				}
				if t.After(at) {
					at = t
				}
			}
		} else {
			at, ok = v.seenAt[w]
		}
		if !ok {
			unseen++
			continue
		}
		d := at.Sub(ack)
		if d < 0 {
			d = 0 // the event raced the 202 over another connection
		}
		lat = append(lat, ms(d))
	}
	return lat, unseen
}

// followEvents reads a subscription's SSE stream until ctx ends, noting
// when each post id first appears in an event's window. It reports on
// ready once the stream is open, or why it could not be opened.
func followEvents(ctx context.Context, base, eventsPath string, v *visibility, ready chan<- error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+eventsPath, nil)
	if err != nil {
		ready <- err
		return
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		ready <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ready <- fmt.Errorf("event stream: status %d", resp.StatusCode)
		return
	}
	ready <- nil
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Order []string `json:"order"`
		}
		if json.Unmarshal([]byte(payload), &ev) == nil {
			v.sse(ev.Order, time.Now())
		}
	}
}
