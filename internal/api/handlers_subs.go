package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mass/internal/query"
	"mass/internal/subs"
)

// Continuous queries: POST /api/v1/subscriptions registers a PR 4 query
// AST as a standing subscription, GET /api/v1/subscriptions/{id}/events
// streams its result diffs over SSE, GET /api/v1/subscriptions/{id}
// serves the resync snapshot, DELETE cancels. The cluster's hub
// evaluates every standing query through the same Cluster.Query as POST
// /api/v1/query, at the newest cluster view, so the surface is served at
// any shard count; at several shards events and payloads carry the seq
// vector and the degraded flag as meta does.

// subscriptionResponse is the registration / resync payload: the
// subscription identity plus the full result the client seeds (or
// reseeds) its replica from, and the stream URL.
type subscriptionResponse struct {
	ID string `json:"id"`
	// Seq is the generation the result reflects; the first streamed
	// event chains from it (event.prevSeq == seq).
	Seq    uint64        `json:"seq"`
	Result *query.Result `json:"result"`
	// Events is the SSE stream URL for this subscription.
	Events string `json:"events"`
}

func subEventsPath(id string) string { return "/api/v1/subscriptions/" + id + "/events" }

// writeSubscription writes the registration or resync payload for one
// evaluated state of sub, its generation stamped into meta.
func writeSubscription(w http.ResponseWriter, status int, sub *subs.Subscription, st subs.State) {
	w.Header().Set("Cache-Control", "no-store")
	writeEnvelope(w, status, Envelope{
		Data: subscriptionResponse{
			ID:     sub.ID(),
			Seq:    st.Seq,
			Result: st.Result,
			Events: subEventsPath(sub.ID()),
		},
		Meta: &Meta{Seq: st.Seq, Seqs: st.Seqs, Degraded: st.Degraded},
	})
}

// subErr maps hub errors onto the envelope vocabulary.
func subErr(err error) *apiError {
	switch {
	case errors.Is(err, subs.ErrNotFound):
		return errf(http.StatusNotFound, ErrCodeNotFound, "%v", err)
	case errors.Is(err, subs.ErrClosed):
		return errf(http.StatusServiceUnavailable, ErrCodeReadOnly, "%v", err)
	default:
		return errf(http.StatusBadRequest, ErrCodeInvalidQuery, "%v", err)
	}
}

// handleV1SubscriptionCreate is POST /api/v1/subscriptions. The body is
// the same query AST POST /api/v1/query takes; the response carries the
// full result at the registration generation, which is the replica state
// the event stream's diffs chain from.
func (s *Server) handleV1SubscriptionCreate(w http.ResponseWriter, r *http.Request) {
	data, aerr := readBody(r)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	q, err := query.Decode(data)
	if err != nil {
		writeAPIError(w, errf(http.StatusBadRequest, ErrCodeInvalidQuery, "%v", err))
		return
	}
	// Same page-size contract as POST /api/v1/query: clamp, don't reject.
	if q.Limit > MaxLimit {
		q.Limit = MaxLimit
	}
	sub, st, err := s.cluster.Subscriptions().Subscribe(q)
	if err != nil {
		writeAPIError(w, subErr(err))
		return
	}
	writeSubscription(w, http.StatusCreated, sub, st)
}

// handleV1SubscriptionGet is GET /api/v1/subscriptions/{id}: the resync
// fetch. It catches the subscription up to the newest generation and
// serves its result, so the returned seq is current and on the
// subscription's event chain: the next streamed diff applies cleanly.
func (s *Server) handleV1SubscriptionGet(w http.ResponseWriter, r *http.Request) {
	sub, err := s.cluster.Subscriptions().Get(r.PathValue("id"))
	if err != nil {
		writeAPIError(w, subErr(err))
		return
	}
	writeSubscription(w, http.StatusOK, sub, sub.Snapshot())
}

// handleV1SubscriptionDelete is DELETE /api/v1/subscriptions/{id}.
func (s *Server) handleV1SubscriptionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.cluster.Subscriptions().Cancel(id); err != nil {
		writeAPIError(w, subErr(err))
		return
	}
	writeEnvelope(w, http.StatusOK, Envelope{
		Data: map[string]any{"id": id, "canceled": true},
		Meta: &Meta{Seq: s.cluster.View().MaxSeq()},
	})
}

// ssePingInterval is how often an idle event stream emits a comment
// heartbeat so proxies and clients can distinguish quiet from dead.
const ssePingInterval = 15 * time.Second

// handleV1SubscriptionEvents is GET /api/v1/subscriptions/{id}/events:
// the SSE stream. Whenever the cluster publishes a newer generation the
// handler evaluates the subscription and writes the diff from the last
// frame it sent as one `id: <seq>` + `data: <event JSON>` frame, so a
// slow client gets one combined frame, never a backlog. A subscription
// has at most one attached stream at a time (a second concurrent attach
// answers 409). The stream ends when the subscription is canceled, GC'd,
// the hub shuts down, or the client disconnects.
func (s *Server) handleV1SubscriptionEvents(w http.ResponseWriter, r *http.Request) {
	sub, err := s.cluster.Subscriptions().Get(r.PathValue("id"))
	if err != nil {
		writeAPIError(w, subErr(err))
		return
	}
	if err := sub.Attach(); err != nil {
		if errors.Is(err, subs.ErrAttached) {
			writeAPIError(w, errf(http.StatusConflict, ErrCodeConflict, "%v", err))
			return
		}
		writeAPIError(w, subErr(err))
		return
	}
	defer sub.Detach()

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeAPIError(w, errf(http.StatusInternalServerError, ErrCodeInternal,
			"response writer does not support streaming"))
		return
	}
	// The server-wide write timeout is sized for request/response
	// round trips; a standing stream must outlive it. Failure to clear
	// it (exotic writer) just means the stream ends at the deadline and
	// the client reconnects.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})

	hd := w.Header()
	hd.Set("Content-Type", "text/event-stream")
	hd.Set("Cache-Control", "no-store")
	hd.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ping := time.NewTicker(ssePingInterval)
	defer ping.Stop()
	for {
		ev, wait := sub.Next()
		if ev != nil {
			if !writeSSEEvent(w, ev) {
				return
			}
			flusher.Flush()
			continue
		}
		select {
		case <-wait:
		case <-sub.Done():
			return
		case <-r.Context().Done():
			return
		case <-ping.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeSSEEvent frames one diff event, reporting false when the client
// is gone.
func writeSSEEvent(w http.ResponseWriter, ev *subs.Event) bool {
	payload, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	_, werr := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, payload)
	return werr == nil
}
