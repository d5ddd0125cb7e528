package api

import (
	"fmt"
	"hash/fnv"
	"net/http"

	"mass/internal/cluster"
	"mass/internal/query"
)

// queryETag derives the validator for one (view, normalized query) pair.
// All queries share one URL, so the generation alone is not a safe
// validator — a client holding query A's ETag must not get a 304 for
// query B. Folding the normalized query key in makes the validator
// response-specific while keeping the polling contract: the same body
// re-posted against the same generation matches. With one shard the
// dotted seq vector is the bare seq.
func queryETag(v *cluster.View, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf(`"mass-seq-%s-q%016x"`, v.SeqKey(), h.Sum64())
}

// handleV1Query is POST /api/v1/query: the composable read surface. The
// body is a query AST (see query.JSONSchema, published in the OpenAPI
// spec); anything that fails to decode or validate is 400 invalid_query.
//
// The whole request is answered from one pinned view, and execution goes
// through the coordinator — the shard's executor at one shard, routed or
// scattered and merged at several. Deliberately, If-None-Match is honored
// even though this is a POST: a query response is fully determined by (seq
// vector, normalized body), the ETag encodes both, and a client re-posting
// the same query with the validator it last saw gets a body-less 304 until
// a shard publishes a new generation — the cheap-polling contract the GET
// endpoints already have. The body is decoded before the validator is
// checked, so an invalid query is always a 400, never a 304.
//
// Like v1Read, the finished 200 is memoized on the view by raw body,
// together with its ETag: a repeated post neither decodes, executes nor
// encodes. Only valid, non-degraded answers are stored, so a hit (and the
// 304 it may turn into) is what a cold request would get.
func (s *Server) handleV1Query(w http.ResponseWriter, r *http.Request) {
	v := s.cluster.View()
	data, aerr := readBody(r)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	key := memoKey(r, data)
	if hit, ok := v.Recall(key); ok {
		resp := hit.(*memoResponse)
		if !notModified(w, r, resp.etag) {
			writeJSONBody(w, http.StatusOK, resp.body)
		}
		return
	}
	q, err := query.Decode(data)
	if err != nil {
		writeAPIError(w, errf(http.StatusBadRequest, ErrCodeInvalidQuery, "%v", err))
		return
	}
	// The API surface keeps its documented page size: tighter than the
	// engine's own cap, and clamped (not rejected), like every other list
	// endpoint. (Offsets beyond the engine bound were already rejected by
	// Decode.) Clamp before deriving the validator so equal effective
	// queries share one ETag.
	if q.Limit > MaxLimit {
		q.Limit = MaxLimit
	}
	qkey, err := q.Key()
	if err != nil {
		writeAPIError(w, errf(http.StatusBadRequest, ErrCodeInvalidQuery, "%v", err))
		return
	}
	etag := queryETag(v, qkey)
	if notModified(w, r, etag) {
		return
	}
	qr, degraded, err := s.cluster.Query(v, q)
	if err != nil {
		writeAPIError(w, errf(http.StatusBadRequest, ErrCodeInvalidQuery, "%v", err))
		return
	}
	meta := &Meta{
		Degraded: degraded,
		Page: &Page{
			Limit:  q.Limit,
			Offset: q.Offset,
			Total:  qr.Total,
			Count:  len(qr.Rows),
		},
	}
	s.stamp(meta, v)
	writeMemoized(w, v, key, etag, Envelope{Data: qr, Meta: meta})
}

// healthzResponse is the liveness payload: process-level health plus
// durability readiness, for load balancers — no snapshot pin, no
// analysis state.
type healthzResponse struct {
	Status string `json:"status"`
	// Live is always true (every server fronts live engines); the field
	// stays for wire compatibility.
	Live bool `json:"live"`
	// Durability reports the single shard's WAL state on a 1-shard
	// cluster: "ok", "failed" (fail-stopped: the engine still serves reads
	// but rejects writes), or "off" (in-memory). Absent on multi-shard
	// clusters, which report it per shard.
	Durability string `json:"durability,omitempty"`
	// Shards is the per-shard readiness vector on a multi-shard
	// cluster: health, durability, generation and spill depth per shard.
	Shards []cluster.ShardReadiness `json:"shards,omitempty"`
}

// handleV1Healthz is GET /api/v1/healthz: a cheap liveness + readiness
// probe. It stays 200 while at least one shard can accept writes (a
// quarantined shard still spills, a fail-stopped one still reads) and
// degrades to 503 only when every durable shard has fail-stopped its
// WAL — the one state where acknowledged writes can no longer be made
// durable anywhere, so a load balancer should stop routing ingest here.
// meta.seq is the highest shard generation.
func (s *Server) handleV1Healthz(w http.ResponseWriter, r *http.Request) {
	shards, failStopped := s.cluster.Readiness()
	resp := healthzResponse{Status: "ok", Live: true}
	status := http.StatusOK
	if failStopped {
		resp.Status = "failstop"
		status = http.StatusServiceUnavailable
	}
	if s.sharded() {
		resp.Shards = shards
	} else {
		resp.Durability = shards[0].Durability
	}
	var seq uint64
	for _, sh := range shards {
		seq = max(seq, sh.Seq)
	}
	w.Header().Set("Cache-Control", "no-store")
	writeEnvelope(w, status, Envelope{Data: resp, Meta: &Meta{Seq: seq}})
}
