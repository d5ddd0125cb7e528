package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Machine-readable error codes carried in the v1 error envelope. Clients
// should branch on these, never on message text.
const (
	// ErrCodeInvalidParam: a query or path parameter is malformed or out of
	// range. The envelope's error.param names the offending parameter.
	ErrCodeInvalidParam = "invalid_param"
	// ErrCodeBadJSON: the request body is not valid JSON for the endpoint's
	// schema.
	ErrCodeBadJSON = "bad_json"
	// ErrCodeInvalidBody: the body is valid JSON but violates the
	// endpoint's schema — most commonly an unknown field (v1 bodies are
	// decoded strictly, so typos are rejected instead of silently ignored).
	ErrCodeInvalidBody = "invalid_body"
	// ErrCodeInvalidQuery: POST /api/v1/query received a body that does
	// not decode or validate as a query AST.
	ErrCodeInvalidQuery = "invalid_query"
	// ErrCodeValidation: the body parsed but the engine rejected its
	// contents (duplicate post ID, comment on an unknown post, self-link…).
	ErrCodeValidation = "validation_failed"
	// ErrCodeNotFound: no such route or entity.
	ErrCodeNotFound = "not_found"
	// ErrCodeMethodNotAllowed: the path exists but not for this method; the
	// Allow response header lists the methods that do.
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeReadOnly: the subscription hub is closed (the cluster is
	// shutting down) and accepts no new standing queries.
	ErrCodeReadOnly = "read_only"
	// ErrCodeRateLimited: the per-client token bucket is empty; retry after
	// the Retry-After response header (seconds).
	ErrCodeRateLimited = "rate_limited"
	// ErrCodeOverloaded: a shard is quarantined and its spill queue is
	// full, so the write was shed instead of acknowledged. Retry after the
	// Retry-After response header (seconds).
	ErrCodeOverloaded = "overloaded"
	// ErrCodeConflict: the request contends with existing state — e.g. a
	// second concurrent event stream attached to one subscription.
	ErrCodeConflict = "conflict"
	// ErrCodeNoData: the request is well-formed but the corpus cannot
	// answer it yet (e.g. trends over an empty or single-instant corpus).
	ErrCodeNoData = "no_data"
	// ErrCodePayloadTooLarge: the request body exceeds MaxBodyBytes.
	ErrCodePayloadTooLarge = "payload_too_large"
	// ErrCodeUnsupported: the endpoint exists but is not available in this
	// deployment shape (trends on a sharded cluster).
	ErrCodeUnsupported = "unsupported"
	// ErrCodeInternal: a handler panicked or a response failed to encode.
	ErrCodeInternal = "internal"
)

// Error is the machine-readable error object inside the envelope.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Param names the offending query/path parameter for invalid_param.
	Param string `json:"param,omitempty"`
}

// Envelope is the uniform v1 response shape: exactly one of Data or Error
// is meaningful, and Meta always carries the snapshot seq on reads.
type Envelope struct {
	Data  any    `json:"data"`
	Meta  *Meta  `json:"meta,omitempty"`
	Error *Error `json:"error,omitempty"`
}

// Meta is the envelope's response metadata.
type Meta struct {
	// Seq is the analysis generation (core.Snapshot.Seq) that answered the
	// read; it doubles as the ETag, so a client can poll cheaply with
	// If-None-Match until Seq moves. On a sharded cluster it is the highest
	// shard generation and Seqs carries the full vector.
	Seq uint64 `json:"seq"`
	// Seqs is the per-shard generation vector on sharded deployments: one
	// entry per shard, in shard order. The dot-joined vector is the ETag.
	// Absent on single-shard servers.
	Seqs []uint64 `json:"seqs,omitempty"`
	// Degraded marks a partial result: at least one shard missed its
	// scatter deadline and the response covers the shards that answered.
	Degraded bool `json:"degraded,omitempty"`
	// Page is set on paginated list/ranking responses.
	Page *Page `json:"page,omitempty"`
}

// Page describes a pagination window over an ordered result.
type Page struct {
	// Limit is the effective window size after clamping to MaxLimit.
	Limit int `json:"limit"`
	// Offset is the zero-based start of the window.
	Offset int `json:"offset"`
	// Total is the size of the full underlying result.
	Total int `json:"total"`
	// Count is len(data): how many rows this response actually carries.
	Count int `json:"count"`
}

// apiError pairs an HTTP status with the envelope error object; handlers
// return it instead of writing to the ResponseWriter themselves.
type apiError struct {
	status int
	// retryAfter, when positive, is emitted as a Retry-After header
	// (seconds, rounded up) — set on 429 responses so clients back off
	// instead of hammering a shedding shard.
	retryAfter int
	Error
}

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, Error: Error{Code: code, Message: fmt.Sprintf(format, args...)}}
}

// errParam builds the invalid_param 400 with the parameter name attached.
func errParam(name, format string, args ...any) *apiError {
	e := errf(http.StatusBadRequest, ErrCodeInvalidParam, format, args...)
	e.Param = name
	return e
}

// writeEnvelope encodes env into a buffer first, so the status line and
// headers are written exactly once: an encoding failure downgrades the
// whole response to a 500 error envelope instead of corrupting a committed
// 200 (the legacy writeJSON bug).
func writeEnvelope(w http.ResponseWriter, status int, env Envelope) {
	status, body := encodeEnvelope(status, env)
	writeJSONBody(w, status, body)
}

// encodeEnvelope renders env as the response body, or, when env does not
// encode, a 500 error envelope and its status.
func encodeEnvelope(status int, env Envelope) (int, []byte) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(env); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		// Fixed shape: this encode cannot fail.
		json.NewEncoder(&buf).Encode(Envelope{Error: &Error{
			Code:    ErrCodeInternal,
			Message: "encoding response: " + err.Error(),
		}})
	}
	return status, buf.Bytes()
}

// writeJSONBody commits status and an already-encoded JSON body.
func writeJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeAPIError writes e as an error envelope.
func writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeEnvelope(w, e.status, Envelope{Error: &e.Error})
}

// writeBareJSON is the legacy (pre-v1) response writer: the value itself,
// no envelope. Buffered for the same status-once guarantee as v1.
func writeBareJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// ------------------------------------------------------- parameter limits

// Documented parameter bounds for the v1 surface (also published in the
// discovery document and the OpenAPI spec). Values above a maximum are
// capped, not rejected; malformed or non-positive values are rejected with
// invalid_param — unlike the legacy routes, which silently fell back to
// their defaults.
const (
	DefaultLimit    = 10
	MaxLimit        = 100
	MaxOffset       = 1 << 20
	DefaultRadius   = 2
	MaxRadius       = 6
	DefaultBuckets  = 8
	MinBuckets      = 2
	MaxBuckets      = 64
	DefaultEmerging = 5
	MaxEmerging     = MaxLimit
)

// queryInt parses a strict integer query parameter for v1: absent means
// def, malformed or < min is invalid_param, above max is capped to max.
func queryInt(r *http.Request, name string, def, min, max int) (int, *apiError) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, errParam(name, "%s must be an integer, got %q", name, raw)
	}
	if n < min {
		return 0, errParam(name, "%s must be >= %d, got %d", name, min, n)
	}
	if n > max {
		n = max
	}
	return n, nil
}

// pageParams parses the standard limit/offset pair.
func pageParams(r *http.Request) (limit, offset int, aerr *apiError) {
	if limit, aerr = queryInt(r, "limit", DefaultLimit, 1, MaxLimit); aerr != nil {
		return 0, 0, aerr
	}
	if offset, aerr = queryInt(r, "offset", 0, 0, MaxOffset); aerr != nil {
		return 0, 0, aerr
	}
	return limit, offset, nil
}

// intParam is the legacy tolerant parser: anything missing, malformed or
// non-positive silently falls back to the default. Kept only for the
// deprecated /api/* aliases; v1 uses queryInt.
func intParam(r *http.Request, name string, def int) int {
	if v := r.URL.Query().Get(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}
