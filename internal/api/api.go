// Package api exposes the MASS User Interface Module as a versioned
// HTTP/JSON service: the ranking, recommendation and visualization
// operations the demo's GUI offered, as a designed /api/v1 contract a web
// front end (or curl) can rely on.
//
// # The v1 contract
//
// Every v1 JSON response is the uniform envelope
//
//	{"data": ..., "meta": {"seq": N, "page": {...}}, "error": null}
//
// where meta.seq is the analysis generation that answered the read,
// meta.page carries limit/offset/total/count on list endpoints, and errors
// replace data with a machine-readable {code, message} object (see the
// ErrCode constants).
//
//	GET  /api/v1                          discovery document (routes, limits)
//	GET  /api/v1/openapi.json             OpenAPI 3.0 spec, generated from the route table
//	GET  /api/v1/healthz                  liveness probe (constant cost, no snapshot pin)
//	POST /api/v1/query                    composable typed query (filter/order/project/
//	                                      paginate/aggregate; AST schema in the OpenAPI spec)
//	GET  /api/v1/stats                    corpus summary
//	GET  /api/v1/bloggers/top             general ranking      ?limit=10&offset=0
//	GET  /api/v1/bloggers/{id}            one blogger's influence detail
//	GET  /api/v1/bloggers/{id}/network    Fig. 4 network as JSON   ?radius=2
//	GET  /api/v1/bloggers/{id}/network.svg  ... as SVG
//	GET  /api/v1/domains                  interest domains     ?limit&offset
//	GET  /api/v1/domains/{name}/top       per-domain ranking   ?limit&offset
//	POST /api/v1/advert                   Scenario 1 {"text":...} or {"domains":[...]}
//	POST /api/v1/profile                  Scenario 2 {"text":...}
//	GET  /api/v1/trends                   trend report         ?buckets=8&emerging=5
//	GET  /api/v1/engine                   ingestion/re-analysis status
//	POST /api/v1/subscriptions            register a standing query (continuous query)
//	GET  /api/v1/subscriptions/{id}       resync snapshot for one subscription
//	DEL  /api/v1/subscriptions/{id}       cancel a subscription
//	GET  /api/v1/subscriptions/{id}/events  SSE stream of incremental result diffs
//	POST /api/v1/posts|comments|links     ingestion (object or JSON array)
//
// All routes run behind a middleware chain: request IDs (X-Request-Id),
// structured request logging, panic recovery, and optional per-client
// token-bucket rate limiting (429 + Retry-After).
//
// The ranking and scenario endpoints are thin builders over the
// composable query engine (package query) — POST /api/v1/query can
// express any of them, and the equivalence tests assert the rewritten
// handlers return byte-identical data to their pre-query
// implementations. v1 request bodies are decoded strictly: unknown JSON
// fields answer 400 invalid_body instead of being silently ignored.
//
// # One read path
//
// Every Server fronts a cluster.Cluster (NewCluster is the only
// constructor; a single engine is a 1-shard cluster). Each read pins one
// cluster.View — one immutable snapshot per shard — and every route has
// one handler over that view. At one shard the coordinator is a zero-copy
// pass-through and the view's ETag is the scalar "mass-seq-N", so the
// wire format is that of a bare engine. At several shards meta.seqs
// carries the per-shard generation vector, the ETag becomes the dotted
// vector, and scattered reads may come back partial (meta.degraded). Either
// way a conditional GET with If-None-Match returns 304 until a shard
// publishes a new generation. Standing subscriptions ride the same path
// at any shard count: an event carries what a read at the newest view
// returns, with the same seq vector and degraded flag.
//
// The pre-v1 routes (/api/stats, /api/top?k=, /api/domain/{name}, ...)
// remain as deprecated aliases with their original bare response shapes
// and RFC 8594 lifecycle headers (Deprecation, Sunset, and a successor
// Link); new clients should use v1.
package api

import (
	"log"
	"net/http"
	"strings"

	"mass/internal/cluster"
)

// Option configures optional Server behavior.
type Option func(*options)

type options struct {
	logger    *log.Logger
	rateRPS   float64
	rateBurst int
}

// WithLogger enables structured per-request logging and panic reporting on
// l. Without it the middleware chain stays silent.
func WithLogger(l *log.Logger) Option {
	return func(o *options) { o.logger = l }
}

// WithRateLimit enables per-client (per-IP) token-bucket rate limiting:
// each client gets burst tokens refilled at rps per second; an empty
// bucket answers 429 rate_limited with a Retry-After hint. rps <= 0
// leaves limiting disabled.
func WithRateLimit(rps float64, burst int) Option {
	return func(o *options) { o.rateRPS = rps; o.rateBurst = burst }
}

// Server serves the v1 contract and the legacy aliases over a sharded
// engine cluster.
type Server struct {
	cluster *cluster.Cluster
	opts    options

	mux     *http.ServeMux
	handler http.Handler // middleware chain around dispatch
	routes  []route
	limiter *rateLimiter
}

// NewCluster builds the API server over an engine cluster of any size.
// Ingest routes through the cluster's consistent-hash ring and reads go
// through the scatter-gather coordinator from one pinned view. With one
// shard every path is a pass-through, and the whole surface is served,
// trends included, with a scalar seq and ETag. With several, meta carries
// the seq vector (dotted into the ETag), scattered reads may come back
// partial (meta.degraded) when a shard misses its deadline, and trends,
// whose per-shard analyses cannot be merged, answer 501 unsupported.
// Standing subscriptions are served at any shard count by the cluster's
// hub, through the same Cluster.Query as POST /api/v1/query.
func NewCluster(cl *cluster.Cluster, optFns ...Option) *Server {
	s := &Server{cluster: cl, mux: http.NewServeMux()}
	for _, fn := range optFns {
		fn(&s.opts)
	}
	s.limiter = newRateLimiter(s.opts.rateRPS, s.opts.rateBurst)
	s.routes = s.routeTable()
	s.register()
	s.handler = s.withMiddleware(http.HandlerFunc(s.dispatch))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// sharded reports whether the cluster has more than one shard: the only
// deployment fact the handlers branch on (meta.seqs, the engine-status
// extension fields, the healthz shape, and the trends 501).
func (s *Server) sharded() bool { return s.cluster.NumShards() > 1 }

// ---------------------------------------------------------- v1 wrappers
//
// Handlers never touch the ResponseWriter: they take the one view the
// whole request is answered from and return (data, meta, error); the
// wrappers own view pinning, conditional-GET handling and envelope
// encoding. That is what makes every v1 read snapshot-consistent — a
// shard can swap generations mid-request without a reader ever seeing
// two of them.

// readHandler answers from one pinned view. It sets meta.page and
// meta.degraded itself; the wrapper stamps the generation.
type readHandler func(v *cluster.View, r *http.Request) (any, *Meta, *apiError)

// v1Read wraps a read: pin a view and on GET/HEAD serve its seq (vector)
// as a strong ETag. A matching If-None-Match short-circuits with 304
// before the handler runs at all — the view fully determines the response
// for a URL, so a client that holds this generation's validator costs the
// server nothing.
func (s *Server) v1Read(h readHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := s.cluster.View()
		if conditionalGET(w, r, v) {
			return
		}
		data, meta, aerr := h(v, r)
		if aerr != nil {
			writeAPIError(w, aerr)
			return
		}
		if meta == nil {
			meta = &Meta{}
		}
		s.stamp(meta, v)
		writeEnvelope(w, http.StatusOK, Envelope{Data: data, Meta: meta})
	}
}

// stamp records the view's generation in meta: the highest shard seq
// always, the per-shard vector only on a sharded cluster.
func (s *Server) stamp(meta *Meta, v *cluster.View) {
	meta.Seq = v.MaxSeq()
	if s.sharded() {
		meta.Seqs = v.Seqs()
	}
}

// rawHandler produces a non-JSON body (SVG); it returns the bytes and
// content type so the wrapper can still commit the status exactly once.
type rawHandler func(v *cluster.View, r *http.Request) (body []byte, contentType string, aerr *apiError)

// v1ReadRaw is v1Read for non-envelope responses.
func (s *Server) v1ReadRaw(h rawHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := s.cluster.View()
		if conditionalGET(w, r, v) {
			return
		}
		body, contentType, aerr := h(v, r)
		if aerr != nil {
			writeAPIError(w, aerr)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(body)
	}
}

// statusHandler serves volatile state (engine status, discovery); it
// reports the seq it answered from itself, so meta cannot disagree with
// the payload when a flush lands mid-request, and its responses are never
// cacheable.
type statusHandler func(r *http.Request) (any, uint64, *apiError)

func (s *Server) v1NoSnapshot(h statusHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, seq, aerr := h(r)
		if aerr != nil {
			writeAPIError(w, aerr)
			return
		}
		w.Header().Set("Cache-Control", "no-store")
		writeEnvelope(w, http.StatusOK, Envelope{Data: data, Meta: &Meta{Seq: seq}})
	}
}

// conditionalGET applies the view's ETag to a GET/HEAD response: it
// always advertises the validator, and reports true after writing 304 when
// the client already holds this generation.
func conditionalGET(w http.ResponseWriter, r *http.Request, v *cluster.View) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return false
	}
	etag := v.ETag()
	w.Header().Set("ETag", etag)
	if !etagMatch(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}

// unsupported answers 501 for a surface whose per-shard analyses cannot
// be merged.
func unsupported(what string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, errf(http.StatusNotImplemented, ErrCodeUnsupported,
			"%s is not available on a sharded cluster (per-shard analyses cannot be merged for it); deploy -shards 1", what))
	}
}

// etagMatch implements the weak-comparison subset of If-None-Match we
// need: a comma-separated list of tags, "*" matching anything, W/ prefixes
// ignored.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}
