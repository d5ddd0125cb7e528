package api

import (
	"net/http"
	"strings"

	"mass/internal/query"
)

// paramDoc documents one route parameter for the discovery document and
// the generated OpenAPI spec.
type paramDoc struct {
	Name        string `json:"name"`
	In          string `json:"in"` // "query" or "path"
	Type        string `json:"type"`
	Description string `json:"description,omitempty"`
	Default     any    `json:"default,omitempty"`
	Maximum     any    `json:"maximum,omitempty"`
	Required    bool   `json:"required,omitempty"`
}

func pathParam(name, desc string) paramDoc {
	return paramDoc{Name: name, In: "path", Type: "string", Description: desc, Required: true}
}

func queryIntDoc(name, desc string, def, max int) paramDoc {
	return paramDoc{Name: name, In: "query", Type: "integer", Description: desc, Default: def, Maximum: max}
}

// pageParamDocs is the standard limit/offset pair every ranking/list
// endpoint accepts.
func pageParamDocs() []paramDoc {
	return []paramDoc{
		queryIntDoc("limit", "page size (values above the maximum are capped)", DefaultLimit, MaxLimit),
		queryIntDoc("offset", "zero-based start of the page", 0, MaxOffset),
	}
}

// route is one row of the route table: the single source of truth the mux
// registration, the discovery document and the OpenAPI generator all read,
// so they cannot drift apart (a test verifies the spec against this table).
type route struct {
	Method     string     `json:"method"`
	Pattern    string     `json:"pattern"` // Go 1.22 ServeMux pattern, without the method
	Summary    string     `json:"summary"`
	Params     []paramDoc `json:"params,omitempty"`
	Deprecated bool       `json:"deprecated,omitempty"`
	// Envelope is false for the few non-JSON responses (SVG) and the
	// deprecated aliases, which keep their pre-v1 bare shapes.
	Envelope bool `json:"envelope"`

	handler http.HandlerFunc
	// bodySchema, when set on a POST route, is the JSON-Schema of its
	// request body, published in the generated OpenAPI spec.
	bodySchema map[string]any
}

// routeTable builds the full surface: the v1 contract plus the deprecated
// legacy aliases.
func (s *Server) routeTable() []route {
	k := queryIntDoc("k", "legacy result count (silently defaulted when malformed)", 3, 0)
	k.Maximum = nil
	// Trend reports cannot be merged across shards: on a sharded cluster
	// both trends routes answer 501 before any view is pinned, so the
	// error carries no validator.
	trends, legacyTrends := s.v1Read(s.handleV1Trends), http.HandlerFunc(s.handleLegacyTrends)
	if s.sharded() {
		trends = unsupported("trend analysis")
		legacyTrends = func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "trends are not available on a sharded cluster", http.StatusNotImplemented)
		}
	}
	v1 := []route{
		{Method: "GET", Pattern: "/api/v1", Summary: "API discovery document: routes, parameter bounds, links", Envelope: true, handler: s.v1NoSnapshot(s.handleV1Discovery)},
		{Method: "GET", Pattern: "/api/v1/openapi.json", Summary: "OpenAPI 3.0 description of this server, generated from the route table", handler: s.handleV1OpenAPI},
		{Method: "GET", Pattern: "/api/v1/healthz", Summary: "Liveness/readiness probe for load balancers: per-shard durability state, 503 when every durable shard has fail-stopped", Envelope: true, handler: s.handleV1Healthz},
		{Method: "POST", Pattern: "/api/v1/query", Summary: "Composable query over bloggers, posts and domains: filter/order/project/paginate/aggregate; body is the query AST (JSON-Schema in the OpenAPI spec), honors If-None-Match", Envelope: true, handler: s.handleV1Query, bodySchema: query.JSONSchema()},
		{Method: "GET", Pattern: "/api/v1/stats", Summary: "Corpus summary statistics", Envelope: true, handler: s.v1Read(s.handleV1Stats)},
		{Method: "GET", Pattern: "/api/v1/bloggers/top", Summary: "General influence ranking, paginated", Params: pageParamDocs(), Envelope: true, handler: s.v1Read(s.handleV1TopBloggers)},
		{Method: "GET", Pattern: "/api/v1/bloggers/{id}", Summary: "One blogger's influence detail", Params: []paramDoc{pathParam("id", "blogger ID")}, Envelope: true, handler: s.v1Read(s.handleV1Blogger)},
		{Method: "GET", Pattern: "/api/v1/bloggers/{id}/network", Summary: "Post-reply network around a blogger as JSON", Params: []paramDoc{pathParam("id", "center blogger ID"), queryIntDoc("radius", "BFS radius", DefaultRadius, MaxRadius)}, Envelope: true, handler: s.v1Read(s.handleV1Network)},
		{Method: "GET", Pattern: "/api/v1/bloggers/{id}/network.svg", Summary: "Post-reply network around a blogger as SVG", Params: []paramDoc{pathParam("id", "center blogger ID"), queryIntDoc("radius", "BFS radius", DefaultRadius, MaxRadius)}, handler: s.v1ReadRaw(s.handleV1NetworkSVG)},
		{Method: "GET", Pattern: "/api/v1/domains", Summary: "Interest domains, paginated", Params: pageParamDocs(), Envelope: true, handler: s.v1Read(s.handleV1Domains)},
		{Method: "GET", Pattern: "/api/v1/domains/{name}/top", Summary: "Per-domain influence ranking, paginated", Params: append([]paramDoc{pathParam("name", "domain name")}, pageParamDocs()...), Envelope: true, handler: s.v1Read(s.handleV1DomainTop)},
		{Method: "POST", Pattern: "/api/v1/advert", Summary: "Scenario 1: rank bloggers for an advertisement; body {text} or {domains:[...]}, optional k (capped)", Envelope: true, handler: s.v1Read(s.handleV1Advert)},
		{Method: "POST", Pattern: "/api/v1/profile", Summary: "Scenario 2: rank bloggers for a new user's profile; body {text}, optional k (capped)", Envelope: true, handler: s.v1Read(s.handleV1Profile)},
		{Method: "GET", Pattern: "/api/v1/trends", Summary: "Domain trend report and emerging bloggers (memoized per snapshot)", Params: []paramDoc{queryIntDoc("buckets", "time buckets over the corpus span", DefaultBuckets, MaxBuckets), queryIntDoc("emerging", "emerging-blogger list size", DefaultEmerging, MaxEmerging)}, Envelope: true, handler: trends},
		{Method: "GET", Pattern: "/api/v1/engine", Summary: "Ingestion/re-analysis status (never cached)", Envelope: true, handler: s.v1NoSnapshot(s.handleV1Engine)},
		{Method: "POST", Pattern: "/api/v1/subscriptions", Summary: "Register a standing query subscription; body is the query AST; returns the initial full result plus the SSE stream URL", Envelope: true, handler: s.handleV1SubscriptionCreate, bodySchema: query.JSONSchema()},
		{Method: "GET", Pattern: "/api/v1/subscriptions/{id}", Summary: "Resync snapshot: the subscription's maintained result at its current seq (never cached)", Params: []paramDoc{pathParam("id", "subscription ID")}, Envelope: true, handler: s.handleV1SubscriptionGet},
		{Method: "DELETE", Pattern: "/api/v1/subscriptions/{id}", Summary: "Cancel a standing subscription and end its event stream", Params: []paramDoc{pathParam("id", "subscription ID")}, Envelope: true, handler: s.handleV1SubscriptionDelete},
		{Method: "GET", Pattern: "/api/v1/subscriptions/{id}/events", Summary: "SSE stream of incremental result diffs for one subscription (text/event-stream)", Params: []paramDoc{pathParam("id", "subscription ID")}, handler: s.handleV1SubscriptionEvents},
		{Method: "POST", Pattern: "/api/v1/posts", Summary: "Ingest one post or a JSON array of posts", Envelope: true, handler: s.v1Ingest(decodePosts)},
		{Method: "POST", Pattern: "/api/v1/comments", Summary: "Ingest one comment or a JSON array of comments", Envelope: true, handler: s.v1Ingest(decodeComments)},
		{Method: "POST", Pattern: "/api/v1/links", Summary: "Ingest one link or a JSON array of links", Envelope: true, handler: s.v1Ingest(decodeLinks)},
	}
	legacy := []route{
		{Method: "GET", Pattern: "/api/stats", Summary: "Deprecated alias for /api/v1/stats", handler: s.handleLegacyStats},
		{Method: "GET", Pattern: "/api/top", Summary: "Deprecated alias for /api/v1/bloggers/top", Params: []paramDoc{k}, handler: s.handleLegacyTop},
		{Method: "GET", Pattern: "/api/domains", Summary: "Deprecated alias for /api/v1/domains", handler: s.handleLegacyDomains},
		{Method: "GET", Pattern: "/api/domain/{name}", Summary: "Deprecated alias for /api/v1/domains/{name}/top", Params: []paramDoc{pathParam("name", "domain name"), k}, handler: s.handleLegacyDomain},
		{Method: "GET", Pattern: "/api/domain/{$}", Summary: "Deprecated: missing domain reports 400", handler: s.handleLegacyDomainMissing},
		{Method: "GET", Pattern: "/api/blogger/{id}", Summary: "Deprecated alias for /api/v1/bloggers/{id}", Params: []paramDoc{pathParam("id", "blogger ID")}, handler: s.handleLegacyBlogger},
		{Method: "POST", Pattern: "/api/advert", Summary: "Deprecated alias for /api/v1/advert", handler: s.handleLegacyAdvert},
		{Method: "POST", Pattern: "/api/profile", Summary: "Deprecated alias for /api/v1/profile", handler: s.handleLegacyProfile},
		{Method: "GET", Pattern: "/api/network/{rest}", Summary: "Deprecated alias for /api/v1/bloggers/{id}/network[.svg]", Params: []paramDoc{pathParam("rest", "blogger ID, with optional .svg suffix"), queryIntDoc("radius", "BFS radius", DefaultRadius, 0)}, handler: s.handleLegacyNetwork},
		{Method: "GET", Pattern: "/api/trends", Summary: "Deprecated alias for /api/v1/trends", handler: legacyTrends},
		{Method: "POST", Pattern: "/api/posts", Summary: "Deprecated alias for /api/v1/posts", handler: s.legacyIngest(decodePosts)},
		{Method: "POST", Pattern: "/api/comments", Summary: "Deprecated alias for /api/v1/comments", handler: s.legacyIngest(decodeComments)},
		{Method: "POST", Pattern: "/api/links", Summary: "Deprecated alias for /api/v1/links", handler: s.legacyIngest(decodeLinks)},
		{Method: "GET", Pattern: "/api/engine", Summary: "Deprecated alias for /api/v1/engine", handler: s.handleLegacyEngine},
	}
	for i := range legacy {
		legacy[i].Deprecated = true
	}
	return append(v1, legacy...)
}

// Legacy-alias lifecycle headers (RFC 8594). Deprecation marks the
// surface as deprecated; Sunset announces when it may be removed; the
// Link header points migrating clients at the successor surface.
const (
	legacyDeprecation = "true"
	legacySunset      = "Tue, 01 Jun 2027 00:00:00 GMT"
	legacySuccessor   = `</api/v1>; rel="successor-version"`
)

// deprecationHeaders wraps a legacy alias handler so every response —
// success or error — advertises the surface's lifecycle.
func deprecationHeaders(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Deprecation", legacyDeprecation)
		h.Set("Sunset", legacySunset)
		h.Set("Link", legacySuccessor)
		next(w, r)
	}
}

// register installs the route table on the mux with Go 1.22 method +
// wildcard patterns. Deprecated aliases pick up the lifecycle headers
// here, at the routing layer, so no alias handler can forget them.
func (s *Server) register() {
	for _, rt := range s.routes {
		h := rt.handler
		if rt.Deprecated {
			h = deprecationHeaders(h)
		}
		s.mux.HandleFunc(rt.Method+" "+rt.Pattern, h)
	}
}

// dispatch resolves r against the mux itself so misses get envelope
// responses: a path that exists under other methods becomes a 405 with an
// Allow header, anything else a 404 — both with machine-readable codes
// instead of the mux's plain-text defaults.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	// Handler only reports the match; serving through the mux again is what
	// populates r.PathValue for the wildcards.
	if _, pattern := s.mux.Handler(r); pattern != "" {
		s.mux.ServeHTTP(w, r)
		return
	}
	if allowed := s.allowedMethods(r); len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeAPIError(w, errf(http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
			"%s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, strings.Join(allowed, ", ")))
		return
	}
	writeAPIError(w, errf(http.StatusNotFound, ErrCodeNotFound,
		"no route for %s %s; see GET /api/v1", r.Method, r.URL.Path))
}

// allowedMethods probes which methods the mux would accept for r's path.
func (s *Server) allowedMethods(r *http.Request) []string {
	var allowed []string
	for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
		if m == r.Method {
			continue
		}
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pattern := s.mux.Handler(probe); pattern != "" {
			allowed = append(allowed, m)
		}
	}
	return allowed
}

// discoveryDoc is the GET /api/v1 payload.
type discoveryDoc struct {
	Service string  `json:"service"`
	Version string  `json:"version"`
	OpenAPI string  `json:"openapi"`
	Live    bool    `json:"live"`
	Limits  limits  `json:"limits"`
	Routes  []route `json:"routes"`
}

type limits struct {
	DefaultLimit int   `json:"defaultLimit"`
	MaxLimit     int   `json:"maxLimit"`
	MaxOffset    int   `json:"maxOffset"`
	MaxBodyBytes int64 `json:"maxBodyBytes"`
}

func (s *Server) handleV1Discovery(r *http.Request) (any, uint64, *apiError) {
	return discoveryDoc{
		Service: "mass",
		Version: "v1",
		OpenAPI: "/api/v1/openapi.json",
		Live:    true,
		Limits: limits{
			DefaultLimit: DefaultLimit,
			MaxLimit:     MaxLimit,
			MaxOffset:    MaxOffset,
			MaxBodyBytes: maxBodyBytes,
		},
		Routes: s.routes,
	}, s.cluster.View().MaxSeq(), nil
}
