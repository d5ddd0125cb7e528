package api

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/lexicon"
	"mass/internal/query"
	"mass/internal/trend"
	"mass/internal/viz"
)

// scored is a generic scored-blogger JSON row.
type scored struct {
	Blogger blog.BloggerID `json:"blogger"`
	Score   float64        `json:"score"`
}

// bloggerDetail is the demo's pop-up window: total influence, domain
// scores, post count and top posts.
type bloggerDetail struct {
	ID           blog.BloggerID     `json:"id"`
	Name         string             `json:"name"`
	Influence    float64            `json:"influence"`
	AP           float64            `json:"ap"`
	GL           float64            `json:"gl"`
	DomainScores map[string]float64 `json:"domainScores"`
	Posts        int                `json:"posts"`
	TopPosts     []topPost          `json:"topPosts"`
}

type topPost struct {
	ID    blog.PostID `json:"id"`
	Title string      `json:"title"`
	Score float64     `json:"score"`
}

// ------------------------------------------------------- shared fetchers
//
// One fetch function per resource, shared verbatim by the v1 handlers and
// the deprecated aliases, so the two surfaces cannot drift: the legacy
// response body is exactly the v1 envelope's data field.
//
// The ranking and scenario fetchers are thin builders over the cluster
// coordinator's Query — the composable engine is the one read path, and
// these endpoints are just canned queries against it (the shard's
// executor at one shard, scattered and merged at several, memoized on the
// view either way).

// rowsToScored converts query rows to the wire rows these endpoints have
// always served.
func rowsToScored(rows []query.Row) []scored {
	out := make([]scored, 0, len(rows))
	for _, r := range rows {
		out = append(out, scored{Blogger: blog.BloggerID(r.ID), Score: r.Score})
	}
	return out
}

// fetchScored executes a blogger query against the pinned view and adapts
// it to scored rows plus the page (and degradation) meta.
func (s *Server) fetchScored(v *cluster.View, q *query.Query, limit, offset int) ([]scored, *Meta, *apiError) {
	qr, degraded, err := s.cluster.Query(v, q)
	if err != nil {
		// The canned queries are valid by construction; failure here is a
		// server bug, not client input.
		return nil, nil, errf(http.StatusInternalServerError, ErrCodeInternal, "query: %v", err)
	}
	out := rowsToScored(qr.Rows)
	return out, &Meta{Degraded: degraded, Page: &Page{Limit: limit, Offset: offset, Total: qr.Total, Count: len(out)}}, nil
}

func (s *Server) fetchTop(v *cluster.View, limit, offset int) ([]scored, *Meta, *apiError) {
	q := query.Bloggers().
		OrderBy(query.Desc(query.FieldInfluence)).
		Limit(limit).Offset(offset).Build()
	return s.fetchScored(v, q, limit, offset)
}

func (s *Server) fetchDomainTop(v *cluster.View, domain string, limit, offset int) ([]scored, *Meta, *apiError) {
	q := query.Bloggers().
		OrderBy(query.Desc(query.DomainKey(domain))).
		Limit(limit).Offset(offset).Build()
	return s.fetchScored(v, q, limit, offset)
}

// ownerSnapshot is the pinned snapshot of the shard owning a blogger: the
// one shard holding the blogger's posts, full profile and reply network.
// Its influence fields reflect that shard's analysis.
func (s *Server) ownerSnapshot(v *cluster.View, id blog.BloggerID) *core.Snapshot {
	return v.Snaps[s.cluster.Owner(id)]
}

func (s *Server) fetchBlogger(v *cluster.View, id blog.BloggerID) (bloggerDetail, *apiError) {
	snap := s.ownerSnapshot(v, id)
	c := snap.Corpus()
	b := c.Blogger(id)
	if b == nil {
		return bloggerDetail{}, errf(http.StatusNotFound, ErrCodeNotFound, "unknown blogger %q", id)
	}
	res := snap.Result()
	d := res.Dense()
	var rows []int32 // the blogger's post rows, in ID order
	if bi, ok := res.BloggerIndex(id); ok {
		rows = d.ByAuthor[d.AuthorOff[bi]:d.AuthorOff[bi+1]]
	}
	detail := bloggerDetail{
		ID:           id,
		Name:         b.Name,
		Influence:    res.BloggerScores[id],
		AP:           res.AP[id],
		GL:           res.GL[id],
		DomainScores: res.DomainVector(id),
		Posts:        len(rows),
	}
	// Top 3 posts by score descending, ties by ascending ID: rows come in
	// ID order, so a post moves ahead only of posts scoring strictly less.
	var top []int32
	for _, r := range rows {
		at := len(top)
		for at > 0 && d.PostScore[r] > d.PostScore[top[at-1]] {
			at--
		}
		if at < 3 {
			top = slices.Insert(top, at, r)
			top = top[:min(len(top), 3)]
		}
	}
	for _, r := range top {
		pid := d.Posts[r]
		detail.TopPosts = append(detail.TopPosts, topPost{ID: pid, Title: c.Post(pid).Title, Score: d.PostScore[r]})
	}
	return detail, nil
}

// fetchNetwork builds the post-reply network around a blogger from its
// owner shard: cross-shard edges are link-graph state, not comment edges,
// so the owner shard is where the blogger's reply neighborhood lives.
func (s *Server) fetchNetwork(v *cluster.View, id blog.BloggerID, radius int) (*viz.Network, error) {
	return s.ownerSnapshot(v, id).Network(id, radius, 1)
}

// advertRequest is the Scenario 1 payload: text or explicit domains.
type advertRequest struct {
	Text    string   `json:"text"`
	Domains []string `json:"domains"`
	K       int      `json:"k"`
}

// fetchInterest is the shared scenario shape: rank every blogger by the
// dot product with a mined interest vector — one ordered query. An empty
// vector (nothing classifiable, or only empty domain selections) is a
// client-input 400, never a 500 from weight validation. The page total is
// the query's own match count, so it describes the pinned view.
func (s *Server) fetchInterest(v *cluster.View, iv map[string]float64, k int) ([]scored, *Meta, *apiError) {
	if len(iv) == 0 {
		return nil, nil, errParam("domains", "no usable interest domains in the request")
	}
	return s.fetchScored(v, query.Bloggers().OrderBy(query.DescInterest(iv)).Limit(k).Build(), k, 0)
}

// interestOf mines an interest vector from free text. Classification is
// corpus-independent given the trained model; shard 0's classifier is the
// cluster's designated model.
func interestOf(v *cluster.View, text string) map[string]float64 {
	return classify.Classify(v.Snaps[0].Classifier(), text)
}

func (s *Server) fetchAdvert(v *cluster.View, req advertRequest) ([]scored, *Meta, *apiError) {
	// Option 1 (free text): the ad's interest vector is the classifier
	// posterior. Option 2 (dropdown): equal weight per selected domain.
	// Both handlers reject empty text+domains before calling here.
	if req.Text != "" {
		return s.fetchInterest(v, interestOf(v, req.Text), req.K)
	}
	return s.fetchInterest(v, query.EqualWeights(req.Domains), req.K)
}

// profileRequest is the Scenario 2 payload.
type profileRequest struct {
	Text string `json:"text"`
	K    int    `json:"k"`
}

func (s *Server) fetchProfile(v *cluster.View, req profileRequest) ([]scored, *Meta, *apiError) {
	return s.fetchInterest(v, interestOf(v, req.Text), req.K)
}

// snapshotDomains is the domain list one snapshot can actually rank:
// the interned analysis domains, or the full lexicon when the analysis ran
// without a classifier.
func snapshotDomains(snap *core.Snapshot) []string {
	if d := snap.Result().Domains(); len(d) > 0 {
		return d
	}
	return lexicon.Domains()
}

// viewDomains is the domain list the view can rank: one shard's own slot
// order, or on a sharded cluster the union of every shard's domains,
// sorted for a stable wire order.
func viewDomains(v *cluster.View) []string {
	if len(v.Snaps) == 1 {
		return snapshotDomains(v.Snaps[0])
	}
	set := map[string]struct{}{}
	for _, snap := range v.Snaps {
		for _, d := range snapshotDomains(snap) {
			set[d] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// trendReport serves the view's trend report, memoized on its generation
// (core.System.Trends). Trend reports cannot be merged across shards, so
// both trends routes answer 501 on a sharded cluster (see routeTable) and
// this only ever reads the single shard.
func trendReport(v *cluster.View, buckets, emerging int) (*trend.Report, error) {
	return v.Snaps[0].Trends(trend.Config{Buckets: buckets, TopEmerging: emerging})
}

// ------------------------------------------------------------ v1 handlers

func (s *Server) handleV1Stats(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	return s.cluster.Stats(v), nil, nil
}

func (s *Server) handleV1TopBloggers(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	limit, offset, aerr := pageParams(r)
	if aerr != nil {
		return nil, nil, aerr
	}
	return s.fetchTop(v, limit, offset)
}

func (s *Server) handleV1Blogger(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	detail, aerr := s.fetchBlogger(v, blog.BloggerID(r.PathValue("id")))
	if aerr != nil {
		return nil, nil, aerr
	}
	return detail, nil, nil
}

func (s *Server) handleV1Domains(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	limit, offset, aerr := pageParams(r)
	if aerr != nil {
		return nil, nil, aerr
	}
	all := viewDomains(v)
	window := []string{}
	if offset < len(all) {
		window = all[offset:min(offset+limit, len(all))]
	}
	return window, &Meta{Page: &Page{Limit: limit, Offset: offset, Total: len(all), Count: len(window)}}, nil
}

func (s *Server) handleV1DomainTop(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	name := r.PathValue("name")
	if !slices.Contains(viewDomains(v), name) {
		return nil, nil, errf(http.StatusNotFound, ErrCodeNotFound, "unknown domain %q", name)
	}
	limit, offset, aerr := pageParams(r)
	if aerr != nil {
		return nil, nil, aerr
	}
	return s.fetchDomainTop(v, name, limit, offset)
}

// v1Network parses the radius and builds the network both network routes
// render.
func (s *Server) v1Network(v *cluster.View, r *http.Request) (*viz.Network, *apiError) {
	radius, aerr := queryInt(r, "radius", DefaultRadius, 1, MaxRadius)
	if aerr != nil {
		return nil, aerr
	}
	net, err := s.fetchNetwork(v, blog.BloggerID(r.PathValue("id")), radius)
	if err != nil {
		return nil, errf(http.StatusNotFound, ErrCodeNotFound, "%v", err)
	}
	return net, nil
}

func (s *Server) handleV1Network(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	net, aerr := s.v1Network(v, r)
	if aerr != nil {
		return nil, nil, aerr
	}
	return net, nil, nil
}

func (s *Server) handleV1NetworkSVG(v *cluster.View, r *http.Request) ([]byte, string, *apiError) {
	net, aerr := s.v1Network(v, r)
	if aerr != nil {
		return nil, "", aerr
	}
	var buf bytes.Buffer
	if err := net.WriteSVG(&buf, 1000, 800); err != nil {
		return nil, "", errf(http.StatusInternalServerError, ErrCodeInternal, "rendering SVG: %v", err)
	}
	return buf.Bytes(), "image/svg+xml", nil
}

// v1Body bounds and decodes a single-object JSON body, strictly: unknown
// fields are invalid_body, so a typoed clause fails loudly instead of
// silently changing the query's meaning.
func v1Body[T any](r *http.Request, v *T) *apiError {
	data, aerr := readBody(r)
	if aerr != nil {
		return aerr
	}
	return strictUnmarshal(data, v)
}

// v1K applies the scenario endpoints' result-count contract: default
// when absent or non-positive, capped at MaxLimit.
func v1K(k int) int {
	if k <= 0 {
		return DefaultLimit
	}
	return min(k, MaxLimit)
}

func (s *Server) handleV1Advert(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	var req advertRequest
	if aerr := v1Body(r, &req); aerr != nil {
		return nil, nil, aerr
	}
	if req.Text == "" && len(req.Domains) == 0 {
		return nil, nil, errParam("text", "provide text or domains")
	}
	req.K = v1K(req.K)
	return s.fetchAdvert(v, req)
}

func (s *Server) handleV1Profile(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	var req profileRequest
	if aerr := v1Body(r, &req); aerr != nil {
		return nil, nil, aerr
	}
	if req.Text == "" {
		return nil, nil, errParam("text", "provide profile text")
	}
	req.K = v1K(req.K)
	return s.fetchProfile(v, req)
}

func (s *Server) handleV1Trends(v *cluster.View, r *http.Request) (any, *Meta, *apiError) {
	buckets, aerr := queryInt(r, "buckets", DefaultBuckets, MinBuckets, MaxBuckets)
	if aerr != nil {
		return nil, nil, aerr
	}
	emerging, aerr := queryInt(r, "emerging", DefaultEmerging, 1, MaxEmerging)
	if aerr != nil {
		return nil, nil, aerr
	}
	// Parameters are already validated, so a failure here is about the
	// corpus itself (empty, no time span) — not something the client can
	// fix by changing the query.
	rep, err := trendReport(v, buckets, emerging)
	if err != nil {
		return nil, nil, errf(http.StatusUnprocessableEntity, ErrCodeNoData, "%v", err)
	}
	return rep, nil, nil
}

// engineResponse is the 1-shard engine-status payload: the engine's own
// counters. Live is always true; the field stays for wire compatibility.
type engineResponse struct {
	Live bool `json:"live"`
	core.EngineStatus
}

// clusterEngineResponse is the sharded payload: the merged engine
// counters plus the cluster extension fields (shards, shardSeqs,
// scatterQueries, degradedQueries, boundaryEdges, mergeFallbacks and the
// supervision counters).
type clusterEngineResponse struct {
	Live bool `json:"live"`
	cluster.ClusterStatus
}

// handleV1Engine reports the engine-status payload and the seq it was
// read at; the legacy alias serves the same payload bare.
func (s *Server) handleV1Engine(r *http.Request) (any, uint64, *apiError) {
	if s.sharded() {
		st := s.cluster.FullStatus()
		return clusterEngineResponse{Live: true, ClusterStatus: st}, st.Seq, nil
	}
	st := s.cluster.Status()
	return engineResponse{Live: true, EngineStatus: st}, st.Seq, nil
}

// -------------------------------------------------- legacy (deprecated)
//
// The pre-v1 aliases keep their original shapes bit-for-bit: bare JSON
// bodies, plain-text errors, and the tolerant k/radius parsing that
// silently falls back to defaults. They delegate to the same fetchers as
// v1 over a freshly pinned view, so data cannot drift between the
// surfaces.

// writeLegacy writes a fetcher's rows as a bare body, or its error as
// plain text.
func writeLegacy(w http.ResponseWriter, out []scored, aerr *apiError) {
	if aerr != nil {
		http.Error(w, aerr.Message, aerr.status)
		return
	}
	writeBareJSON(w, out)
}

func (s *Server) handleLegacyStats(w http.ResponseWriter, r *http.Request) {
	writeBareJSON(w, s.cluster.Stats(s.cluster.View()))
}

func (s *Server) handleLegacyTop(w http.ResponseWriter, r *http.Request) {
	out, _, aerr := s.fetchTop(s.cluster.View(), intParam(r, "k", 3), 0)
	writeLegacy(w, out, aerr)
}

func (s *Server) handleLegacyDomains(w http.ResponseWriter, r *http.Request) {
	writeBareJSON(w, lexicon.Domains())
}

func (s *Server) handleLegacyDomain(w http.ResponseWriter, r *http.Request) {
	out, _, aerr := s.fetchDomainTop(s.cluster.View(), r.PathValue("name"), intParam(r, "k", 3), 0)
	writeLegacy(w, out, aerr)
}

func (s *Server) handleLegacyDomainMissing(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "missing domain", http.StatusBadRequest)
}

func (s *Server) handleLegacyBlogger(w http.ResponseWriter, r *http.Request) {
	detail, aerr := s.fetchBlogger(s.cluster.View(), blog.BloggerID(r.PathValue("id")))
	if aerr != nil {
		http.Error(w, fmt.Sprintf("unknown blogger %q", r.PathValue("id")), aerr.status)
		return
	}
	writeBareJSON(w, detail)
}

func (s *Server) handleLegacyAdvert(w http.ResponseWriter, r *http.Request) {
	var req advertRequest
	if !decodeLegacyBody(w, r, &req) {
		return
	}
	if req.K <= 0 {
		req.K = 3
	}
	if req.Text == "" && len(req.Domains) == 0 {
		http.Error(w, "provide text or domains", http.StatusBadRequest)
		return
	}
	out, _, aerr := s.fetchAdvert(s.cluster.View(), req)
	writeLegacy(w, out, aerr)
}

func (s *Server) handleLegacyProfile(w http.ResponseWriter, r *http.Request) {
	var req profileRequest
	if !decodeLegacyBody(w, r, &req) {
		return
	}
	if req.K <= 0 {
		req.K = 3
	}
	if req.Text == "" {
		http.Error(w, "provide profile text", http.StatusBadRequest)
		return
	}
	out, _, aerr := s.fetchProfile(s.cluster.View(), req)
	writeLegacy(w, out, aerr)
}

func (s *Server) handleLegacyNetwork(w http.ResponseWriter, r *http.Request) {
	rest := r.PathValue("rest")
	svg := false
	if id, ok := strings.CutSuffix(rest, ".svg"); ok {
		svg, rest = true, id
	}
	net, err := s.fetchNetwork(s.cluster.View(), blog.BloggerID(rest), intParam(r, "radius", 2))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if svg {
		var buf bytes.Buffer
		if err := net.WriteSVG(&buf, 1000, 800); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		w.Write(buf.Bytes())
		return
	}
	writeBareJSON(w, net)
}

// handleLegacyTrends keeps the alias's tolerant parsing (a malformed or
// non-positive value means the default) but caps both parameters as v1
// does: trend.Analyze allocates a series per domain per bucket.
func (s *Server) handleLegacyTrends(w http.ResponseWriter, r *http.Request) {
	buckets := min(intParam(r, "buckets", DefaultBuckets), MaxBuckets)
	emerging := min(intParam(r, "emerging", DefaultEmerging), MaxEmerging)
	rep, err := trendReport(s.cluster.View(), buckets, emerging)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeBareJSON(w, rep)
}

func (s *Server) handleLegacyEngine(w http.ResponseWriter, r *http.Request) {
	st, _, _ := s.handleV1Engine(r)
	writeBareJSON(w, st)
}
