package api

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/core"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/rank"
)

// queryResult mirrors query.Result's wire shape for decoding.
type queryResult struct {
	Entity string `json:"entity"`
	Rows   []struct {
		ID     string             `json:"id"`
		Score  float64            `json:"score"`
		Fields map[string]float64 `json:"fields"`
	} `json:"rows"`
	Total int    `json:"total"`
	Plan  string `json:"plan"`
}

func postQuery(t *testing.T, url, body string, headers ...string) (int, http.Header, envelope) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if len(data) > 0 {
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("decoding envelope: %v\nbody: %s", err, data)
		}
	}
	return resp.StatusCode, resp.Header, env
}

func TestQueryEndpoint(t *testing.T) {
	ts, _, srv := v1EngineServer(t)
	code, hdr, env := postQuery(t, ts.URL, `{
		"entity": "bloggers",
		"where": {"field": "posts", "op": "ge", "value": 1},
		"orderBy": [{"field": "influence", "desc": true}],
		"select": ["gl"],
		"limit": 3
	}`)
	if code != 200 || env.Error != nil {
		t.Fatalf("status=%d error=%+v", code, env.Error)
	}
	if env.Meta == nil || env.Meta.Seq != 1 || env.Meta.Page == nil || env.Meta.Page.Limit != 3 {
		t.Fatalf("meta = %+v", env.Meta)
	}
	if hdr.Get("ETag") == "" {
		t.Fatal("query response has no ETag")
	}
	var qr queryResult
	if err := json.Unmarshal(env.Data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Entity != "bloggers" || len(qr.Rows) != 3 || qr.Plan != "scan/bloggers" {
		t.Fatalf("result = %+v", qr)
	}
	if qr.Rows[0].ID != "Amery" {
		t.Fatalf("top row = %+v", qr.Rows[0])
	}
	if _, ok := qr.Rows[0].Fields["gl"]; !ok {
		t.Fatalf("projection missing: %+v", qr.Rows[0])
	}
	if env.Meta.Page.Count != 3 || env.Meta.Page.Total != qr.Total {
		t.Fatalf("page = %+v vs total %d", env.Meta.Page, qr.Total)
	}

	// Identical re-posts are answered from the view's memo: no execution.
	sys := srv.cluster.View().Snaps[0]
	before := sys.QueryCache().Computes()
	hits, _ := srv.cluster.MemoStats()
	postQuery(t, ts.URL, `{
		"entity": "bloggers",
		"where": {"field": "posts", "op": "ge", "value": 1},
		"orderBy": [{"field": "influence", "desc": true}],
		"select": ["gl"],
		"limit": 3
	}`)
	if after := sys.QueryCache().Computes(); after != before {
		t.Fatalf("identical query recomputed: %d -> %d", before, after)
	}
	if h, _ := srv.cluster.MemoStats(); h != hits+1 {
		t.Fatalf("identical query was not a memo hit: hits %d -> %d", hits, h)
	}

	// The validator is (generation, normalized query)-specific: the same
	// body re-posted with its ETag is a body-less 304…
	body := `{
		"entity": "bloggers",
		"where": {"field": "posts", "op": "ge", "value": 1},
		"orderBy": [{"field": "influence", "desc": true}],
		"select": ["gl"],
		"limit": 3
	}`
	code, _, env = postQuery(t, ts.URL, body, "If-None-Match", hdr.Get("ETag"))
	if code != http.StatusNotModified || env.Data != nil {
		t.Fatalf("conditional query: status=%d data=%s", code, env.Data)
	}
	// …but a different query presenting that validator must NOT match —
	// it never saw this response.
	code, _, env = postQuery(t, ts.URL, `{"entity":"bloggers"}`, "If-None-Match", hdr.Get("ETag"))
	if code != 200 || env.Data == nil {
		t.Fatalf("different query matched a foreign validator: status=%d", code)
	}
	// And an invalid body is a 400 even with a matching-looking validator.
	code, _, env = postQuery(t, ts.URL, `{nope`, "If-None-Match", hdr.Get("ETag"))
	if code != http.StatusBadRequest || env.Error == nil || env.Error.Code != ErrCodeInvalidQuery {
		t.Fatalf("invalid body with validator: status=%d error=%+v", code, env.Error)
	}
}

func TestQueryEndpointAcrossFlush(t *testing.T) {
	ts, e := engineServer(t)
	_, hdr, env := postQuery(t, ts.URL, `{"entity":"bloggers","limit":2}`)
	etag := hdr.Get("ETag")
	seq := env.Meta.Seq
	if err := e.AddBatch(core.Batch{Posts: []*blog.Post{{ID: "qflush", Author: "Zoe", Body: "fresh basketball coverage for the playoffs"}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, env := postQuery(t, ts.URL, `{"entity":"bloggers","limit":2}`, "If-None-Match", etag)
	if code != 200 || env.Meta.Seq <= seq {
		t.Fatalf("post-flush query: status=%d seq=%d (old %d)", code, env.Meta.Seq, seq)
	}
}

func TestQueryEndpointInvalid(t *testing.T) {
	ts, _ := server(t)
	for name, body := range map[string]string{
		"not json":       `{nope`,
		"unknown clause": `{"entity":"bloggers","wherre":{}}`,
		"unknown entity": `{"entity":"users"}`,
		"unknown field":  `{"entity":"bloggers","where":{"field":"karma","op":"gt","value":1}}`,
		"bad op":         `{"entity":"bloggers","where":{"field":"influence","op":"between","value":1}}`,
		"bad time":       `{"entity":"posts","where":{"field":"posted","op":"ge","value":"not-a-time"}}`,
		"negative limit": `{"entity":"bloggers","limit":-5}`,
	} {
		code, _, env := postQuery(t, ts.URL, body)
		if code != http.StatusBadRequest || env.Error == nil || env.Error.Code != ErrCodeInvalidQuery {
			t.Errorf("%s: status=%d error=%+v", name, code, env.Error)
		}
	}
	// Limits are clamped to the documented page bounds, not rejected.
	code, _, env := postQuery(t, ts.URL, `{"entity":"bloggers","limit":100000}`)
	if code != 200 || env.Meta.Page.Limit != MaxLimit {
		t.Fatalf("clamp: status=%d page=%+v", code, env.Meta.Page)
	}
}

// entriesPageLegacy reproduces the pre-query-engine fetcher tail: a
// precomputed ranking materialized to offset+limit entries, windowed.
func entriesPageLegacy(entries []rank.Entry, offset int) []scored {
	if offset >= len(entries) {
		return []scored{}
	}
	entries = entries[offset:]
	out := make([]scored, 0, len(entries))
	for _, e := range entries {
		out = append(out, scored{Blogger: blog.BloggerID(e.ID), Score: e.Score})
	}
	return out
}

// compactData decodes an envelope's data field to compact JSON bytes.
func compactData(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRewrittenHandlersEquivalence is the redesign's safety net: the
// top, domain-top, advert and profile handlers — now thin query builders
// — must return byte-identical data to their pre-query implementations,
// reconstructed here from the influence result directly.
func TestRewrittenHandlersEquivalence(t *testing.T) {
	ts, sys := server(t)
	res := sys.Result()

	// /api/v1/bloggers/top == windowed TopGeneral.
	_, _, env := getEnvelope(t, ts.URL+"/api/v1/bloggers/top?limit=4&offset=2")
	want := mustMarshal(t, entriesPageLegacy(res.TopGeneral(6), 2))
	if got := compactData(t, env.Data); got != want {
		t.Fatalf("top drifted:\ngot  %s\nwant %s", got, want)
	}

	// /api/v1/domains/{name}/top == windowed TopDomain.
	dom := lexicon.Sports
	_, _, env = getEnvelope(t, ts.URL+"/api/v1/domains/"+dom+"/top?limit=5")
	want = mustMarshal(t, entriesPageLegacy(res.TopDomain(dom, 5), 0))
	if got := compactData(t, env.Data); got != want {
		t.Fatalf("domain top drifted:\ngot  %s\nwant %s", got, want)
	}

	// /api/v1/advert (text) == the interest reference over the mined
	// interest vector.
	adText := "the stock market and bank interest rates"
	_, env2 := postEnvelope(t, ts.URL+"/api/v1/advert", `{"text":"`+adText+`","k":3}`)
	iv := classify.Classify(sys.Classifier(), adText)
	want = mustMarshal(t, interestReference(res, iv, 3))
	if got := compactData(t, env2.Data); got != want {
		t.Fatalf("advert(text) drifted:\ngot  %s\nwant %s", got, want)
	}

	// /api/v1/advert (domains) == the reference over equal weights.
	_, env2 = postEnvelope(t, ts.URL+"/api/v1/advert", `{"domains":["`+lexicon.Sports+`","`+lexicon.Travel+`"],"k":3}`)
	want = mustMarshal(t, interestReference(res, map[string]float64{
		lexicon.Sports: 0.5, lexicon.Travel: 0.5,
	}, 3))
	if got := compactData(t, env2.Data); got != want {
		t.Fatalf("advert(domains) drifted:\ngot  %s\nwant %s", got, want)
	}

	// Blank domain selections keep their pre-engine semantics: every
	// blank contributes zero weight, the ranking still answers 200 —
	// on v1 and on the legacy alias.
	_, env2 = postEnvelope(t, ts.URL+"/api/v1/advert", `{"domains":["`+lexicon.Sports+`",""],"k":2}`)
	want = mustMarshal(t, interestReference(res, map[string]float64{
		lexicon.Sports: 0.5, "": 0.5,
	}, 2))
	if got := compactData(t, env2.Data); got != want {
		t.Fatalf("advert(blank domain) drifted:\ngot  %s\nwant %s", got, want)
	}
	legacyResp, err := http.Post(ts.URL+"/api/advert", "application/json",
		strings.NewReader(`{"domains":[""],"k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	legacyResp.Body.Close()
	if legacyResp.StatusCode != 200 {
		t.Fatalf("legacy advert with all-blank domains: %d, want 200 (zero-scored ranking)", legacyResp.StatusCode)
	}

	// /api/v1/profile == the reference over the profile's interest vector.
	profile := "I love programming and databases"
	_, env2 = postEnvelope(t, ts.URL+"/api/v1/profile", `{"text":"`+profile+`","k":3}`)
	want = mustMarshal(t, interestReference(res, classify.Classify(sys.Classifier(), profile), 3))
	if got := compactData(t, env2.Data); got != want {
		t.Fatalf("profile drifted:\ngot  %s\nwant %s", got, want)
	}
}

// interestReference ranks every blogger by the dot product of its dense
// domain row with iv, summed in slot order, score descending then ID
// ascending, and keeps the first k: the test-local oracle for the advert
// and profile rankings.
func interestReference(res *influence.Result, iv map[string]float64, k int) []scored {
	d := res.Dense()
	nd := len(d.Domains)
	out := make([]scored, len(d.Bloggers))
	for i, b := range d.Bloggers {
		var dot float64
		for di, name := range d.Domains {
			dot += d.DomainScores[i*nd+di] * iv[name]
		}
		out[i] = scored{Blogger: b, Score: dot}
	}
	slices.SortFunc(out, func(a, b scored) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(string(a.Blogger), string(b.Blogger))
	})
	return out[:min(k, len(out))]
}

// TestQueryExpressesLegacyEndpoints: the acceptance check that one POST
// /api/v1/query body reproduces each dedicated endpoint's rows exactly.
func TestQueryExpressesLegacyEndpoints(t *testing.T) {
	ts, sys := server(t)

	rowsOf := func(body string) []scored {
		t.Helper()
		code, _, env := postQuery(t, ts.URL, body)
		if code != 200 {
			t.Fatalf("query status %d: %+v", code, env.Error)
		}
		var qr queryResult
		if err := json.Unmarshal(env.Data, &qr); err != nil {
			t.Fatal(err)
		}
		out := make([]scored, 0, len(qr.Rows))
		for _, r := range qr.Rows {
			out = append(out, scored{Blogger: blog.BloggerID(r.ID), Score: r.Score})
		}
		return out
	}

	// bloggers/top.
	_, _, env := getEnvelope(t, ts.URL+"/api/v1/bloggers/top?limit=5")
	if got, want := mustMarshal(t, rowsOf(`{"entity":"bloggers","limit":5}`)), compactData(t, env.Data); got != want {
		t.Fatalf("query cannot express bloggers/top:\ngot  %s\nwant %s", got, want)
	}

	// domains/{name}/top.
	dom := lexicon.Economics
	_, _, env = getEnvelope(t, ts.URL+"/api/v1/domains/"+dom+"/top?limit=5")
	body := `{"entity":"bloggers","orderBy":[{"field":"domain:` + dom + `","desc":true}],"limit":5}`
	if got, want := mustMarshal(t, rowsOf(body)), compactData(t, env.Data); got != want {
		t.Fatalf("query cannot express domain top:\ngot  %s\nwant %s", got, want)
	}

	// The advert scenario: the interest vector rides in the query.
	iv := classify.Classify(sys.Classifier(), "new basketball sneakers for athletes")
	ivJSON, err := json.Marshal(iv)
	if err != nil {
		t.Fatal(err)
	}
	_, env2 := postEnvelope(t, ts.URL+"/api/v1/advert", `{"text":"new basketball sneakers for athletes","k":4}`)
	body = `{"entity":"bloggers","orderBy":[{"field":"interest","weights":` + string(ivJSON) + `,"desc":true}],"limit":4}`
	if got, want := mustMarshal(t, rowsOf(body)), compactData(t, env2.Data); got != want {
		t.Fatalf("query cannot express advert:\ngot  %s\nwant %s", got, want)
	}
}

// TestDeprecationHeaders: every legacy alias response carries the RFC
// 8594 lifecycle headers (installed at the routing layer, so no handler
// can forget them) and no v1 route does.
func TestDeprecationHeaders(t *testing.T) {
	_, _, srv := v1EngineServer(t)
	sub := strings.NewReplacer("{id}", "Amery", "{name}", lexicon.Sports, "{rest}", "Amery", "{$}", "")
	for _, rt := range srv.routes {
		path := sub.Replace(rt.Pattern)
		var body io.Reader
		if rt.Method == http.MethodPost {
			body = strings.NewReader(`{}`)
		}
		req := httptest.NewRequest(rt.Method, path, body)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		dep, sunset, link := rec.Header().Get("Deprecation"), rec.Header().Get("Sunset"), rec.Header().Get("Link")
		if rt.Deprecated {
			if dep != "true" || sunset == "" || !strings.Contains(link, "successor-version") {
				t.Errorf("%s %s: missing lifecycle headers: Deprecation=%q Sunset=%q Link=%q",
					rt.Method, rt.Pattern, dep, sunset, link)
			}
		} else if dep != "" || sunset != "" {
			t.Errorf("%s %s: v1 route carries deprecation headers", rt.Method, rt.Pattern)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := engineServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
		Live   bool   `json:"live"`
	}
	if err := json.Unmarshal(env.Data, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || !hz.Live {
		t.Fatalf("healthz = %+v, want status ok and live=true", hz)
	}
}

// TestV1StrictBodies: unknown fields in v1 bodies are 400 invalid_body;
// the legacy aliases keep the tolerant pre-v1 decoding.
func TestV1StrictBodies(t *testing.T) {
	ts, _ := engineServer(t)
	for name, tc := range map[string]struct{ path, body string }{
		"advert":     {"/api/v1/advert", `{"text":"sports","kk":3}`},
		"profile":    {"/api/v1/profile", `{"text":"art","typo":1}`},
		"post":       {"/api/v1/posts", `{"id":"sp1","author":"Zoe","bodyy":"x"}`},
		"post array": {"/api/v1/posts", `[{"id":"sp2","author":"Zoe","bodyy":"x"}]`},
		"comment":    {"/api/v1/comments", `{"post":"post1","commenter":"Zoe","texxt":"x"}`},
		"link":       {"/api/v1/links", `{"from":"Zoe","to":"Amery","weight":2}`},
	} {
		code, env := postEnvelope(t, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest || env.Error == nil || env.Error.Code != ErrCodeInvalidBody {
			t.Errorf("%s: status=%d error=%+v, want 400 invalid_body", name, code, env.Error)
		}
	}

	// Well-formed strict bodies still land.
	code, _ := postEnvelope(t, ts.URL+"/api/v1/posts", `{"id":"strict-ok","author":"Zoe","body":"a fine post"}`)
	if code != http.StatusAccepted {
		t.Fatalf("clean post rejected: %d", code)
	}

	// Legacy stays tolerant: unknown fields are ignored, not rejected.
	resp, err := http.Post(ts.URL+"/api/advert", "application/json",
		strings.NewReader(`{"text":"sports","kk":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("legacy advert with unknown field: %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/api/posts", "application/json",
		strings.NewReader(`{"id":"legacy-ok","author":"Zoe","body":"a fine post","extra":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("legacy post with unknown field: %d, want 202", resp.StatusCode)
	}
}
