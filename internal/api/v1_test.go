package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/lexicon"
	"mass/internal/trend"
	"time"
)

// v1EngineServer is engineServer but also hands back the *Server for
// white-box assertions.
func v1EngineServer(t *testing.T, opts ...Option) (*httptest.Server, *core.Engine, *Server) {
	t.Helper()
	cl := oneShard(t)
	srv := NewCluster(cl, opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, cl.Shard(0), srv
}

// envelope mirrors the wire shape for decoding in tests.
type envelope struct {
	Data  json.RawMessage `json:"data"`
	Meta  *Meta           `json:"meta"`
	Error *Error          `json:"error"`
}

func getEnvelope(t *testing.T, url string, headers ...string) (int, http.Header, envelope) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if len(body) > 0 {
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("decoding envelope from %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode, resp.Header, env
}

func postEnvelope(t *testing.T, url, body string) (int, envelope) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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
			t.Fatalf("decoding envelope from %s: %v\nbody: %s", url, err, data)
		}
	}
	return resp.StatusCode, env
}

func TestV1EnvelopeShape(t *testing.T) {
	ts, _ := server(t)
	code, _, env := getEnvelope(t, ts.URL+"/api/v1/bloggers/top?limit=3")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if env.Error != nil {
		t.Fatalf("unexpected error: %+v", env.Error)
	}
	if env.Meta == nil || env.Meta.Seq != 1 {
		t.Fatalf("meta = %+v, want seq 1", env.Meta)
	}
	if env.Meta.Page == nil || env.Meta.Page.Limit != 3 || env.Meta.Page.Offset != 0 ||
		env.Meta.Page.Total != 9 || env.Meta.Page.Count != 3 {
		t.Fatalf("page = %+v", env.Meta.Page)
	}
	var top []scored
	if err := json.Unmarshal(env.Data, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0].Blogger != "Amery" || top[0].Score <= top[1].Score {
		t.Fatalf("top = %v", top)
	}

	// Every v1 read endpoint carries meta.seq.
	for _, p := range []string{
		"/api/v1/stats", "/api/v1/domains", "/api/v1/bloggers/Amery",
		"/api/v1/bloggers/Amery/network?radius=1",
		"/api/v1/domains/" + lexicon.Economics + "/top",
		"/api/v1/trends?buckets=2&emerging=2", "/api/v1/engine", "/api/v1",
	} {
		code, _, env := getEnvelope(t, ts.URL+p)
		if code != 200 {
			t.Fatalf("%s: status %d", p, code)
		}
		if env.Meta == nil || env.Meta.Seq == 0 {
			t.Fatalf("%s: meta = %+v, want seq set", p, env.Meta)
		}
	}
}

func TestV1InvalidParams(t *testing.T) {
	ts, _ := server(t)
	for _, tc := range []struct {
		path  string
		param string
	}{
		{"/api/v1/bloggers/top?limit=abc", "limit"},
		{"/api/v1/bloggers/top?limit=-5", "limit"},
		{"/api/v1/bloggers/top?limit=0", "limit"},
		{"/api/v1/bloggers/top?offset=-1", "offset"},
		{"/api/v1/domains/" + lexicon.Sports + "/top?limit=x", "limit"},
		{"/api/v1/bloggers/Amery/network?radius=no", "radius"},
		{"/api/v1/trends?buckets=1", "buckets"},
		{"/api/v1/trends?emerging=-2", "emerging"},
	} {
		code, _, env := getEnvelope(t, ts.URL+tc.path)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.path, code)
		}
		if env.Error == nil || env.Error.Code != ErrCodeInvalidParam || env.Error.Param != tc.param {
			t.Fatalf("%s: error = %+v", tc.path, env.Error)
		}
	}
}

func TestV1PaginationBounds(t *testing.T) {
	ts, _ := server(t)
	// Values above the documented maximum are capped, not rejected.
	code, _, env := getEnvelope(t, ts.URL+"/api/v1/bloggers/top?limit=100000")
	if code != 200 || env.Meta.Page.Limit != MaxLimit {
		t.Fatalf("capped limit: status=%d page=%+v", code, env.Meta.Page)
	}
	// Offsets beyond the total return an empty page, not an error.
	code, _, env = getEnvelope(t, ts.URL+"/api/v1/bloggers/top?offset=500")
	if code != 200 || env.Meta.Page.Count != 0 || string(env.Data) != "[]" {
		t.Fatalf("overrun offset: status=%d page=%+v data=%s", code, env.Meta.Page, env.Data)
	}
	// offset windows the same ordering the full list has.
	var full, window []scored
	_, _, fullEnv := getEnvelope(t, ts.URL+"/api/v1/bloggers/top?limit=9")
	_, _, winEnv := getEnvelope(t, ts.URL+"/api/v1/bloggers/top?limit=2&offset=3")
	if err := json.Unmarshal(fullEnv.Data, &full); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(winEnv.Data, &window); err != nil {
		t.Fatal(err)
	}
	if len(window) != 2 || window[0] != full[3] || window[1] != full[4] {
		t.Fatalf("window = %v, full = %v", window, full)
	}
	if winEnv.Meta.Page.Total != 9 || winEnv.Meta.Page.Count != 2 {
		t.Fatalf("window page = %+v", winEnv.Meta.Page)
	}
}

func TestV1ErrorCodes(t *testing.T) {
	ts, _ := server(t)
	code, _, env := getEnvelope(t, ts.URL+"/api/v1/bloggers/Nobody")
	if code != http.StatusNotFound || env.Error == nil || env.Error.Code != ErrCodeNotFound {
		t.Fatalf("unknown blogger: status=%d error=%+v", code, env.Error)
	}
	code, _, env = getEnvelope(t, ts.URL+"/api/v1/domains/NotADomain/top")
	if code != http.StatusNotFound || env.Error == nil || env.Error.Code != ErrCodeNotFound {
		t.Fatalf("unknown domain: status=%d error=%+v", code, env.Error)
	}
	code, _, env = getEnvelope(t, ts.URL+"/api/v1/no/such/route")
	if code != http.StatusNotFound || env.Error == nil || env.Error.Code != ErrCodeNotFound {
		t.Fatalf("unknown route: status=%d error=%+v", code, env.Error)
	}

	// Method mismatch: envelope 405 with an Allow header.
	pcode, penv := postEnvelope(t, ts.URL+"/api/v1/stats", `{}`)
	if pcode != http.StatusMethodNotAllowed || penv.Error == nil || penv.Error.Code != ErrCodeMethodNotAllowed {
		t.Fatalf("POST stats: status=%d error=%+v", pcode, penv.Error)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/stats", strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow = %q", allow)
	}

	// Bodies: malformed JSON vs missing fields get distinct codes.
	pcode, penv = postEnvelope(t, ts.URL+"/api/v1/advert", `{nope`)
	if pcode != http.StatusBadRequest || penv.Error == nil || penv.Error.Code != ErrCodeBadJSON {
		t.Fatalf("bad JSON: status=%d error=%+v", pcode, penv.Error)
	}
	pcode, penv = postEnvelope(t, ts.URL+"/api/v1/advert", `{}`)
	if pcode != http.StatusBadRequest || penv.Error == nil || penv.Error.Code != ErrCodeInvalidParam {
		t.Fatalf("empty advert: status=%d error=%+v", pcode, penv.Error)
	}
	pcode, penv = postEnvelope(t, ts.URL+"/api/v1/profile", `{}`)
	if pcode != http.StatusBadRequest || penv.Error == nil || penv.Error.Code != ErrCodeInvalidParam {
		t.Fatalf("empty profile: status=%d error=%+v", pcode, penv.Error)
	}
}

func TestV1AdvertProfile(t *testing.T) {
	ts, _ := server(t)
	code, env := postEnvelope(t, ts.URL+"/api/v1/advert",
		`{"text":"the stock market and bank interest rates","k":2}`)
	if code != 200 || env.Meta == nil || env.Meta.Seq != 1 {
		t.Fatalf("advert: status=%d meta=%+v", code, env.Meta)
	}
	var recs []scored
	if err := json.Unmarshal(env.Data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recs = %v", recs)
	}
	code, env = postEnvelope(t, ts.URL+"/api/v1/profile",
		`{"text":"I love programming and databases","k":2}`)
	if code != 200 {
		t.Fatalf("profile status %d", code)
	}
	if err := json.Unmarshal(env.Data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("profile recs = %v", recs)
	}
}

func TestV1ETagConditionalGET(t *testing.T) {
	ts, e := engineServer(t)

	code, hdr, env := getEnvelope(t, ts.URL+"/api/v1/bloggers/top")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	etag := hdr.Get("ETag")
	if etag == "" || !strings.Contains(etag, "mass-seq-") {
		t.Fatalf("ETag = %q", etag)
	}
	seq := env.Meta.Seq

	// Same generation: conditional GET is a body-less 304.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/bloggers/top", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional GET: status=%d body=%q", resp.StatusCode, body)
	}

	// Weak-form and list-form validators match too.
	code, _, _ = getEnvelope(t, ts.URL+"/api/v1/bloggers/top", "If-None-Match", `W/`+etag+`, "other"`)
	if code != http.StatusNotModified {
		t.Fatalf("weak conditional GET: status=%d", code)
	}

	// Ingest + flush: the same validator now misses and the response
	// carries the new generation.
	resp, err = http.Post(ts.URL+"/api/v1/posts", "application/json", strings.NewReader(
		`{"id":"etag1","author":"Zoe","title":"t","body":"fresh basketball coverage"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, hdr, env = getEnvelope(t, ts.URL+"/api/v1/bloggers/top", "If-None-Match", etag)
	if code != 200 {
		t.Fatalf("post-flush conditional GET: status=%d", code)
	}
	if env.Meta.Seq <= seq {
		t.Fatalf("seq = %d, want > %d", env.Meta.Seq, seq)
	}
	if newTag := hdr.Get("ETag"); newTag == etag || newTag == "" {
		t.Fatalf("post-flush ETag = %q (old %q)", newTag, etag)
	}

	// The SVG flavor is conditional too.
	resp, err = http.Get(ts.URL + "/api/v1/bloggers/Amery/network.svg?radius=1")
	if err != nil {
		t.Fatal(err)
	}
	svg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(string(svg), "<svg") {
		t.Fatalf("svg: status=%d body[:20]=%.20s", resp.StatusCode, svg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("svg content type %q", ct)
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/api/v1/bloggers/Amery/network.svg?radius=1", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("svg conditional GET: status=%d", resp.StatusCode)
	}
}

func TestV1RateLimit(t *testing.T) {
	ts := httptest.NewServer(NewCluster(oneShard(t), WithRateLimit(0.001, 2)))
	defer ts.Close()

	for i := 0; i < 2; i++ {
		code, _, _ := getEnvelope(t, ts.URL+"/api/v1/stats")
		if code != 200 {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	code, hdr, env := getEnvelope(t, ts.URL+"/api/v1/stats")
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if env.Error == nil || env.Error.Code != ErrCodeRateLimited {
		t.Fatalf("error = %+v", env.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
}

func TestRateLimiterPrunesIdleClients(t *testing.T) {
	l := newRateLimiter(10, 5)
	now := time.Now()
	for i := 0; i < maxBuckets; i++ {
		if !l.allow(fmt.Sprintf("10.0.%d.%d", i/256, i%256), now) {
			t.Fatal("fresh client denied")
		}
	}
	if len(l.buckets) != maxBuckets {
		t.Fatalf("buckets = %d", len(l.buckets))
	}
	// A minute later every old bucket has fully refilled (burst/rps =
	// 0.5s); the next new client must trigger eviction, not unbounded
	// growth.
	if !l.allow("fresh-client", now.Add(time.Minute)) {
		t.Fatal("fresh client denied after idle period")
	}
	if len(l.buckets) != 1 {
		t.Fatalf("buckets = %d after prune, want 1 (idle clients evicted)", len(l.buckets))
	}
}

func TestLegacyAliasParity(t *testing.T) {
	ts, _ := server(t)
	for _, tc := range []struct{ legacy, v1 string }{
		{"/api/top?k=4", "/api/v1/bloggers/top?limit=4"},
		{"/api/domain/" + lexicon.Economics + "?k=2", "/api/v1/domains/" + lexicon.Economics + "/top?limit=2"},
		{"/api/blogger/Amery", "/api/v1/bloggers/Amery"},
		{"/api/stats", "/api/v1/stats"},
		{"/api/trends?buckets=2&emerging=2", "/api/v1/trends?buckets=2&emerging=2"},
		{"/api/engine", "/api/v1/engine"},
	} {
		resp, err := http.Get(ts.URL + tc.legacy)
		if err != nil {
			t.Fatal(err)
		}
		legacyBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", tc.legacy, resp.StatusCode)
		}
		code, _, env := getEnvelope(t, ts.URL+tc.v1)
		if code != 200 {
			t.Fatalf("%s: status %d", tc.v1, code)
		}
		var legacyVal, v1Val any
		if err := json.Unmarshal(legacyBody, &legacyVal); err != nil {
			t.Fatalf("%s: %v", tc.legacy, err)
		}
		if err := json.Unmarshal(env.Data, &v1Val); err != nil {
			t.Fatalf("%s: %v", tc.v1, err)
		}
		// The legacy body must be exactly the v1 envelope's data field.
		lj, _ := json.Marshal(legacyVal)
		vj, _ := json.Marshal(v1Val)
		if string(lj) != string(vj) {
			t.Fatalf("parity broken for %s vs %s:\nlegacy: %s\nv1:     %s", tc.legacy, tc.v1, lj, vj)
		}
	}
}

// TestTrendsMemoized: both trends routes serve the pinned generation's
// memoized report (core.System.Trends), and after a flush they serve the
// new generation's own report.
func TestTrendsMemoized(t *testing.T) {
	ts, e, _ := v1EngineServer(t)
	cfg := trend.Config{Buckets: 4, TopEmerging: 3}
	check := func() {
		t.Helper()
		want, err := e.Current().Trends(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			code, _, env := getEnvelope(t, ts.URL+"/api/v1/trends?buckets=4&emerging=3")
			if code != 200 {
				t.Fatalf("status %d", code)
			}
			if got := compactData(t, env.Data); got != mustMarshal(t, want) {
				t.Fatalf("v1 trends differ from the generation's report:\n%s\n%s", got, mustMarshal(t, want))
			}
		}
		resp, err := http.Get(ts.URL + "/api/trends?buckets=4&emerging=3")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := compactData(t, body); got != mustMarshal(t, want) {
			t.Fatalf("legacy trends differ from the generation's report:\n%s", got)
		}
		if again, _ := e.Current().Trends(cfg); again != want {
			t.Fatal("serving the routes replaced the generation's memoized report")
		}
	}
	check()
	old := e.Current()
	if err := e.AddBatch(core.Batch{Posts: []*blog.Post{{ID: "trend-late", Author: "Zoe",
		Body: "a basketball report", Posted: time.Date(2009, 6, 9, 0, 0, 0, 0, time.UTC)}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Current() == old {
		t.Fatal("flush published no new generation")
	}
	check()
}

func TestV1IngestEnvelope(t *testing.T) {
	ts, _ := engineServer(t)
	code, env := postEnvelope(t, ts.URL+"/api/v1/posts",
		`{"id":"v1p","author":"Zoe","title":"t","body":"a long basketball report"}`)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	var ack ingestResponse
	if err := json.Unmarshal(env.Data, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || ack.Pending == 0 || env.Meta == nil || env.Meta.Seq == 0 {
		t.Fatalf("ack = %+v meta = %+v", ack, env.Meta)
	}
	// Engine-level rejection is a structured validation error.
	code, env = postEnvelope(t, ts.URL+"/api/v1/posts",
		`{"id":"v1p","author":"Zoe","body":"duplicate id"}`)
	if code != http.StatusBadRequest || env.Error == nil || env.Error.Code != ErrCodeValidation {
		t.Fatalf("duplicate post: status=%d error=%+v", code, env.Error)
	}
	code, env = postEnvelope(t, ts.URL+"/api/v1/comments",
		`{"post":"missing","commenter":"Amery","text":"hi"}`)
	if code != http.StatusBadRequest || env.Error == nil || env.Error.Code != ErrCodeValidation {
		t.Fatalf("comment on unknown post: status=%d error=%+v", code, env.Error)
	}
}

func TestV1Discovery(t *testing.T) {
	ts, _ := server(t)
	code, _, env := getEnvelope(t, ts.URL+"/api/v1")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		Version string `json:"version"`
		OpenAPI string `json:"openapi"`
		Limits  struct {
			MaxLimit int `json:"maxLimit"`
		} `json:"limits"`
		Routes []struct {
			Method  string `json:"method"`
			Pattern string `json:"pattern"`
		} `json:"routes"`
	}
	if err := json.Unmarshal(env.Data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "v1" || doc.OpenAPI != "/api/v1/openapi.json" || doc.Limits.MaxLimit != MaxLimit {
		t.Fatalf("doc = %+v", doc)
	}
	if len(doc.Routes) < 20 {
		t.Fatalf("only %d routes listed", len(doc.Routes))
	}
}

func TestRequestID(t *testing.T) {
	ts, _ := server(t)
	_, hdr, _ := getEnvelope(t, ts.URL+"/api/v1/stats")
	if hdr.Get("X-Request-Id") == "" {
		t.Fatal("no request ID minted")
	}
	_, hdr, _ = getEnvelope(t, ts.URL+"/api/v1/stats", "X-Request-Id", "client-chosen-7")
	if got := hdr.Get("X-Request-Id"); got != "client-chosen-7" {
		t.Fatalf("request ID = %q, want echo", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := NewCluster(oneShard(t))
	h := s.withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rec.Code)
	}
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != ErrCodeInternal {
		t.Fatalf("error = %+v", env.Error)
	}
}

func TestWriteEnvelopeBuffersStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	writeEnvelope(rec, http.StatusOK, Envelope{Data: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (not a committed 200)", rec.Code)
	}
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not a clean envelope: %v\n%s", err, rec.Body.Bytes())
	}
	if env.Error == nil || env.Error.Code != ErrCodeInternal {
		t.Fatalf("error = %+v", env.Error)
	}

	rec = httptest.NewRecorder()
	writeBareJSON(rec, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("bare: status %d, want 500", rec.Code)
	}
}

// TestV1ConcurrentReadsAndIngest drives reads, trends, ingestion and
// forced flushes concurrently; meaningful under -race.
func TestV1ConcurrentReadsAndIngest(t *testing.T) {
	ts, e := engineServer(t)
	var wg sync.WaitGroup
	paths := []string{
		"/api/v1/bloggers/top?limit=5",
		"/api/v1/trends?buckets=3&emerging=2",
		"/api/v1/engine",
		"/api/top?k=2",
		"/api/trends?buckets=3&emerging=2",
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + paths[(w+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := e.AddBatch(core.Batch{Posts: []*blog.Post{{
				ID:     blog.PostID("conc-" + string(rune('a'+i))),
				Author: "Zoe",
				Body:   "concurrent ingest payload",
			}}}); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := e.Refresh(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
}
