package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/lexicon"
	"mass/internal/subs"
	"mass/internal/synth"
)

func quietEngineOpts() core.EngineOptions {
	return core.EngineOptions{FlushEvery: 1 << 20, FlushInterval: time.Hour}
}

// clusterServer boots an HTTP server over an in-process cluster.
func clusterServer(t *testing.T, c *blog.Corpus, opts cluster.Options) (*httptest.Server, *cluster.Cluster) {
	t.Helper()
	if opts.Engine.FlushEvery == 0 {
		opts.Engine = quietEngineOpts()
	}
	cl, err := cluster.New(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ts := httptest.NewServer(NewCluster(cl))
	t.Cleanup(ts.Close)
	return ts, cl
}

// fetch performs one request and returns status, headers and the raw body.
func fetch(t *testing.T, method, url, body string, hdr ...string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
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
	return resp.StatusCode, resp.Header, data
}

// updateGolden rewrites the wire-format golden files instead of comparing
// against them: go test ./internal/api -run Golden|ByteIdentity -update
var updateGolden = flag.Bool("update", false, "rewrite the wire-format golden files under testdata/")

// wireProbes is the fixed read script the golden files pin: the v1
// surface and the legacy aliases, on the Figure 1 corpus.
var wireProbes = []struct{ method, path, body string }{
	{"GET", "/api/v1", ""},
	{"GET", "/api/v1/stats", ""},
	{"GET", "/api/v1/bloggers/top", ""},
	{"GET", "/api/v1/bloggers/top?limit=3&offset=1", ""},
	{"GET", "/api/v1/bloggers/Amery", ""},
	{"GET", "/api/v1/bloggers/Amery/network", ""},
	{"GET", "/api/v1/bloggers/Amery/network.svg", ""},
	{"GET", "/api/v1/domains", ""},
	{"GET", "/api/v1/domains/" + lexicon.Economics + "/top", ""},
	{"GET", "/api/v1/trends", ""},
	{"POST", "/api/v1/query", `{"entity":"bloggers","limit":5}`},
	{"POST", "/api/v1/query", `{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":10}`},
	{"POST", "/api/v1/advert", `{"text":"the stock market and monetary policy","k":3}`},
	{"POST", "/api/v1/profile", `{"text":"basketball playoffs and sneakers","k":3}`},
	{"GET", "/api/stats", ""},
	{"GET", "/api/top?k=5", ""},
	{"GET", "/api/domains", ""},
	{"GET", "/api/domain/" + lexicon.Economics + "?k=3", ""},
	{"GET", "/api/blogger/Amery", ""},
	{"GET", "/api/network/Amery", ""},
	{"GET", "/api/trends", ""},
	{"POST", "/api/advert", `{"text":"the stock market","k":2}`},
}

// wireTranscript drives the golden script against ts and renders every
// exchange as one record: a "### method path [headers] body" line, then
// status, ETag and the exact body bytes (length-prefixed, so binary-safe).
// After the read probes it exercises a conditional GET and a conditional
// query (both 304), ingests one post, forces a re-analysis through
// refresh, and repeats a set of reads against the new generation.
func wireTranscript(t *testing.T, ts *httptest.Server, refresh func() error) []byte {
	t.Helper()
	var buf bytes.Buffer
	record := func(method, path, body string, hdr ...string) string {
		t.Helper()
		code, h, b := fetch(t, method, ts.URL+path, body, hdr...)
		fmt.Fprintf(&buf, "### %s %s", method, path)
		for i := 0; i+1 < len(hdr); i += 2 {
			fmt.Fprintf(&buf, " [%s: %s]", hdr[i], hdr[i+1])
		}
		if body != "" {
			fmt.Fprintf(&buf, " %s", body)
		}
		fmt.Fprintf(&buf, "\nstatus %d\netag %s\nbody %d\n%s\n", code, h.Get("ETag"), len(b), b)
		return h.Get("ETag")
	}
	for _, p := range wireProbes {
		record(p.method, p.path, p.body)
	}

	etag := record("GET", "/api/v1/stats", "")
	record("GET", "/api/v1/stats", "", "If-None-Match", etag)
	const q = `{"entity":"bloggers","limit":5}`
	record("POST", "/api/v1/query", q, "If-None-Match", record("POST", "/api/v1/query", q))

	record("POST", "/api/v1/posts", `{"id":"live1","author":"Zoe","title":"hi","body":"a long report on basketball playoffs and sneakers"}`)
	if err := refresh(); err != nil {
		t.Fatal(err)
	}
	record("GET", "/api/v1/stats", "", "If-None-Match", etag)
	record("GET", "/api/v1/bloggers/top", "")
	record("GET", "/api/v1/bloggers/Zoe", "")
	record("POST", "/api/v1/query", `{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":3}`)
	record("POST", "/api/v1/profile", `{"text":"basketball playoffs and sneakers","k":3}`)
	record("GET", "/api/stats", "")
	return buf.Bytes()
}

// checkGolden compares a transcript against testdata/name record by
// record (or rewrites the file under -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gr, wr := bytes.Split(got, []byte("\n### ")), bytes.Split(want, []byte("\n### "))
	for i := 0; i < max(len(gr), len(wr)); i++ {
		var g, w []byte
		if i < len(gr) {
			g = gr[i]
		}
		if i < len(wr) {
			w = wr[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: record %d differs\ngot:  %s\nwant: %s", path, i, g, w)
		}
	}
}

// TestClusterSingleShardByteIdentity pins the 1-shard wire format — status,
// ETag and body of every probe, the 304s, the ingest ack and the
// post-refresh reads — against testdata/wire_n1.golden, which was
// recorded while an unsharded engine server still existed and answered
// byte for byte the same.
func TestClusterSingleShardByteIdentity(t *testing.T) {
	ts, cl := clusterServer(t, blog.Figure1Corpus(), cluster.Options{Shards: 1})
	checkGolden(t, "wire_n1.golden", wireTranscript(t, ts, func() error {
		return cl.Refresh(context.Background())
	}))
}

// TestClusterShardedGolden pins the same script on a 3-shard cluster:
// vector seqs and ETags, the merged rankings, the 501s of the surfaces
// that cannot merge, against testdata/wire_n3.golden.
func TestClusterShardedGolden(t *testing.T) {
	ts, cl := clusterServer(t, blog.Figure1Corpus(), cluster.Options{Shards: 3})
	checkGolden(t, "wire_n3.golden", wireTranscript(t, ts, func() error {
		return cl.Refresh(context.Background())
	}))
}

// wireEnvelope decodes just enough of the v1 envelope for assertions.
type wireEnvelope struct {
	Data json.RawMessage `json:"data"`
	Meta *struct {
		Seq      uint64   `json:"seq"`
		Seqs     []uint64 `json:"seqs"`
		Degraded bool     `json:"degraded"`
		Page     *Page    `json:"page"`
	} `json:"meta"`
	Error *Error `json:"error"`
}

func decodeEnvelope(t *testing.T, data []byte) wireEnvelope {
	t.Helper()
	var env wireEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding envelope: %v\n%s", err, data)
	}
	return env
}

func shardedFixture(t *testing.T, opts cluster.Options) (*httptest.Server, *cluster.Cluster, *blog.Corpus) {
	t.Helper()
	c, _, err := synth.Generate(synth.Config{Seed: 11, Bloggers: 40, Posts: 250})
	if err != nil {
		t.Fatal(err)
	}
	ts, cl := clusterServer(t, c, opts)
	return ts, cl, c
}

// TestClusterShardedEnvelope: on a 3-shard cluster the envelope grows the
// seq vector, the ETag becomes the dotted vector, and the engine endpoint
// reports cluster counters.
func TestClusterShardedEnvelope(t *testing.T) {
	ts, cl, c := shardedFixture(t, cluster.Options{Shards: 3})

	code, hdr, body := fetch(t, "GET", ts.URL+"/api/v1/bloggers/top?limit=10", "")
	if code != http.StatusOK {
		t.Fatalf("bloggers/top status %d: %s", code, body)
	}
	env := decodeEnvelope(t, body)
	if env.Meta == nil || len(env.Meta.Seqs) != 3 {
		t.Fatalf("meta.seqs = %+v, want vector of 3", env.Meta)
	}
	etag := hdr.Get("ETag")
	if etag != `"mass-seq-1.1.1"` {
		t.Fatalf("vector ETag = %q, want \"mass-seq-1.1.1\"", etag)
	}
	if code, _, _ = fetch(t, "GET", ts.URL+"/api/v1/bloggers/top?limit=10", "", "If-None-Match", etag); code != http.StatusNotModified {
		t.Fatalf("conditional GET with vector ETag: status %d, want 304", code)
	}

	// Engine status carries the cluster extension fields.
	_, _, body = fetch(t, "GET", ts.URL+"/api/v1/engine", "")
	var engEnv struct {
		Data struct {
			Live           bool     `json:"live"`
			Shards         int      `json:"shards"`
			ShardSeqs      []uint64 `json:"shardSeqs"`
			ScatterQueries uint64   `json:"scatterQueries"`
			BoundaryEdges  int      `json:"boundaryEdges"`
			MergeFallbacks uint64   `json:"mergeFallbacks"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &engEnv); err != nil {
		t.Fatalf("engine envelope: %v\n%s", err, body)
	}
	d := engEnv.Data
	if !d.Live || d.Shards != 3 || len(d.ShardSeqs) != 3 {
		t.Fatalf("engine status = %+v", d)
	}
	if d.ScatterQueries == 0 {
		t.Fatal("scatterQueries did not count the bloggers/top read")
	}
	if d.BoundaryEdges == 0 {
		t.Fatal("synth corpus produced no boundary edges across 3 shards")
	}

	// A scan query scatters; an author-pinned posts query routes.
	code, hdr, body = fetch(t, "POST", ts.URL+"/api/v1/query",
		`{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":10}`)
	if code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, body)
	}
	env = decodeEnvelope(t, body)
	if env.Meta == nil || len(env.Meta.Seqs) != 3 {
		t.Fatalf("query meta.seqs = %+v", env.Meta)
	}
	var res struct {
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal(env.Data, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Plan, "scatter/") {
		t.Fatalf("scan plan = %q, want scatter/ prefix", res.Plan)
	}
	if qtag := hdr.Get("ETag"); !strings.HasPrefix(qtag, `"mass-seq-1.1.1-q`) {
		t.Fatalf("query ETag = %q, want vector+hash form", qtag)
	}
	if code, _, _ = fetch(t, "POST", ts.URL+"/api/v1/query",
		`{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":10}`,
		"If-None-Match", hdr.Get("ETag")); code != http.StatusNotModified {
		t.Fatalf("conditional query: status %d, want 304", code)
	}

	var author string
	for _, p := range c.Posts {
		author = string(p.Author)
		break
	}
	code, _, body = fetch(t, "POST", ts.URL+"/api/v1/query",
		`{"entity":"posts","where":{"field":"author","op":"eq","value":"`+author+`"}}`)
	if code != http.StatusOK {
		t.Fatalf("routed query status %d: %s", code, body)
	}
	env = decodeEnvelope(t, body)
	if err := json.Unmarshal(env.Data, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Plan, "route/") {
		t.Fatalf("author-eq plan = %q, want route/ prefix", res.Plan)
	}

	// Blogger detail resolves through the owner shard.
	if code, _, body = fetch(t, "GET", ts.URL+"/api/v1/bloggers/"+author, ""); code != http.StatusOK {
		t.Fatalf("blogger detail status %d: %s", code, body)
	}

	// Ingest routes by owner; only the owner shard's seq advances.
	code, _, body = fetch(t, "POST", ts.URL+"/api/v1/posts",
		`{"id":"cl-live-1","author":"`+author+`","title":"fresh","body":"a fresh post about economic policy and markets"}`)
	if code != http.StatusAccepted {
		t.Fatalf("cluster ingest status %d: %s", code, body)
	}
	if err := cl.Shard(cl.Owner(blog.BloggerID(author))).Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, hdr, _ = fetch(t, "GET", ts.URL+"/api/v1/bloggers/top?limit=10", "")
	after := hdr.Get("ETag")
	if after == etag || !strings.HasPrefix(after, `"mass-seq-`) || !strings.Contains(after, "2") {
		t.Fatalf("post-ingest vector ETag = %q, want one advanced component", after)
	}
}

// TestClusterUnsupportedSurfaces: trends declare themselves out on a
// sharded deployment with 501 unsupported, on both the v1 route and the
// legacy alias. Subscriptions are served: registration answers 201 and
// the stream pushes the diff of the next flush.
func TestClusterUnsupportedSurfaces(t *testing.T) {
	ts, cl, c := shardedFixture(t, cluster.Options{Shards: 3})

	code, _, body := fetch(t, "GET", ts.URL+"/api/v1/trends", "")
	if code != http.StatusNotImplemented {
		t.Fatalf("v1 trends status %d: %s", code, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error == nil || env.Error.Code != ErrCodeUnsupported {
		t.Fatalf("v1 trends error = %+v, want code %q", env.Error, ErrCodeUnsupported)
	}
	if code, _, _ = fetch(t, "GET", ts.URL+"/api/trends", ""); code != http.StatusNotImplemented {
		t.Fatalf("legacy trends status %d, want 501", code)
	}

	reg, _ := postSubscription(t, ts.URL, `{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":5}`)
	stream, err := http.Get(ts.URL + reg.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", stream.StatusCode)
	}
	author := c.BloggerIDs()[0]
	if code, _, body := fetch(t, "POST", ts.URL+"/api/v1/posts",
		fmt.Sprintf(`{"id":"n3-sub-1","author":%q,"body":"fresh travel notes","posted":"2030-01-01T00:00:00Z"}`, author)); code != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", code, body)
	}
	if err := cl.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The Refresh published once per shard: read events until the
	// replica holds the new post.
	sc := bufio.NewScanner(stream.Body)
	cs := subs.NewClientState(reg.Seq, reg.Result)
	for cs.Result().Rows[0].ID != "n3-sub-1" {
		ev := readSSEEvent(t, sc)
		if outcome, err := cs.Apply(ev); outcome != subs.Applied {
			t.Fatalf("apply outcome %v (%v)", outcome, err)
		}
		if len(ev.Seqs) != 3 {
			t.Fatalf("event seqs %v, want a vector of 3", ev.Seqs)
		}
	}
}

// TestClusterDegradedEnvelope: a shard blowing its scatter deadline
// produces a 200 partial result flagged meta.degraded, not an error and
// not a hang.
func TestClusterDegradedEnvelope(t *testing.T) {
	ts, cl, _ := shardedFixture(t, cluster.Options{Shards: 3, ShardTimeout: 75 * time.Millisecond})

	cl.SetSlowShardHook(func(shard int) {
		if shard == 1 {
			time.Sleep(400 * time.Millisecond)
		}
	})
	defer cl.SetSlowShardHook(nil)

	start := time.Now()
	code, _, body := fetch(t, "GET", ts.URL+"/api/v1/bloggers/top?limit=10", "")
	if code != http.StatusOK {
		t.Fatalf("degraded read status %d: %s", code, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("degraded read took %v, deadline not enforced", elapsed)
	}
	env := decodeEnvelope(t, body)
	if env.Meta == nil || !env.Meta.Degraded {
		t.Fatalf("meta = %+v, want degraded=true", env.Meta)
	}
}

// ownedBy returns a Figure 1 blogger whose owner shard is shard.
func ownedBy(t *testing.T, cl *cluster.Cluster, shard int) blog.BloggerID {
	t.Helper()
	for _, id := range blog.Figure1Corpus().BloggerIDs() {
		if cl.Owner(id) == shard {
			return id
		}
	}
	t.Fatalf("no Figure 1 blogger owned by shard %d", shard)
	return ""
}

// TestClusterMetaSeqIsMax: on a sharded cluster meta.seq is the highest
// shard generation on every route that reports one, including the
// discovery document and healthz, which pin no view for their payload.
func TestClusterMetaSeqIsMax(t *testing.T) {
	ts, cl := clusterServer(t, blog.Figure1Corpus(), cluster.Options{Shards: 2})
	author := ownedBy(t, cl, 1)
	code, _, body := fetch(t, "POST", ts.URL+"/api/v1/posts",
		`{"id":"seq-max-1","author":"`+string(author)+`","title":"t","body":"a fresh post about basketball"}`)
	if code != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", code, body)
	}
	if err := cl.Shard(1).Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, _, body = fetch(t, "GET", ts.URL+"/api/v1/stats", "")
	env := decodeEnvelope(t, body)
	if env.Meta == nil || len(env.Meta.Seqs) != 2 {
		t.Fatalf("stats meta = %+v, want a 2-shard seq vector", env.Meta)
	}
	want := max(env.Meta.Seqs[0], env.Meta.Seqs[1])
	if env.Meta.Seqs[0] == env.Meta.Seqs[1] {
		t.Fatalf("seqs %v: the refresh did not advance shard 1 alone", env.Meta.Seqs)
	}
	for _, path := range []string{"/api/v1", "/api/v1/healthz"} {
		_, _, body := fetch(t, "GET", ts.URL+path, "")
		if got := decodeEnvelope(t, body); got.Meta == nil || got.Meta.Seq != want {
			t.Errorf("%s meta = %+v, want seq %d (max of %v)", path, got.Meta, want, env.Meta.Seqs)
		}
	}
}

// TestClusterScenarioTotalPinned: the scenario endpoints' page.total
// describes the pinned view, not the live cluster — a flush that adds a
// blogger while the scatter is in flight must not leak into it.
func TestClusterScenarioTotalPinned(t *testing.T) {
	ts, cl := clusterServer(t, blog.Figure1Corpus(), cluster.Options{Shards: 2})
	defer cl.SetSlowShardHook(nil)
	for i, tc := range []struct{ path, body string }{
		{"/api/v1/advert", `{"text":"the stock market and monetary policy","k":3}`},
		{"/api/v1/profile", `{"text":"basketball playoffs and sneakers","k":3}`},
	} {
		before := cl.View()
		bloggers := cl.Status().Bloggers
		var once sync.Once
		cl.SetSlowShardHook(func(int) {
			once.Do(func() {
				newcomer := blog.BloggerID(fmt.Sprintf("newcomer-%d", i))
				if err := cl.AddBatch(core.Batch{Posts: []*blog.Post{{
					ID: blog.PostID(newcomer + "-p"), Author: newcomer, Title: "hello",
					Body: "a first post about basketball and the stock market",
				}}}); err != nil {
					t.Error(err)
				}
				if err := cl.Refresh(context.Background()); err != nil {
					t.Error(err)
				}
			})
		})
		code, _, body := fetch(t, "POST", ts.URL+tc.path, tc.body)
		cl.SetSlowShardHook(nil)
		if code != http.StatusOK {
			t.Fatalf("%s status %d: %s", tc.path, code, body)
		}
		if got := cl.Status().Bloggers; got != bloggers+1 {
			t.Fatalf("%s: mid-scatter ingest did not land: %d bloggers, want %d", tc.path, got, bloggers+1)
		}
		env := decodeEnvelope(t, body)
		if env.Meta == nil || env.Meta.Page == nil {
			t.Fatalf("%s meta = %+v", tc.path, env.Meta)
		}
		if !slices.Equal(env.Meta.Seqs, before.Seqs()) {
			t.Fatalf("%s meta.seqs = %v, want the pinned %v", tc.path, env.Meta.Seqs, before.Seqs())
		}
		if env.Meta.Page.Total != bloggers {
			t.Errorf("%s page.total = %d, want %d (the blogger count at meta.seqs %v)",
				tc.path, env.Meta.Page.Total, bloggers, env.Meta.Seqs)
		}
	}
}
