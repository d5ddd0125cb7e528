package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/lexicon"
)

// oneShard boots a 1-shard cluster over the Figure 1 corpus that flushes
// on manual Refresh only, so tests are deterministic.
func oneShard(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(blog.Figure1Corpus(), cluster.Options{Shards: 1, Engine: quietEngineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// server serves a 1-shard cluster and hands back the analyzed system
// behind its current snapshot.
func server(t *testing.T) (*httptest.Server, *core.System) {
	t.Helper()
	ts, e, _ := v1EngineServer(t)
	return ts, e.Current().System
}

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body interface{}, v interface{}) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := server(t)
	var st blog.Stats
	if code := getJSON(t, ts.URL+"/api/stats", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.Bloggers != 9 || st.Posts != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTopEndpoint(t *testing.T) {
	ts, _ := server(t)
	var top []scored
	if code := getJSON(t, ts.URL+"/api/top?k=3", &top); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(top) != 3 || top[0].Blogger != "Amery" {
		t.Fatalf("top = %v", top)
	}
	if top[0].Score <= top[1].Score {
		t.Fatal("scores not descending")
	}
}

func TestDomainsEndpoint(t *testing.T) {
	ts, _ := server(t)
	var domains []string
	if code := getJSON(t, ts.URL+"/api/domains", &domains); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(domains) != 10 {
		t.Fatalf("domains = %v", domains)
	}
}

func TestDomainEndpoint(t *testing.T) {
	ts, _ := server(t)
	var top []scored
	if code := getJSON(t, ts.URL+"/api/domain/"+lexicon.Economics+"?k=1", &top); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(top) != 1 || top[0].Blogger != "Amery" {
		t.Fatalf("Economics top = %v", top)
	}
	if code := getJSON(t, ts.URL+"/api/domain/", nil); code != http.StatusBadRequest {
		t.Fatalf("empty domain status = %d", code)
	}
}

func TestBloggerEndpoint(t *testing.T) {
	ts, _ := server(t)
	var detail bloggerDetail
	if code := getJSON(t, ts.URL+"/api/blogger/Amery", &detail); code != 200 {
		t.Fatalf("status %d", code)
	}
	if detail.Posts != 2 || detail.Influence <= 0 || len(detail.TopPosts) != 2 {
		t.Fatalf("detail = %+v", detail)
	}
	if code := getJSON(t, ts.URL+"/api/blogger/Nobody", nil); code != http.StatusNotFound {
		t.Fatalf("unknown blogger status = %d", code)
	}
}

// TestBloggerTopPosts: the detail's top posts are the author's three
// best by score, ties broken by ascending post ID, whatever order the
// posts were written in. Body-less, comment-less posts all score 0, so
// the tie-break decides between them.
func TestBloggerTopPosts(t *testing.T) {
	c := blog.Figure1Corpus()
	const author = "Prolific"
	if err := c.AddBlogger(&blog.Blogger{ID: author}); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2009, 7, 1, 0, 0, 0, 0, time.UTC)
	for i, p := range []struct{ id, body string }{
		{"pro-2", "the league final went to extra time"}, {"pro-5", ""},
		{"pro-6", "markets rallied on the rate decision"}, {"pro-4", ""}, {"pro-1", ""}, {"pro-3", ""},
	} {
		err := c.AddPost(&blog.Post{ID: blog.PostID(p.id), Author: author, Title: "t " + p.id,
			Body: p.body, Posted: when.Add(time.Duration(i) * time.Hour)})
		if err != nil {
			t.Fatal(err)
		}
	}
	ts, cl := clusterServer(t, c, cluster.Options{Shards: 1})
	var detail bloggerDetail
	if code := getJSON(t, ts.URL+"/api/blogger/"+author, &detail); code != 200 {
		t.Fatalf("status %d", code)
	}
	res := cl.Shard(0).Current().Result()
	want := []blog.PostID{"pro-1", "pro-2", "pro-3", "pro-4", "pro-5", "pro-6"}
	sort.SliceStable(want, func(i, j int) bool { return res.PostScore(want[i]) > res.PostScore(want[j]) })
	want = want[:3]
	if len(detail.TopPosts) != 3 {
		t.Fatalf("top posts = %+v, want %v", detail.TopPosts, want)
	}
	for i, tp := range detail.TopPosts {
		if tp.ID != want[i] || tp.Score != res.PostScore(want[i]) || tp.Title != "t "+string(want[i]) {
			t.Fatalf("top post %d = %+v, want %s (score %v)", i, tp, want[i], res.PostScore(want[i]))
		}
	}
	if detail.TopPosts[2].Score != 0 || detail.TopPosts[1].Score == 0 {
		t.Fatalf("want two scored posts then the first tied zero: %+v", detail.TopPosts)
	}
}

func TestAdvertEndpoint(t *testing.T) {
	ts, _ := server(t)
	var recs []scored
	code := postJSON(t, ts.URL+"/api/advert",
		advertRequest{Text: "the stock market and bank interest rates", K: 2}, &recs)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(recs) != 2 {
		t.Fatalf("recs = %v", recs)
	}
	// Dropdown mode.
	code = postJSON(t, ts.URL+"/api/advert",
		advertRequest{Domains: []string{lexicon.Computer}, K: 1}, &recs)
	if code != 200 || len(recs) != 1 {
		t.Fatalf("dropdown mode: status=%d recs=%v", code, recs)
	}
	// Neither text nor domains.
	if code := postJSON(t, ts.URL+"/api/advert", advertRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty advert status = %d", code)
	}
}

func TestProfileEndpoint(t *testing.T) {
	ts, _ := server(t)
	var recs []scored
	code := postJSON(t, ts.URL+"/api/profile",
		profileRequest{Text: "I love programming and databases", K: 2}, &recs)
	if code != 200 || len(recs) != 2 {
		t.Fatalf("status=%d recs=%v", code, recs)
	}
	if code := postJSON(t, ts.URL+"/api/profile", profileRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty profile status = %d", code)
	}
}

func TestNetworkEndpoints(t *testing.T) {
	ts, _ := server(t)
	var net struct {
		Center string `json:"Center"`
		Nodes  []struct {
			ID string `json:"ID"`
		} `json:"Nodes"`
	}
	if code := getJSON(t, ts.URL+"/api/network/Amery?radius=1", &net); code != 200 {
		t.Fatalf("status %d", code)
	}
	if net.Center != "Amery" || len(net.Nodes) == 0 {
		t.Fatalf("network = %+v", net)
	}
	// SVG flavor.
	resp, err := http.Get(ts.URL + "/api/network/Amery.svg?radius=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "<svg") {
		t.Fatalf("SVG endpoint: status=%d body[0:20]=%q", resp.StatusCode, string(body[:min(20, len(body))]))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("SVG content type = %q", ct)
	}
	if code := getJSON(t, ts.URL+"/api/network/Nobody", nil); code != http.StatusNotFound {
		t.Fatalf("unknown center status = %d", code)
	}
}

func TestTrendsEndpoint(t *testing.T) {
	ts, _ := server(t)
	var rep struct {
		Slopes   map[string]float64 `json:"Slopes"`
		Emerging []struct {
			ID string `json:"ID"`
		} `json:"Emerging"`
	}
	if code := getJSON(t, ts.URL+"/api/trends?buckets=2&emerging=2", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(rep.Slopes) == 0 {
		t.Fatalf("no slopes: %+v", rep)
	}
	if len(rep.Emerging) == 0 || len(rep.Emerging) > 2 {
		t.Fatalf("emerging = %v", rep.Emerging)
	}
}

// TestLegacyTrendsCapped: the alias caps buckets and emerging at v1's
// bounds instead of sizing an allocation from the query string.
func TestLegacyTrendsCapped(t *testing.T) {
	ts, _ := server(t)
	var rep struct {
		DomainSeries map[string]struct {
			Values []float64 `json:"Values"`
		} `json:"DomainSeries"`
		Emerging []struct {
			ID string `json:"ID"`
		} `json:"Emerging"`
	}
	if code := getJSON(t, ts.URL+"/api/trends?buckets=5000000&emerging=5000000", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(rep.DomainSeries) == 0 {
		t.Fatal("no domain series")
	}
	for d, s := range rep.DomainSeries {
		if len(s.Values) != MaxBuckets {
			t.Fatalf("%s series has %d values, want %d", d, len(s.Values), MaxBuckets)
		}
	}
	if len(rep.Emerging) > MaxEmerging {
		t.Fatalf("%d emerging bloggers, want at most %d", len(rep.Emerging), MaxEmerging)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := server(t)
	resp, err := http.Post(ts.URL+"/api/top", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/top status = %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/api/advert", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/advert status = %d", code)
	}
}

func TestBadJSON(t *testing.T) {
	ts, _ := server(t)
	resp, err := http.Post(ts.URL+"/api/advert", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}
}
