package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
