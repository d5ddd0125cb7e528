package api

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/lexicon"
	"mass/internal/synth"
)

// memoCorpus is the corpus the memo tests serve, at every shard count.
func memoCorpus(t *testing.T) *blog.Corpus {
	t.Helper()
	c, _, err := synth.Generate(synth.Config{Seed: 11, Bloggers: 40, Posts: 250})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// memoProbes is every memoizable v1 read: the routes behind v1Read plus
// POST /api/v1/query (a routed and two scattered ASTs). Trends answers
// 501 on a sharded cluster, so it is probed at one shard only.
func memoProbes(shards int) []struct{ method, path, body string } {
	p := []struct{ method, path, body string }{
		{"GET", "/api/v1/stats", ""},
		{"GET", "/api/v1/bloggers/top", ""},
		{"GET", "/api/v1/bloggers/top?limit=3&offset=1", ""},
		{"GET", "/api/v1/bloggers/blogger0001", ""},
		{"GET", "/api/v1/bloggers/blogger0001/network?radius=1", ""},
		{"GET", "/api/v1/domains", ""},
		{"GET", "/api/v1/domains/" + lexicon.Economics + "/top?limit=5", ""},
		{"POST", "/api/v1/advert", `{"text":"the stock market and monetary policy","k":3}`},
		{"POST", "/api/v1/advert", `{"domains":["` + lexicon.Sports + `"],"k":4}`},
		{"POST", "/api/v1/profile", `{"text":"basketball playoffs and sneakers","k":3}`},
		{"POST", "/api/v1/query", `{"entity":"bloggers","limit":5}`},
		{"POST", "/api/v1/query", `{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":4}`},
		{"POST", "/api/v1/query", `{"entity":"posts","where":{"field":"author","op":"eq","value":"blogger0001"},"limit":3}`},
	}
	if shards == 1 {
		p = append(p, struct{ method, path, body string }{"GET", "/api/v1/trends", ""})
	}
	return p
}

// exchange is everything a memo hit must reproduce.
type exchange struct {
	status              int
	etag, ctype, length string
	body                string
}

func doExchange(t *testing.T, base, method, path, body string, hdr ...string) exchange {
	t.Helper()
	code, h, b := fetch(t, method, base+path, body, hdr...)
	return exchange{code, h.Get("ETag"), h.Get("Content-Type"), h.Get("Content-Length"), string(b)}
}

// memoExecs counts the work a memo miss does: queries executed by the
// view's engines plus scatters run.
func memoExecs(cl *cluster.Cluster) int64 {
	n := int64(cl.FullStatus().ScatterQueries)
	for _, s := range cl.View().Snaps {
		n += s.QueryCache().Computes()
	}
	return n
}

// TestMemoDifferential: on a server whose memo is warm, every memoizable
// read — GET and HEAD, with and without If-None-Match, before and after a
// write plus Refresh — is byte-identical (status, validator, headers,
// body) to the answer of a server that has not seen the request, at one
// and three shards.
func TestMemoDifferential(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", shards), func(t *testing.T) {
			// Separate corpora: a one-shard cluster ingests into the corpus
			// it was built over.
			warm, warmCl := clusterServer(t, memoCorpus(t), cluster.Options{Shards: shards})
			cold, coldCl := clusterServer(t, memoCorpus(t), cluster.Options{Shards: shards})
			// A set slow-shard hook, even a no-op one, bypasses the memo: the
			// cold server computes every answer afresh.
			coldCl.SetSlowShardHook(func(int) {})
			stale := map[string]string{} // phase-one validators, replayed after the write
			check := func(phase string) {
				hits0, _ := warmCl.MemoStats()
				wantHits := uint64(0)
				for _, p := range memoProbes(shards) {
					methods := []string{p.method}
					if p.method == "GET" {
						methods = append(methods, "HEAD")
					}
					for _, m := range methods {
						req := m + " " + p.path + " " + p.body
						what := phase + " " + req
						first := doExchange(t, warm.URL, m, p.path, p.body)
						if first.status != http.StatusOK {
							t.Fatalf("%s: status %d %s", what, first.status, first.body)
						}
						if first.etag != "" {
							want := doExchange(t, cold.URL, m, p.path, p.body, "If-None-Match", first.etag)
							got := doExchange(t, warm.URL, m, p.path, p.body, "If-None-Match", first.etag)
							if got != want || got.status != http.StatusNotModified {
								t.Fatalf("%s with If-None-Match: memoized %+v, cold %+v", what, got, want)
							}
							if p.method == "POST" {
								wantHits++ // the POST /query hit that became a 304
							}
						}
						want := doExchange(t, cold.URL, m, p.path, p.body)
						hit := doExchange(t, warm.URL, m, p.path, p.body)
						wantHits++
						if first != want || hit != want {
							t.Fatalf("%s:\n miss %+v\n hit  %+v\n cold %+v", what, first, hit, want)
						}
						if phase == "before" {
							stale[req] = first.etag
						} else if old := stale[req]; old != "" {
							got := doExchange(t, warm.URL, m, p.path, p.body, "If-None-Match", old)
							want := doExchange(t, cold.URL, m, p.path, p.body, "If-None-Match", old)
							if got != want || got.status != http.StatusOK {
								t.Fatalf("%s with the old validator: memoized %+v, cold %+v", what, got, want)
							}
							wantHits++
						}
					}
				}
				if hits, _ := warmCl.MemoStats(); hits-hits0 < wantHits {
					t.Fatalf("%s: %d memo hits, want at least %d", phase, hits-hits0, wantHits)
				}
			}
			check("before")
			for _, cl := range []*cluster.Cluster{warmCl, coldCl} {
				if err := cl.AddBatch(core.Batch{Posts: []*blog.Post{{ID: "memo-live", Author: "blogger0001", Title: "hi",
					Body: "a long report on basketball playoffs and sneakers"}}}); err != nil {
					t.Fatal(err)
				}
				if err := cl.Refresh(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			check("after")
		})
	}
}

// TestMemoWorkCount: a repeated memoizable read costs no query execution
// and no encode. The memo lookup precedes every decode and encode on these
// routes, so "no miss" is "no encode".
func TestMemoWorkCount(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", shards), func(t *testing.T) {
			ts, cl := clusterServer(t, memoCorpus(t), cluster.Options{Shards: shards})
			for _, p := range memoProbes(shards) {
				if code, _, body := fetch(t, p.method, ts.URL+p.path, p.body); code != http.StatusOK {
					t.Fatalf("%s %s: status %d %s", p.method, p.path, code, body)
				}
				execs := memoExecs(cl)
				hits, misses := cl.MemoStats()
				fetch(t, p.method, ts.URL+p.path, p.body)
				h, m := cl.MemoStats()
				if h != hits+1 || m != misses {
					t.Fatalf("%s %s repeated: hits %d->%d, misses %d->%d; want one hit and no miss (encode)",
						p.method, p.path, hits, h, misses, m)
				}
				if n := memoExecs(cl); n != execs {
					t.Fatalf("%s %s repeated: %d query executions, want 0", p.method, p.path, n-execs)
				}
			}
		})
	}
}

// TestMemoNeverStoresFailures: 4xx and 413 answers are recomputed on every
// request; while a shard is slow, reads are computed cold even where the
// memo holds a complete answer, and a degraded partial is not stored — the
// next read once the slow shard is back is a miss that answers in full.
func TestMemoNeverStoresFailures(t *testing.T) {
	ts, cl := clusterServer(t, memoCorpus(t), cluster.Options{Shards: 3, ShardTimeout: 75 * time.Millisecond})
	huge := `{"text":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	failures := []struct {
		method, path, body string
		status             int
	}{
		{"GET", "/api/v1/bloggers/top?limit=0", "", http.StatusBadRequest},
		{"GET", "/api/v1/bloggers/nobody", "", http.StatusNotFound},
		{"GET", "/api/v1/domains/nope/top", "", http.StatusNotFound},
		{"POST", "/api/v1/advert", `{}`, http.StatusBadRequest},
		{"POST", "/api/v1/profile", `{"text":"x","bogus":1}`, http.StatusBadRequest},
		{"POST", "/api/v1/query", `{nope`, http.StatusBadRequest},
		{"POST", "/api/v1/query", `{"entity":"bloggers","orderBy":[{"field":"nope"}]}`, http.StatusBadRequest},
		{"POST", "/api/v1/advert", huge, http.StatusRequestEntityTooLarge},
		{"POST", "/api/v1/query", huge, http.StatusRequestEntityTooLarge},
	}
	hits, _ := cl.MemoStats()
	for _, f := range failures {
		for i := 0; i < 2; i++ {
			if code, _, body := fetch(t, f.method, ts.URL+f.path, f.body); code != f.status {
				t.Fatalf("%s %s: status %d, want %d: %.200s", f.method, f.path, code, f.status, body)
			}
		}
	}
	if h, _ := cl.MemoStats(); h != hits {
		t.Fatalf("failed requests were answered from the memo: %d hits", h-hits)
	}

	const stored = "/api/v1/bloggers/top?limit=5"
	_, _, complete := fetch(t, "GET", ts.URL+stored, "")
	cl.SetSlowShardHook(func(shard int) {
		if shard == 1 {
			time.Sleep(300 * time.Millisecond)
		}
	})
	// Two misses stay under the default breaker threshold of three.
	for _, path := range []string{stored, "/api/v1/bloggers/top"} {
		_, _, body := fetch(t, "GET", ts.URL+path, "")
		if env := decodeEnvelope(t, body); env.Meta == nil || !env.Meta.Degraded {
			t.Fatalf("read of %s with a slow shard: meta %+v, want degraded", path, env.Meta)
		}
	}
	cl.SetSlowShardHook(nil)
	hits, _ = cl.MemoStats()
	_, _, body := fetch(t, "GET", ts.URL+"/api/v1/bloggers/top", "")
	if env := decodeEnvelope(t, body); env.Meta == nil || env.Meta.Degraded {
		t.Fatalf("read after the slow shard cleared: meta %+v, want complete", env.Meta)
	}
	if h, _ := cl.MemoStats(); h != hits {
		t.Fatalf("first complete read after the degraded ones was a memo hit")
	}
	if _, _, again := fetch(t, "GET", ts.URL+"/api/v1/bloggers/top", ""); string(again) != string(body) {
		t.Fatal("the complete answer was not served again")
	}
	if h, _ := cl.MemoStats(); h != hits+1 {
		t.Fatalf("the complete answer was not memoized: hits %d->%d", hits, h)
	}
	if _, _, again := fetch(t, "GET", ts.URL+stored, ""); string(again) != string(complete) {
		t.Fatal("the answer stored before the slow shard was lost")
	}
}

// TestMemoSkipsDegradedEnvelope: a degraded envelope is written but never
// stored. (A real shard timeout degrades a read without the bypass a set
// hook or an open breaker gives, so this guard is the only one then.)
func TestMemoSkipsDegradedEnvelope(t *testing.T) {
	cl := oneShard(t)
	v := cl.View()
	rec := httptest.NewRecorder()
	writeMemoized(rec, v, "GET /degraded\n", "", Envelope{Data: []int{1}, Meta: &Meta{Degraded: true}})
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("degraded envelope not written: %d %q", rec.Code, rec.Body)
	}
	if _, ok := v.Recall("GET /degraded\n"); ok {
		t.Fatal("a degraded envelope was memoized")
	}
	writeMemoized(httptest.NewRecorder(), v, "GET /complete\n", "", Envelope{Data: []int{1}, Meta: &Meta{}})
	if _, ok := v.Recall("GET /complete\n"); !ok {
		t.Fatal("a complete envelope was not memoized")
	}
}

// TestRequestIDsDistinct: minted request IDs keep their 16-hex-digit shape
// and never repeat within the process.
func TestRequestIDsDistinct(t *testing.T) {
	shape := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool, 10000)
	for i := 0; i < 10000; i++ {
		id := newRequestID()
		if !shape.MatchString(id) {
			t.Fatalf("request ID %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("request ID %q minted twice", id)
		}
		seen[id] = true
	}
	// The middleware mints one per request that arrives without one.
	h := requestIDMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if id := rec.Header().Get(requestIDHeader); !shape.MatchString(id) || seen[id] {
		t.Fatalf("middleware minted %q", id)
	}
}
