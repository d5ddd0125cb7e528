package api

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/lexicon"
)

// legacyProbes is the fixed script legacy_n1.golden and legacy_n3.golden
// pin: every deprecated /api/* alias except /api/engine (its status
// carries a wall-clock analysis time), on the Figure 1 corpus, through
// the success path, each documented quirk (uncapped and tolerantly parsed
// k and radius, plain-text errors) and each error path. The writes come
// last so every read sees the boot generation.
var legacyProbes = []struct{ method, path, body string }{
	{"GET", "/api/stats", ""},
	{"GET", "/api/top", ""},
	{"GET", "/api/top?k=0", ""},
	{"GET", "/api/top?k=abc", ""},
	{"GET", "/api/top?k=150", ""},
	{"GET", "/api/domains", ""},
	{"GET", "/api/domain/" + lexicon.Economics + "?k=2", ""},
	{"GET", "/api/domain/Nonesuch", ""},
	{"GET", "/api/domain/", ""},
	{"GET", "/api/blogger/Amery", ""},
	{"GET", "/api/blogger/ghost", ""},
	{"GET", "/api/network/Amery", ""},
	{"GET", "/api/network/Amery?radius=-3", ""},
	{"GET", "/api/network/Helen.svg?radius=1", ""},
	{"GET", "/api/network/ghost", ""},
	{"GET", "/api/trends", ""},
	{"GET", "/api/trends?buckets=1", ""},
	{"GET", "/api/trends?buckets=x", ""},
	{"POST", "/api/advert", `{"text":"the stock market and monetary policy","k":2}`},
	{"POST", "/api/advert", `{"domains":["` + lexicon.Economics + `"]}`},
	{"POST", "/api/advert", `{"domains":[""]}`},
	{"POST", "/api/advert", `{"text":"stock market","bogus":1}`},
	{"POST", "/api/advert", `{"text":"stock market"} {"text":"again"}`},
	{"POST", "/api/advert", `{}`},
	{"POST", "/api/advert", `{"text":`},
	{"POST", "/api/profile", `{"text":"basketball playoffs and sneakers","k":150}`},
	{"POST", "/api/profile", `{}`},
	{"POST", "/api/profile", `[1]`},
	{"POST", "/api/posts", `{"id":"legacy1","author":"Zoe","title":"hi","body":"a long report on basketball playoffs"}`},
	{"POST", "/api/posts", `{"id":"post1","author":"Amery","body":"a duplicate of a stored post"}`},
	{"POST", "/api/posts", `[{"id":`},
	{"POST", "/api/comments", `{"post":"post1","commenter":"Bob","text":"great post, I agree"}`},
	{"POST", "/api/comments", `{"post":"no-such-post","commenter":"Bob","text":"orphan"}`},
	{"POST", "/api/comments", `{"post":`},
	{"POST", "/api/links", `[{"from":"Bob","to":"Helen"},{"from":"Leo","to":"Amery"}]`},
	{"POST", "/api/links", `{"from":"Amery","to":"Amery"}`},
	{"POST", "/api/links", `nope`},
	{"GET", "/api/stats", ""},
}

// legacyTranscript drives legacyProbes against ts and renders every
// exchange as one record: status, Content-Type, Content-Length, the
// lifecycle headers and the exact body bytes.
func legacyTranscript(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range legacyProbes {
		code, h, b := fetch(t, p.method, ts.URL+p.path, p.body)
		fmt.Fprintf(&buf, "### %s %s", p.method, p.path)
		if p.body != "" {
			fmt.Fprintf(&buf, " %s", p.body)
		}
		fmt.Fprintf(&buf, "\nstatus %d\ncontent-type %s\ncontent-length %s\ndeprecation %s\nsunset %s\nlink %s\nbody %d\n%s\n",
			code, h.Get("Content-Type"), h.Get("Content-Length"),
			h.Get("Deprecation"), h.Get("Sunset"), h.Get("Link"), len(b), b)
	}
	return buf.Bytes()
}

// TestLegacySingleShardGolden pins the legacy alias surface at one shard
// against testdata/legacy_n1.golden.
func TestLegacySingleShardGolden(t *testing.T) {
	ts, _ := clusterServer(t, blog.Figure1Corpus(), cluster.Options{Shards: 1})
	checkGolden(t, "legacy_n1.golden", legacyTranscript(t, ts))
}

// TestLegacyShardedGolden pins the same script on a 3-shard cluster,
// where trends answer 501, against testdata/legacy_n3.golden.
func TestLegacyShardedGolden(t *testing.T) {
	ts, _ := clusterServer(t, blog.Figure1Corpus(), cluster.Options{Shards: 3})
	checkGolden(t, "legacy_n3.golden", legacyTranscript(t, ts))
}
