// API client tour: drive the versioned /api/v1 surface end to end.
//
// The example boots a 1-shard engine cluster over the Figure 1 corpus,
// serves it on a loopback port, and then acts as a well-behaved v1 client: discover
// the surface, page through a ranking, poll cheaply with ETag/304,
// ingest a post, force a re-analysis, and watch the snapshot seq move.
//
// Run: go run ./examples/apiclient
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	"mass/internal/api"
	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/query"
	"mass/internal/subs"
)

// envelope is the uniform v1 response shape.
type envelope struct {
	Data  json.RawMessage `json:"data"`
	Meta  *api.Meta       `json:"meta"`
	Error *api.Error      `json:"error"`
}

type scored struct {
	Blogger string  `json:"blogger"`
	Score   float64 `json:"score"`
}

func get(base, path, etag string) (int, string, envelope) {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		log.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	var env envelope
	if len(body) > 0 {
		if err := json.Unmarshal(body, &env); err != nil {
			log.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("ETag"), env
}

func main() {
	cl, err := cluster.New(blog.Figure1Corpus(), cluster.Options{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: api.NewCluster(cl)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	fmt.Println("=== /api/v1 client tour ===")

	// 1. Discovery: the surface describes itself.
	_, _, env := get(base, "/api/v1", "")
	var doc struct {
		Version string `json:"version"`
		OpenAPI string `json:"openapi"`
		Routes  []struct {
			Method  string `json:"method"`
			Pattern string `json:"pattern"`
		} `json:"routes"`
	}
	if err := json.Unmarshal(env.Data, &doc); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered %s with %d routes (spec at %s)\n", doc.Version, len(doc.Routes), doc.OpenAPI)

	// 2. Page through the general ranking, two bloggers at a time.
	fmt.Println("\ngeneral ranking, limit=2 pages:")
	for offset := 0; ; {
		_, _, env := get(base, fmt.Sprintf("/api/v1/bloggers/top?limit=2&offset=%d", offset), "")
		var page []scored
		if err := json.Unmarshal(env.Data, &page); err != nil {
			log.Fatal(err)
		}
		for _, s := range page {
			fmt.Printf("  #%-2d %-8s %.4f\n", offset+1, s.Blogger, s.Score)
			offset++
		}
		if env.Meta.Page == nil || offset >= env.Meta.Page.Total || len(page) == 0 {
			break
		}
	}

	// 3. Conditional polling: same generation answers 304, no body.
	code, etag, env := get(base, "/api/v1/stats", "")
	seq := env.Meta.Seq
	fmt.Printf("\nstats at seq %d (etag %s)\n", seq, etag)
	code, _, _ = get(base, "/api/v1/stats", etag)
	fmt.Printf("conditional re-poll: HTTP %d (nothing changed, nothing transferred)\n", code)

	// 4. Ingest a post and force a flush; the validator misses and the
	// new generation answers.
	resp, err := http.Post(base+"/api/v1/posts", "application/json", strings.NewReader(
		`{"id":"tour-1","author":"Zoe","title":"hello","body":"a fresh report on basketball playoffs"}`))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\ningested one post: HTTP %d\n", resp.StatusCode)
	if err := cl.Refresh(context.Background()); err != nil {
		log.Fatal(err)
	}
	code, newTag, env := get(base, "/api/v1/stats", etag)
	fmt.Printf("re-poll after flush: HTTP %d, seq %d -> %d (etag %s)\n", code, seq, env.Meta.Seq, newTag)

	// 5. Errors are machine-readable.
	_, _, env = get(base, "/api/v1/bloggers/top?limit=oops", "")
	fmt.Printf("\nmalformed limit -> code=%q param=%q: %s\n", env.Error.Code, env.Error.Param, env.Error.Message)

	// 6. The composable query endpoint: one POST expresses what used to
	// need a dedicated route — here, "bloggers with at least 2 posts,
	// ordered by Sports influence, with their link authority along".
	ast := `{
		"entity": "bloggers",
		"where": {"field": "posts", "op": "ge", "value": 2},
		"orderBy": [{"field": "domain:Sports", "desc": true}],
		"select": ["gl"],
		"limit": 3
	}`
	resp, err = http.Post(base+"/api/v1/query", "application/json", strings.NewReader(ast))
	if err != nil {
		log.Fatal(err)
	}
	var queryEnv envelope
	if err := json.NewDecoder(resp.Body).Decode(&queryEnv); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	var qres struct {
		Rows []struct {
			ID     string             `json:"id"`
			Score  float64            `json:"score"`
			Fields map[string]float64 `json:"fields"`
		} `json:"rows"`
		Total int    `json:"total"`
		Plan  string `json:"plan"`
	}
	if err := json.Unmarshal(queryEnv.Data, &qres); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPOST /api/v1/query (plan %s, %d matched):\n", qres.Plan, qres.Total)
	for _, r := range qres.Rows {
		fmt.Printf("  %-8s sports=%.4f gl=%.4f\n", r.ID, r.Score, r.Fields["gl"])
	}

	// 7. The same contract in Go: the fluent builder against a pinned
	// cluster view — the canonical embedded read path. A typo'd AST never
	// reaches the executor (strict decoding answers 400).
	qr, _, err := cl.Query(cl.View(), query.Posts().
		Where(query.And(
			query.F(query.FieldComments).Ge(1),
			query.F(query.FieldNovelty).Gt(0.5),
		)).
		OrderBy(query.Desc(query.FieldQuality)).
		Limit(3).Build())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGo builder: top commented-and-novel posts (plan %s):\n", qr.Plan)
	for _, r := range qr.Rows {
		fmt.Printf("  %-8s quality=%.4f\n", r.ID, r.Score)
	}

	bad := strings.NewReader(`{"entity":"bloggers","wherre":{}}`)
	resp, err = http.Post(base+"/api/v1/query", "application/json", bad)
	if err != nil {
		log.Fatal(err)
	}
	var badEnv envelope
	json.NewDecoder(resp.Body).Decode(&badEnv)
	resp.Body.Close()
	fmt.Printf("\ntypo'd query -> HTTP %d code=%q\n", resp.StatusCode, badEnv.Error.Code)

	// 8. Continuous queries: instead of polling, register the query as a
	// standing subscription and let the engine push incremental diffs.
	// The registration response is the replica seed; each SSE frame
	// advances it from one generation to the next.
	resp, err = http.Post(base+"/api/v1/subscriptions", "application/json", strings.NewReader(
		`{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":3}`))
	if err != nil {
		log.Fatal(err)
	}
	var subEnv envelope
	if err := json.NewDecoder(resp.Body).Decode(&subEnv); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	var subResp struct {
		ID     string        `json:"id"`
		Seq    uint64        `json:"seq"`
		Result *query.Result `json:"result"`
		Events string        `json:"events"`
	}
	if err := json.Unmarshal(subEnv.Data, &subResp); err != nil {
		log.Fatal(err)
	}
	replica := subs.NewClientState(subResp.Seq, subResp.Result)
	fmt.Printf("\nsubscribed %s at seq %d: latest %d posts, streaming %s\n",
		subResp.ID, subResp.Seq, len(subResp.Result.Rows), subResp.Events)

	stream, err := http.Get(base + subResp.Events)
	if err != nil {
		log.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)

	// Land a flush that changes the window: the new post is the newest,
	// so it must enter the replica at the top.
	resp, err = http.Post(base+"/api/v1/posts", "application/json", strings.NewReader(
		`{"id":"tour-2","author":"Dan","title":"live","posted":"2030-01-01T12:00:00Z",`+
			`"body":"tonight's sports final, reported live"}`))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if err := cl.Refresh(context.Background()); err != nil {
		log.Fatal(err)
	}

	ev := readSSE(sc)
	if _, err := replica.Apply(ev); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diff seq %d -> %d: %d row(s) carried for a %d-row window; replica head: %s\n",
		ev.PrevSeq, ev.Seq, len(ev.Rows), len(ev.Order), replica.Result().Rows[0].ID)

	// Events chain strictly: a replayed or out-of-order event is detected,
	// not silently applied. A real gap (the connection dropped after an
	// event was sent) reports Gap, and the resync fetch re-seeds the
	// replica at the subscription's current generation.
	if outcome, _ := replica.Apply(ev); outcome == subs.Skipped {
		fmt.Println("replaying the same event: skipped (replica already past it)")
	}
	_, _, env = get(base, "/api/v1/subscriptions/"+subResp.ID, "")
	var resync struct {
		Seq    uint64        `json:"seq"`
		Result *query.Result `json:"result"`
	}
	if err := json.Unmarshal(env.Data, &resync); err != nil {
		log.Fatal(err)
	}
	same := resync.Seq == replica.Seq() && len(resync.Result.Rows) == len(replica.Result().Rows)
	for i := 0; same && i < len(resync.Result.Rows); i++ {
		same = resync.Result.Rows[i].ID == replica.Result().Rows[i].ID
	}
	fmt.Printf("resync fetch at seq %d matches the maintained replica: %v\n", resync.Seq, same)

	req, err := http.NewRequest(http.MethodDelete, base+"/api/v1/subscriptions/"+subResp.ID, nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("canceled subscription: HTTP %d\n", resp.StatusCode)
}

// readSSE scans frames off an SSE stream until one carries a data
// payload (skipping ": ping" heartbeats) and decodes it as a diff event.
func readSSE(sc *bufio.Scanner) *subs.Event {
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev subs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			log.Fatal(err)
		}
		return &ev
	}
	log.Fatal("event stream ended unexpectedly")
	return nil
}
