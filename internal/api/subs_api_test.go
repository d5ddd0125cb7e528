package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/query"
	"mass/internal/subs"
)

// subRegistration is the client-side view of the registration/resync
// payload (the echoed query AST is skipped — its wire form is the
// Decode dialect, not the Go struct's).
type subRegistration struct {
	ID     string        `json:"id"`
	Seq    uint64        `json:"seq"`
	Result *query.Result `json:"result"`
	Events string        `json:"events"`
}

// postSubscription registers a standing query and returns the decoded
// registration payload.
func postSubscription(t *testing.T, url, body string) (subRegistration, uint64) {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/subscriptions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	var env struct {
		Data subRegistration `json:"data"`
		Meta Meta            `json:"meta"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env.Data, env.Meta.Seq
}

// readSSEEvent scans one `data:` frame off an SSE stream, skipping
// comment heartbeats.
func readSSEEvent(t *testing.T, sc *bufio.Scanner) *subs.Event {
	t.Helper()
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev subs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		return &ev
	}
	t.Fatalf("stream ended before an event arrived: %v", sc.Err())
	return nil
}

// TestSubscriptionLifecycle drives the whole continuous-query surface
// over the wire, at one shard and at three: register → receive a pushed
// diff over SSE after a flush → replay it onto the registration result
// and match a fresh query at the same generation → resync endpoint
// agrees → cancel ends the stream.
func TestSubscriptionLifecycle(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) { subscriptionLifecycle(t, n) })
	}
}

func subscriptionLifecycle(t *testing.T, shards int) {
	ts, cl := clusterServer(t, blog.Figure1Corpus(), cluster.Options{Shards: shards})
	const qBody = `{"entity":"posts","orderBy":[{"field":"quality","desc":true}],"limit":5}`

	reg, metaSeq := postSubscription(t, ts.URL, qBody)
	if reg.ID == "" || reg.Result == nil || reg.Seq != metaSeq {
		t.Fatalf("bad registration payload %+v", reg)
	}
	if reg.Events != "/api/v1/subscriptions/"+reg.ID+"/events" {
		t.Fatalf("events link %q", reg.Events)
	}
	cs := subs.NewClientState(reg.Seq, reg.Result)

	// Attach the stream before the flush so the diff is pushed, not
	// polled.
	stream, err := http.Get(ts.URL + reg.Events)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", stream.StatusCode)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	// A second concurrent stream is a conflict.
	dup, err := http.Get(ts.URL + reg.Events)
	if err != nil {
		t.Fatal(err)
	}
	if dup.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate attach status %d", dup.StatusCode)
	}
	dup.Body.Close()

	// Ingest and flush: the subscriber must receive the diff.
	resp, err := http.Post(ts.URL+"/api/v1/posts", "application/json", strings.NewReader(
		`{"id":"subs-live-1","author":"Amery","title":"updates","body":"an in-depth basketball recap with travel notes"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := cl.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The replayed replica must match a fresh full query at the same
	// generation. A sharded Refresh publishes once per shard, so the
	// stream may push one event per shard before it reaches the view the
	// query is answered from.
	qresp, err := http.Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader(qBody))
	if err != nil {
		t.Fatal(err)
	}
	var qenv struct {
		Data *query.Result `json:"data"`
		Meta Meta          `json:"meta"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&qenv); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	var ev *subs.Event
	for ev == nil || fmt.Sprint(ev.Seqs) != fmt.Sprint(qenv.Meta.Seqs) {
		ev = readSSEEvent(t, sc)
		if ev.PrevSeq != cs.Seq() {
			t.Fatalf("event chains from %d, replica at %d", ev.PrevSeq, cs.Seq())
		}
		if outcome, err := cs.Apply(ev); outcome != subs.Applied {
			t.Fatalf("apply outcome %v (%v)", outcome, err)
		}
	}
	if shards == 1 && qenv.Meta.Seq != ev.Seq {
		t.Fatalf("fresh query at seq %d, event at %d", qenv.Meta.Seq, ev.Seq)
	}
	got, _ := json.Marshal(cs.Result())
	want, _ := json.Marshal(qenv.Data)
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed replica diverged\ngot:  %s\nwant: %s", got, want)
	}

	// Resync endpoint serves the same maintained state.
	rresp, err := http.Get(ts.URL + "/api/v1/subscriptions/" + reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	var renv struct {
		Data subRegistration `json:"data"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&renv); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if renv.Data.Seq != ev.Seq {
		t.Fatalf("resync at seq %d, want %d", renv.Data.Seq, ev.Seq)
	}
	rgot, _ := json.Marshal(renv.Data.Result)
	if !bytes.Equal(rgot, want) {
		t.Fatalf("resync result diverged\ngot:  %s\nwant: %s", rgot, want)
	}

	// Cancel: the stream must end.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/subscriptions/"+reg.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		for sc.Scan() {
		}
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after cancel")
	}

	if _, err := http.Get(ts.URL + "/api/v1/subscriptions/" + reg.ID); err != nil {
		t.Fatal(err)
	}
	nf, _ := http.Get(ts.URL + "/api/v1/subscriptions/" + reg.ID)
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("canceled subscription status %d", nf.StatusCode)
	}
	nf.Body.Close()

	// Engine counters surfaced.
	eresp, err := http.Get(ts.URL + "/api/v1/engine")
	if err != nil {
		t.Fatal(err)
	}
	var eenv struct {
		Data struct {
			PushedDiffs      uint64 `json:"pushedDiffs"`
			IncrementalEvals uint64 `json:"incrementalEvals"`
		} `json:"data"`
	}
	if err := json.NewDecoder(eresp.Body).Decode(&eenv); err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if eenv.Data.PushedDiffs == 0 {
		t.Fatal("engine status reports no pushed diffs")
	}
}

// TestSubscriptionValidation: bad ASTs and unknown IDs answer with the
// envelope vocabulary.
func TestSubscriptionValidation(t *testing.T) {
	ts, _ := engineServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/subscriptions", "application/json",
		strings.NewReader(`{"entity":"sprockets"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad entity status %d", resp.StatusCode)
	}
	resp.Body.Close()
	for _, path := range []string{"/api/v1/subscriptions/nope", "/api/v1/subscriptions/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
