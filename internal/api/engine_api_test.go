package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mass/internal/core"
)

// engineServer serves a 1-shard cluster and hands back its engine.
func engineServer(t *testing.T) (*httptest.Server, *core.Engine) {
	t.Helper()
	ts, e, _ := v1EngineServer(t)
	return ts, e
}

func TestIngestPostVisibleAfterRefresh(t *testing.T) {
	ts, e := engineServer(t)

	var ack struct {
		Accepted int    `json:"accepted"`
		Pending  int    `json:"pending"`
		Seq      uint64 `json:"seq"`
	}
	resp, err := http.Post(ts.URL+"/api/posts", "application/json", strings.NewReader(
		`{"id":"live1","author":"Zoe","title":"hi","body":"a long report on basketball playoffs and sneakers"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted != 1 || ack.Pending == 0 {
		t.Fatalf("unexpected ack %+v", ack)
	}

	// Comment and link, batch (array) form.
	resp, err = http.Post(ts.URL+"/api/comments", "application/json", strings.NewReader(
		`[{"post":"live1","commenter":"Amery","text":"great stuff"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("comments status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/api/links", "application/json", strings.NewReader(
		`[{"from":"Amery","to":"Zoe"},{"from":"Zoe","to":"Amery"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("links status %d", resp.StatusCode)
	}
	resp.Body.Close()

	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}

	var detail struct {
		Posts int `json:"posts"`
	}
	if code := getJSON(t, ts.URL+"/api/blogger/Zoe", &detail); code != http.StatusOK {
		t.Fatalf("blogger status %d", code)
	}
	if detail.Posts == 0 {
		t.Fatal("ingested post not visible after refresh")
	}

	var status struct {
		Live    bool   `json:"live"`
		Seq     uint64 `json:"seq"`
		Pending int    `json:"pending"`
		Posts   int    `json:"posts"`
	}
	if code := getJSON(t, ts.URL+"/api/engine", &status); code != http.StatusOK {
		t.Fatalf("engine status %d", code)
	}
	if !status.Live || status.Seq < 2 || status.Pending != 0 {
		t.Fatalf("unexpected engine status %+v", status)
	}
}

func TestIngestRejectsBadPayload(t *testing.T) {
	ts, _ := engineServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"id":"","author":"Zoe"}`, http.StatusBadRequest}, // empty post ID
		{`not json`, http.StatusBadRequest},
		{`[{"id":"a","author":"Zoe"},oops]`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/api/posts", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// A comment on an unknown post must fail without partial effects.
	resp, err := http.Post(ts.URL+"/api/comments", "application/json", strings.NewReader(
		`{"post":"missing","commenter":"Amery","text":"hi"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("comment on unknown post: status %d", resp.StatusCode)
	}
}
