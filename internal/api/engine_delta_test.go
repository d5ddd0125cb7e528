package api

import (
	"context"
	"encoding/json"
	"testing"

	"mass/internal/blog"
	"mass/internal/core"
)

// TestV1EngineDeltaCounters pins the incremental-PageRank counters on the
// wire: GET /api/v1/engine must carry pageRankDelta, pageRankFallback and
// pageRankPushed, starting at zero and moving once link flushes run.
func TestV1EngineDeltaCounters(t *testing.T) {
	ts, e, _ := v1EngineServer(t)

	fetch := func() map[string]json.RawMessage {
		t.Helper()
		code, _, env := getEnvelope(t, ts.URL+"/api/v1/engine")
		if code != 200 || env.Error != nil {
			t.Fatalf("engine status %d error %+v", code, env.Error)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(env.Data, &fields); err != nil {
			t.Fatal(err)
		}
		return fields
	}
	asUint := func(fields map[string]json.RawMessage, key string) uint64 {
		t.Helper()
		raw, ok := fields[key]
		if !ok {
			t.Fatalf("engine payload missing %q: have %v", key, keysOf(fields))
		}
		var v uint64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return v
	}

	fields := fetch()
	for _, key := range []string{"pageRankDelta", "pageRankFallback", "pageRankPushed"} {
		if got := asUint(fields, key); got != 0 {
			t.Fatalf("fresh engine %s = %d, want 0", key, got)
		}
	}

	// A flush that changes the graph must move exactly one of the path
	// counters (delta when the push state absorbs it, fallback otherwise —
	// which one depends on the residual-mass bound, not on the API).
	if err := e.AddBatch(core.Batch{Bloggers: []*blog.Blogger{{ID: "api-delta-newcomer"}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddBatch(core.Batch{Links: []blog.Link{{From: "api-delta-newcomer", To: "Amery"}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	fields = fetch()
	if d, f := asUint(fields, "pageRankDelta"), asUint(fields, "pageRankFallback"); d+f != 1 {
		t.Fatalf("one graph flush must count one solve path: delta=%d fallback=%d", d, f)
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
