package api

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
)

// TestV1EngineDurabilityCounters pins the WAL/checkpoint counters on the
// wire: GET /api/v1/engine must carry walRecords, walSyncs, checkpoints,
// recoveredRecords and recoveryTruncatedAt, and they must move as a durable
// engine ingests.
func TestV1EngineDurabilityCounters(t *testing.T) {
	cl, err := cluster.New(blog.Figure1Corpus(), cluster.Options{
		Shards:  1,
		DataDir: t.TempDir(),
		Engine: core.EngineOptions{
			FlushEvery:    1 << 20,
			FlushInterval: time.Hour,
			Durability: core.DurabilityOptions{
				SyncEvery:    1,
				SyncInterval: -1,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ts := httptest.NewServer(NewCluster(cl))
	t.Cleanup(ts.Close)
	e := cl.Shard(0)

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
	asInt := func(fields map[string]json.RawMessage, key string) int64 {
		t.Helper()
		raw, ok := fields[key]
		if !ok {
			t.Fatalf("engine payload missing %q: have %v", key, keysOf(fields))
		}
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return v
	}

	fields := fetch()
	if got := asInt(fields, "recoveredRecords"); got != 0 {
		t.Fatalf("fresh directory recoveredRecords = %d, want 0", got)
	}
	if got := asInt(fields, "recoveryTruncatedAt"); got != -1 {
		t.Fatalf("clean recovery recoveryTruncatedAt = %d, want -1", got)
	}
	// The preloaded Figure-1 corpus is checkpointed on first boot so it is
	// durable without ever having been logged.
	if got := asInt(fields, "checkpoints"); got != 1 {
		t.Fatalf("boot checkpoints = %d, want 1", got)
	}
	if got := asInt(fields, "walRecords"); got != 0 {
		t.Fatalf("pre-ingest walRecords = %d, want 0", got)
	}

	if err := e.AddBatch(core.Batch{Posts: []*blog.Post{{
		ID: "durable-api-p1", Author: "Amery", Title: "durable",
		Body: "a post that must hit the log", Posted: time.Unix(1700300000, 0),
	}}}); err != nil {
		t.Fatal(err)
	}
	fields = fetch()
	if got := asInt(fields, "walRecords"); got != 1 {
		t.Fatalf("post-ingest walRecords = %d, want 1", got)
	}
	if got := asInt(fields, "walSyncs"); got < 1 {
		t.Fatalf("post-ingest walSyncs = %d, want >= 1 (SyncEvery=1)", got)
	}
}
