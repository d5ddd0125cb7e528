package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/wal"
)

// settleCluster polls until every shard is healthy with an empty spill.
func settleCluster(t *testing.T, cl *cluster.Cluster, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := cl.FullStatus().SpillPending == 0
		for _, h := range cl.ShardHealths() {
			ok = ok && h == cluster.HealthHealthy
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not settle: health=%v", cl.ShardHealths())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIngestShedsWith429: once a quarantined shard's spill queue is full,
// the ingest surface sheds with 429 overloaded + a Retry-After hint, and
// the same write succeeds after the supervisor drains the shard.
func TestIngestShedsWith429(t *testing.T) {
	ts, cl := clusterServer(t, nil, cluster.Options{
		Shards:           1,
		SpillLimit:       1,
		ShardTimeout:     time.Second,
		ProbeInterval:    5 * time.Millisecond,
		ProbeTimeout:     40 * time.Millisecond,
		BreakerThreshold: 2,
		IngestRetryDelay: time.Millisecond,
	})
	var wedged atomic.Bool
	wedged.Store(true)
	cl.SetSlowShardHook(func(int) {
		if wedged.Load() {
			time.Sleep(150 * time.Millisecond)
		}
	})
	cl.CrashShard(0)

	body := func(i int) string {
		return fmt.Sprintf(`{"id":"ov%d","author":"Zoe","body":"x","posted":"2009-06-01T00:00:00Z"}`, i)
	}
	// SpillLimit 1: the first write acknowledges into the spill queue ...
	if sc, _, b := fetch(t, "POST", ts.URL+"/api/v1/posts", body(0)); sc != http.StatusAccepted {
		t.Fatalf("spill ack status = %d, body %s", sc, b)
	}
	// ... and the second is shed.
	sc, hdr, b := fetch(t, "POST", ts.URL+"/api/v1/posts", body(1))
	if sc != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, body %s", sc, b)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", hdr.Get("Retry-After"))
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != ErrCodeOverloaded {
		t.Fatalf("shed error = %+v, want code %q", env.Error, ErrCodeOverloaded)
	}

	// After the wedge clears the supervisor restarts the shard and replays
	// the spill; the shed write now lands normally.
	wedged.Store(false)
	settleCluster(t, cl, 10*time.Second)
	if sc, _, b := fetch(t, "POST", ts.URL+"/api/v1/posts", body(1)); sc != http.StatusAccepted {
		t.Fatalf("post-recovery status = %d, body %s", sc, b)
	}
	if st := cl.FullStatus(); st.ShedRequests == 0 || st.SpilledRecords == 0 {
		t.Fatalf("shed/spill counters did not move: %+v", st)
	}
}

// healthzBody is the decoded healthz data payload.
type healthzBody struct {
	Status     string                   `json:"status"`
	Live       bool                     `json:"live"`
	Durability string                   `json:"durability"`
	Shards     []cluster.ShardReadiness `json:"shards"`
}

func decodeHealthz(t *testing.T, b []byte) healthzBody {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	var hz healthzBody
	if err := json.Unmarshal(env.Data, &hz); err != nil {
		t.Fatal(err)
	}
	return hz
}

// stickyFS fails every file sync while tripped.
type stickyFS struct {
	wal.FS
	fail atomic.Bool
}

func (f *stickyFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &stickyFile{File: file, fs: f}, nil
}

type stickyFile struct {
	wal.File
	fs *stickyFS
}

func (f *stickyFile) Sync() error {
	if f.fs.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestHealthzFailStop: when a durable engine's WAL fail-stops, healthz
// flips to 503 with durability "failed" so load balancers drain the node.
func TestHealthzFailStop(t *testing.T) {
	ffs := &stickyFS{FS: wal.OSFS()}
	cl, err := cluster.New(nil, cluster.Options{
		Shards:  1,
		DataDir: t.TempDir(),
		Engine: core.EngineOptions{
			FlushEvery: 1 << 20, FlushInterval: time.Hour,
			Durability: core.DurabilityOptions{SyncEvery: 1, SyncInterval: -1, FS: ffs},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ts := httptest.NewServer(NewCluster(cl))
	t.Cleanup(ts.Close)
	e := cl.Shard(0)

	sc, _, b := fetch(t, "GET", ts.URL+"/api/v1/healthz", "")
	if hz := decodeHealthz(t, b); sc != http.StatusOK || hz.Status != "ok" || hz.Durability != "ok" {
		t.Fatalf("healthy healthz = %d %+v", sc, hz)
	}

	ffs.fail.Store(true)
	if err := e.AddBatch(core.Batch{Posts: []*blog.Post{{ID: "hp1", Author: "Zoe", Body: "x"}}}); err == nil {
		t.Fatal("write during fsync failure must not be acknowledged")
	}
	sc, _, b = fetch(t, "GET", ts.URL+"/api/v1/healthz", "")
	hz := decodeHealthz(t, b)
	if sc != http.StatusServiceUnavailable || hz.Status != "failstop" || hz.Durability != "failed" {
		t.Fatalf("fail-stopped healthz = %d %+v", sc, hz)
	}
}

// TestHealthzShardedReadiness: the multi-shard healthz carries per-shard
// rows, and a quarantined shard surfaces there without failing the probe.
func TestHealthzShardedReadiness(t *testing.T) {
	ts, cl := clusterServer(t, blog.Figure1Corpus(), cluster.Options{
		Shards:        3,
		ProbeInterval: 5 * time.Millisecond,
	})
	sc, _, b := fetch(t, "GET", ts.URL+"/api/v1/healthz", "")
	hz := decodeHealthz(t, b)
	if sc != http.StatusOK || hz.Status != "ok" || len(hz.Shards) != 3 {
		t.Fatalf("sharded healthz = %d %+v", sc, hz)
	}
	for _, sh := range hz.Shards {
		if sh.Health != "healthy" || sh.Durability != "off" {
			t.Fatalf("shard row %+v, want healthy/off", sh)
		}
	}
	// In-memory shards never fail-stop, so even a crashed shard keeps the
	// probe at 200 — it shows up in its row instead.
	var wedged atomic.Bool
	wedged.Store(true)
	cl.SetSlowShardHook(func(si int) {
		if si == 1 && wedged.Load() {
			time.Sleep(150 * time.Millisecond)
		}
	})
	defer wedged.Store(false)
	cl.CrashShard(1)
	sc, _, b = fetch(t, "GET", ts.URL+"/api/v1/healthz", "")
	if hz = decodeHealthz(t, b); sc != http.StatusOK || hz.Shards[1].Health == "healthy" {
		t.Fatalf("healthz after crash = %d %+v", sc, hz)
	}
}
