package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/core"
	"mass/internal/linkrank"
	"mass/internal/query"
	"mass/internal/subs"
	"mass/internal/wal"
)

// The chaos harness: deterministic fault injection (crash, wedge, slow
// probe, fsync failure) against the shard supervisor, asserting the three
// robustness invariants end to end — no acknowledged ingest is ever lost,
// no query hangs past its deadline, and a recovered cluster converges to
// the same state as one that never crashed.

// supervisedOptions is the common fast-cadence supervision config the
// chaos tests run under: quick probes so recovery happens within test
// timescales, and a short breaker fuse.
func supervisedOptions(shards int) Options {
	return Options{
		Shards:           shards,
		Engine:           quietEngine(),
		ShardTimeout:     time.Second,
		ProbeInterval:    5 * time.Millisecond,
		ProbeTimeout:     50 * time.Millisecond,
		BreakerThreshold: 2,
		IngestRetryDelay: time.Millisecond,
	}
}

// waitSettled polls until every shard is Healthy with an empty spill
// queue — the supervisor's steady state after faults stop.
func waitSettled(t *testing.T, cl *Cluster, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		settled := cl.FullStatus().SpillPending == 0
		for _, h := range cl.ShardHealths() {
			settled = settled && h == HealthHealthy
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not settle in %v: health=%v spillPending=%d",
				timeout, cl.ShardHealths(), cl.FullStatus().SpillPending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ownedID finds the first ID with the given prefix the ring assigns to
// shard.
func ownedID(cl *Cluster, shard int, prefix string) blog.BloggerID {
	for i := 0; ; i++ {
		id := blog.BloggerID(fmt.Sprintf("%s%04d", prefix, i))
		if cl.Owner(id) == shard {
			return id
		}
	}
}

// clusterPosts unions the post sets across all shards.
func clusterPosts(cl *Cluster) map[blog.PostID]bool {
	out := make(map[blog.PostID]bool)
	for i := 0; i < cl.NumShards(); i++ {
		for pid := range cl.Shard(i).Current().Corpus().Posts() {
			out[pid] = true
		}
	}
	return out
}

// TestBreakerFastFailsQuarantinedShard: a crashed-and-wedged shard must
// not cost scatters its timeout — the open breaker skips it outright, the
// result comes back degraded almost immediately, and after the wedge
// clears the supervisor walks the shard back to Healthy with full data.
func TestBreakerFastFailsQuarantinedShard(t *testing.T) {
	c := postCorpus(t)
	cl, err := New(c, supervisedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wedged atomic.Bool
	wedged.Store(true)
	cl.SetSlowShardHook(func(si int) {
		if si == 2 && wedged.Load() {
			time.Sleep(200 * time.Millisecond) // > ProbeTimeout: rejoin probes fail
		}
	})
	cl.CrashShard(2)
	if h := cl.ShardHealths()[2]; h != HealthQuarantined && h != HealthRecovering {
		t.Fatalf("crashed shard health = %v", h)
	}

	q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(100).Build()
	start := time.Now()
	got, degraded, err := cl.Query(cl.View(), q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("scatter over a quarantined shard must report degraded")
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("degraded scatter took %v — breaker did not fast-fail (timeout is %v)",
			elapsed, cl.opts.ShardTimeout)
	}
	for _, r := range got.Rows {
		if cl.Owner(blog.BloggerID(r.ID)) == 2 {
			t.Fatalf("row %q leaked from the quarantined shard", r.ID)
		}
	}
	fs := cl.FullStatus()
	if fs.BreakerOpens == 0 {
		t.Fatal("breakerOpens counter did not move")
	}
	if fs.ShardHealth[2] == "healthy" {
		t.Fatalf("status shardHealth = %v", fs.ShardHealth)
	}

	// Heal: the half-open probe passes, the shard rejoins, data returns.
	wedged.Store(false)
	waitSettled(t, cl, 10*time.Second)
	got, degraded, err = cl.Query(cl.View(), q)
	if err != nil || degraded {
		t.Fatalf("after rejoin: degraded=%v err=%v", degraded, err)
	}
	if got.Total != len(c.Bloggers) {
		t.Fatalf("after rejoin total = %d, want %d — restart lost data", got.Total, len(c.Bloggers))
	}
	if cl.FullStatus().ShardRestarts == 0 {
		t.Fatal("shardRestarts counter did not move")
	}
}

// TestRoutedReadSkipsQuarantinedOwner: an author-pinned posts query must
// not serve a quarantined owner shard's last snapshot as a healthy
// answer. It must answer exactly like the equivalent unroutable query —
// the scatter that skips the shard — with the same rows, total and
// degraded flag, and count in degradedQueries.
func TestRoutedReadSkipsQuarantinedOwner(t *testing.T) {
	c := postCorpus(t)
	cl, err := New(c, supervisedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var author blog.BloggerID
	for _, id := range c.BloggerIDs() {
		if cl.Owner(id) == 2 && postCount(c, id) > 0 {
			author = id
			break
		}
	}
	if author == "" {
		t.Fatal("no author with posts on shard 2")
	}
	var wedged atomic.Bool
	wedged.Store(true)
	defer wedged.Store(false)
	cl.SetSlowShardHook(func(si int) {
		if si == 2 && wedged.Load() {
			time.Sleep(200 * time.Millisecond) // > ProbeTimeout: rejoin probes fail
		}
	})
	cl.CrashShard(2)

	is := query.F(query.FieldAuthor).Is(string(author))
	for name, pair := range map[string][2]*query.Query{
		"scan": {
			query.Posts().Where(is).OrderBy(query.Desc(query.FieldPosted)).Limit(50).Build(),
			query.Posts().Where(query.Or(is, is)).OrderBy(query.Desc(query.FieldPosted)).Limit(50).Build(),
		},
		"count": {
			query.Posts().Where(is).AggregatePerDomain(query.AggCount, "").Limit(50).Build(),
			query.Posts().Where(query.Or(is, is)).AggregatePerDomain(query.AggCount, "").Limit(50).Build(),
		},
	} {
		before := cl.FullStatus().DegradedQueries
		routed, routedDeg, err := cl.Query(cl.View(), pair[0])
		if err != nil {
			t.Fatalf("%s: routed: %v", name, err)
		}
		scattered, scatteredDeg, err := cl.Query(cl.View(), pair[1])
		if err != nil {
			t.Fatalf("%s: scattered: %v", name, err)
		}
		if !routedDeg || !scatteredDeg {
			t.Fatalf("%s: degraded routed=%v scattered=%v, want both true (plan %q)",
				name, routedDeg, scatteredDeg, routed.Plan)
		}
		if routed.Total != scattered.Total || !reflect.DeepEqual(routed.Rows, scattered.Rows) {
			t.Fatalf("%s: routed answer (plan %q, total %d, %d rows) differs from the scatter (total %d, %d rows)",
				name, routed.Plan, routed.Total, len(routed.Rows), scattered.Total, len(scattered.Rows))
		}
		if got := cl.FullStatus().DegradedQueries - before; got != 2 {
			t.Fatalf("%s: degradedQueries moved by %d, want 2", name, got)
		}
	}
}

// TestSpillAckAndShedOverload: writes against a down shard are
// acknowledged into the bounded spill queue; once it saturates they shed
// with a retryable OverloadError; after recovery the spilled writes are
// replayed and the shed one can be resubmitted.
func TestSpillAckAndShedOverload(t *testing.T) {
	opts := supervisedOptions(1)
	opts.SpillLimit = 4
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wedged atomic.Bool
	wedged.Store(true)
	cl.SetSlowShardHook(func(si int) {
		if wedged.Load() {
			time.Sleep(200 * time.Millisecond)
		}
	})
	cl.CrashShard(0)

	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	batch := func(i int) core.Batch {
		id := fmt.Sprintf("s%03d", i)
		return core.Batch{
			Bloggers: []*blog.Blogger{{ID: blog.BloggerID(id), Name: id}},
			Posts:    []*blog.Post{post("sp"+id, id, when.Add(time.Duration(i)*time.Hour))},
		}
	}
	// Each batch is 2 ops (blogger + post); SpillLimit 4 takes exactly two.
	for i := 0; i < 2; i++ {
		if err := cl.AddBatch(batch(i)); err != nil {
			t.Fatalf("spill ack %d: %v", i, err)
		}
	}
	err = cl.AddBatch(batch(2))
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("saturated spill returned %v, want OverloadError", err)
	}
	if !ov.Temporary() || ov.RetryAfter <= 0 {
		t.Fatalf("OverloadError not retryable: %+v", ov)
	}
	fs := cl.FullStatus()
	if fs.SpilledRecords != 4 || fs.ShedRequests == 0 || fs.SpillPending != 4 {
		t.Fatalf("spilled=%d shed=%d pending=%d, want 4/>0/4",
			fs.SpilledRecords, fs.ShedRequests, fs.SpillPending)
	}

	wedged.Store(false)
	waitSettled(t, cl, 10*time.Second)
	if err := cl.AddBatch(batch(2)); err != nil {
		t.Fatalf("resubmit after recovery: %v", err)
	}
	if err := cl.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	posts := clusterPosts(cl)
	for i := 0; i < 3; i++ {
		pid := blog.PostID(fmt.Sprintf("sps%03d", i))
		if !posts[pid] {
			t.Fatalf("acked post %s lost across crash/spill/replay", pid)
		}
	}
	if got := cl.FullStatus().ReplayedRecords; got < 4 {
		t.Fatalf("replayedRecords = %d, want >= 4", got)
	}
}

// TestShedWriteIsSafeToRetry: a write shed with OverloadError must have
// applied nothing, so the client's retry after recovery succeeds. Here the
// batch's own part fits on healthy shard 0, but the stub for its
// cross-shard link targets shard 1, which is down with a full spill queue.
func TestShedWriteIsSafeToRetry(t *testing.T) {
	opts := supervisedOptions(3)
	opts.SpillLimit = 1
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wedged atomic.Bool
	wedged.Store(true)
	cl.SetSlowShardHook(func(si int) {
		if si == 1 && wedged.Load() {
			time.Sleep(200 * time.Millisecond) // > ProbeTimeout: stays Recovering
		}
	})
	cl.CrashShard(1)
	if err := cl.AddBatch(core.Batch{Bloggers: []*blog.Blogger{{ID: ownedID(cl, 1, "filler")}}}); err != nil {
		t.Fatalf("filler write not spilled: %v", err)
	}

	a, b := ownedID(cl, 0, "a"), ownedID(cl, 1, "b")
	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	batch := func() core.Batch {
		return core.Batch{
			Bloggers: []*blog.Blogger{{ID: a, Name: "A"}},
			Posts:    []*blog.Post{post("shed-p", string(a), when)},
			Links:    []blog.Link{{From: a, To: b}},
		}
	}
	var ov *OverloadError
	if err := cl.AddBatch(batch()); !errors.As(err, &ov) {
		t.Fatalf("write against a full spill queue returned %v, want OverloadError", err)
	}
	if _, ok := cl.Shard(0).DetachCorpus().Posts["shed-p"]; ok {
		t.Fatal("a shed write was partly applied")
	}

	wedged.Store(false)
	waitSettled(t, cl, 10*time.Second)
	if err := cl.AddBatch(batch()); err != nil {
		t.Fatalf("retry of a shed write: %v", err)
	}
	if _, ok := cl.Shard(0).DetachCorpus().Posts["shed-p"]; !ok || cl.BoundaryEdges() != 1 {
		t.Fatalf("retried write missing: post=%v boundary=%d", ok, cl.BoundaryEdges())
	}
}

// TestForcedSpillFailureIsNotShed: once part of a write has landed, a
// later part that cannot spill because the spill WAL fails its fsync must
// not come back as a 429 — a retry would hit the landed part as a
// duplicate — but as that shard's durability error.
func TestForcedSpillFailureIsNotShed(t *testing.T) {
	ffs := &failSyncFS{FS: wal.OSFS(), match: "spill-1"}
	opts := supervisedOptions(3)
	opts.DataDir = t.TempDir()
	opts.ShardFS = func(shard int) wal.FS {
		if shard == 1 {
			return ffs
		}
		return nil
	}
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wedged atomic.Bool
	wedged.Store(true)
	defer wedged.Store(false)
	cl.SetSlowShardHook(func(si int) {
		if si == 1 && wedged.Load() {
			time.Sleep(200 * time.Millisecond) // > ProbeTimeout: stays Recovering
		}
	})
	cl.CrashShard(1)
	ffs.fail.Store(true)
	defer ffs.fail.Store(false)

	a, b := ownedID(cl, 0, "a"), ownedID(cl, 1, "b")
	err = cl.AddBatch(core.Batch{
		Bloggers: []*blog.Blogger{{ID: a, Name: "A"}},
		Posts:    []*blog.Post{post("forced-p", string(a), time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC))},
		Links:    []blog.Link{{From: a, To: b}},
	})
	var ov *OverloadError
	if err == nil || errors.As(err, &ov) {
		t.Fatalf("spill fsync failure after a landed part returned %v, want a non-overload error", err)
	}
	if !strings.HasPrefix(err.Error(), "cluster: shard 1: spill: ") {
		t.Fatalf("error %q does not name shard 1's spill", err)
	}
	if _, ok := cl.Shard(0).DetachCorpus().Posts["forced-p"]; !ok {
		t.Fatal("shard 0's part did not land first")
	}
}

// chaosPages builds crawled pages over the bloggers of chaosBatches: each
// enriches a profile (with a friend), re-serves an old post next to a new
// one, and links out and back across shards.
func chaosPages(n int, seed int64) []*blogserver.Page {
	rng := rand.New(rand.NewSource(seed))
	when := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([]*blogserver.Page, n)
	for i := range out {
		id := fmt.Sprintf("k%04d", i)
		other := func() blog.BloggerID { return blog.BloggerID(fmt.Sprintf("k%04d", rng.Intn(n))) }
		out[i] = &blogserver.Page{
			Blogger: blog.Blogger{ID: blog.BloggerID(id), Name: "B " + id, Profile: "crawled " + id,
				Friends: []blog.BloggerID{other()}},
			Posts:     []blog.Post{*post("kp"+id, id, when), *post("pg"+id, id, when.Add(time.Duration(i)*time.Minute))},
			Links:     []blog.BloggerID{other(), other()},
			Linkbacks: []blog.BloggerID{other()},
		}
	}
	return out
}

// TestSpillReplayEqualsLiveApply: the same batches and pages sent to a
// healthy 3-shard cluster and to one whose shard 1 is down until every
// write has spilled must leave identical shards behind — the invariant
// that spill replay (ApplyOps over the spilled ops) reproduces live apply.
func TestSpillReplayEqualsLiveApply(t *testing.T) {
	live, err := New(nil, supervisedOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	spilled, err := New(nil, supervisedOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	var wedged atomic.Bool
	wedged.Store(true)
	spilled.SetSlowShardHook(func(si int) {
		if si == 1 && wedged.Load() {
			time.Sleep(200 * time.Millisecond)
		}
	})
	spilled.CrashShard(1)

	for _, cl := range []*Cluster{live, spilled} {
		for i, b := range chaosBatches(30, 5) {
			if err := cl.AddBatch(b); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		for i, p := range chaosPages(30, 6) {
			if err := cl.IngestPage(p); err != nil {
				t.Fatalf("page %d: %v", i, err)
			}
		}
	}
	if fs := spilled.FullStatus(); fs.SpillPending == 0 || fs.ShardHealth[1] == "healthy" {
		t.Fatalf("shard 1 did not spill: %+v", fs)
	}
	wedged.Store(false)
	waitSettled(t, spilled, 10*time.Second)

	for s := 0; s < 3; s++ {
		want, got := live.Shard(s).DetachCorpus(), spilled.Shard(s).DetachCorpus()
		if !reflect.DeepEqual(got.Bloggers, want.Bloggers) {
			t.Fatalf("shard %d: bloggers differ after replay", s)
		}
		if !reflect.DeepEqual(got.Posts, want.Posts) {
			t.Fatalf("shard %d: posts differ after replay", s)
		}
		if !reflect.DeepEqual(got.Links, want.Links) {
			t.Fatalf("shard %d: links differ after replay:\n got %v\nwant %v", s, got.Links, want.Links)
		}
	}
	if got, want := spilled.boundarySnapshot(), live.boundarySnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary edges differ: %d vs %d", len(got), len(want))
	}
}

// chaosBatches builds the deterministic ingest sequence the property and
// equivalence tests feed to both the faulted and the control cluster.
// Fresh pointers per call: two engines must never share mutable posts.
func chaosBatches(n int, seed int64) []core.Batch {
	rng := rand.New(rand.NewSource(seed))
	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	out := make([]core.Batch, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("k%04d", i)
		b := core.Batch{
			Bloggers: []*blog.Blogger{{ID: blog.BloggerID(id), Name: "B " + id}},
			Posts:    []*blog.Post{post("kp"+id, id, when.Add(time.Duration(i)*time.Minute))},
		}
		if i > 0 {
			prev := fmt.Sprintf("k%04d", rng.Intn(i))
			b.Links = []blog.Link{{From: blog.BloggerID(id), To: blog.BloggerID(prev)}}
			b.Comments = []core.BatchComment{{
				Post: blog.PostID("kp" + prev),
				Comment: blog.Comment{
					Commenter: blog.BloggerID(id),
					Text:      fmt.Sprintf("re %d", i),
					Posted:    when.Add(time.Duration(i)*time.Minute + time.Second),
				},
			}}
		}
		out[i] = b
	}
	return out
}

// TestKillScheduleNeverLosesAcked is the property test: for a range of
// random single-shard kill schedules, every acknowledged batch must
// survive, and the recovered cluster's exact global PageRank must match a
// never-crashed control cluster to 1e-12.
func TestKillScheduleNeverLosesAcked(t *testing.T) {
	const nBatches = 40
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			kills := map[int]int{} // batch index -> shard to kill first
			for k := 0; k < 1+rng.Intn(2); k++ {
				kills[rng.Intn(nBatches)] = rng.Intn(3)
			}

			victim, err := New(nil, supervisedOptions(3))
			if err != nil {
				t.Fatal(err)
			}
			defer victim.Close()
			control, err := New(nil, supervisedOptions(3))
			if err != nil {
				t.Fatal(err)
			}
			defer control.Close()

			vb, cb := chaosBatches(nBatches, 100+seed), chaosBatches(nBatches, 100+seed)
			for i := 0; i < nBatches; i++ {
				if s, ok := kills[i]; ok {
					victim.CrashShard(s)
				}
				if err := victim.AddBatch(vb[i]); err != nil {
					t.Fatalf("batch %d not acknowledged after kill: %v", i, err)
				}
				if err := control.AddBatch(cb[i]); err != nil {
					t.Fatal(err)
				}
			}

			waitSettled(t, victim, 15*time.Second)
			if err := victim.Refresh(t.Context()); err != nil {
				t.Fatal(err)
			}
			if err := control.Refresh(t.Context()); err != nil {
				t.Fatal(err)
			}

			got, want := clusterPosts(victim), clusterPosts(control)
			if len(got) != len(want) {
				t.Fatalf("post count %d after kills, want %d", len(got), len(want))
			}
			for pid := range want {
				if !got[pid] {
					t.Fatalf("acked post %s lost", pid)
				}
			}
			gr, err := victim.GlobalPageRank(linkrank.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wr, err := control.GlobalPageRank(linkrank.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if worst := maxAbsDiff(t, gr.IDs, gr.Scores, wr.IDs, wr.Scores); worst > 1e-12 {
				t.Fatalf("recovered PageRank diverges from never-crashed control: max |Δ| = %g", worst)
			}
		})
	}
}

// TestChaosSubscriptionSurvivesRestart: a standing subscription outlives
// a crash, quarantine and supervised restart of the shard its newest rows
// live on, at one shard and at three. Its consumer keeps reading one
// event chain (every prevSeq matches, every seq grows, every event
// applies), the subscription ID keeps resolving, and once the shard has
// rejoined the replica equals Cluster.Query at the current view,
// including a post acknowledged but not yet flushed when the shard died.
// A wedged probe holds the restarted shard out of the cluster for a
// while, so at three shards the consumer first reads the partial window
// a query gets then, flagged degraded.
func TestChaosSubscriptionSurvivesRestart(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			c := freshCorpus(t)
			after, _ := latest(c)
			cl, err := New(c, supervisedOptions(n))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			q := mustQuery(t, `{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":10,"select":["posted","comments"]}`)
			sub, st, err := cl.Subscriptions().Subscribe(q)
			if err != nil {
				t.Fatal(err)
			}
			cs := subs.NewClientState(st.Seq, st.Result)
			shard := n - 1
			author := ownedID(cl, shard, "chaos-sub")
			addPost := func(id string, minutes int) {
				t.Helper()
				if err := cl.AddBatch(core.Batch{Posts: []*blog.Post{{
					ID: blog.PostID(id), Author: author, Posted: after.Add(time.Duration(minutes) * time.Minute),
					Body: "late-breaking travel notes " + id,
				}}}); err != nil {
					t.Fatal(err)
				}
			}
			holds := func(id string) bool { return strings.Contains(toJSON(t, cs.Result().Rows), `"`+id+`"`) }

			addPost("chaos-sub-1", 1)
			if err := cl.Refresh(context.Background()); err != nil {
				t.Fatal(err)
			}
			if consume(t, sub, cs) == nil || !holds("chaos-sub-1") {
				t.Fatalf("no event carrying the flushed post: replica %s", toJSON(t, cs.Result()))
			}
			addPost("chaos-sub-2", 2) // acknowledged, not flushed
			var wedged atomic.Bool
			wedged.Store(true)
			cl.SetSlowShardHook(func(si int) {
				if si == shard && wedged.Load() {
					time.Sleep(100 * time.Millisecond) // > ProbeTimeout: rejoin probes fail
				}
			})
			cl.CrashShard(shard)
			deadline := time.Now().Add(10 * time.Second)
			for cl.FullStatus().ShardRestarts == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the crashed shard was not restarted")
				}
				time.Sleep(time.Millisecond)
			}
			ev := consume(t, sub, cs)
			if n > 1 && (ev == nil || !ev.Degraded || holds("chaos-sub-1")) {
				t.Fatalf("while the shard is out: event %+v, replica %s", ev, toJSON(t, cs.Result()))
			}
			wedged.Store(false)

			for {
				ev, wait := sub.Next()
				if ev != nil {
					if ev.PrevSeq != cs.Seq() || ev.Seq <= ev.PrevSeq {
						t.Fatalf("event %d -> %d does not extend the replica at %d", ev.PrevSeq, ev.Seq, cs.Seq())
					}
					if outcome, err := cs.Apply(ev); outcome != subs.Applied {
						t.Fatalf("apply outcome %v (%v)", outcome, err)
					}
					continue
				}
				if cl.ShardHealths()[shard] == HealthHealthy {
					want, degraded, err := cl.Query(cl.View(), q)
					if err != nil {
						t.Fatal(err)
					}
					if !degraded && toJSON(t, cs.Result()) == toJSON(t, want) && holds("chaos-sub-2") {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica did not converge after the restart: health %v, replica %s",
						cl.ShardHealths(), toJSON(t, cs.Result()))
				}
				select {
				case <-wait:
				case <-time.After(5 * time.Millisecond):
				}
			}
			if _, err := cl.Subscriptions().Get(sub.ID()); err != nil {
				t.Fatalf("subscription lost across the restart: %v", err)
			}
		})
	}
}

// TestChaosChurn races ingest, re-analysis and scatter reads against a
// chaos injector that repeatedly crashes random shards and wedges their
// probes — the -race sweep for the whole supervision path. Invariants: no
// acknowledged batch errors, no read exceeds its deadline, and once the
// chaos stops the cluster settles with every acknowledged post present.
func TestChaosChurn(t *testing.T) {
	opts := supervisedOptions(3)
	opts.ShardTimeout = 100 * time.Millisecond
	opts.ProbeTimeout = 40 * time.Millisecond
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wedgedShard atomic.Int32 // -1: none
	wedgedShard.Store(-1)
	cl.SetSlowShardHook(func(si int) {
		if int32(si) == wedgedShard.Load() {
			time.Sleep(150 * time.Millisecond)
		}
	})

	stop := make(chan struct{})
	errs := make(chan error, 4)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(3)
	// Ingester: every batch must acknowledge — live, retried, or spilled.
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("c%04d", i)
			b := core.Batch{
				Bloggers: []*blog.Blogger{{ID: blog.BloggerID(id), Name: id}},
				Posts:    []*blog.Post{post("cp"+id, id, when.Add(time.Duration(i)*time.Minute))},
			}
			if i > 0 {
				b.Links = []blog.Link{{
					From: blog.BloggerID(id),
					To:   blog.BloggerID(fmt.Sprintf("c%04d", rng.Intn(i))),
				}}
			}
			for {
				err := cl.AddBatch(b)
				if err == nil {
					break
				}
				// A saturated spill queue sheds the write un-acked; a real
				// client honors the Retry-After hint — anything else is lost
				// acknowledgment and fails the test.
				var ov *OverloadError
				if !errors.As(err, &ov) {
					fail("ingest %d under chaos: %w", i, err)
					return
				}
				select {
				case <-stop:
					return
				case <-time.After(ov.RetryAfter):
				}
			}
			acked.Add(1)
		}
	}()
	// Reader: every query bounded and error-free.
	go func() {
		defer wg.Done()
		q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(10).Build()
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			_, _, err := cl.Query(cl.View(), q)
			if err != nil {
				fail("query under chaos: %w", err)
				return
			}
			if el := time.Since(start); el > 3*time.Second {
				fail("query took %v — deadline did not bound it", el)
				return
			}
		}
	}()
	// Flusher: continuous re-analysis; a shard killed between the health
	// check and the Refresh call surfaces ErrClosed — that is the race the
	// supervisor exists to absorb, not a failure.
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.Refresh(t.Context()); err != nil && !errors.Is(err, core.ErrClosed) {
				fail("refresh under chaos: %w", err)
				return
			}
		}
	}()

	// Chaos injector: crash a random shard every 100ms, wedging every
	// other victim's probes for a round so restarts interleave with
	// quarantine windows.
	chaosRNG := rand.New(rand.NewSource(13))
	for round := 0; round < 8; round++ {
		time.Sleep(100 * time.Millisecond)
		victim := chaosRNG.Intn(3)
		if round%2 == 1 {
			wedgedShard.Store(int32(victim))
		} else {
			wedgedShard.Store(-1)
		}
		cl.CrashShard(victim)
		select {
		case e := <-errs:
			t.Fatal(e)
		default:
		}
	}
	wedgedShard.Store(-1)
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}

	// A shard can end the chaos window Healthy-but-killed (crashed after
	// its last rejoin with nothing left to spill). One probe write per
	// shard forces the supervisor to notice and cycle it. A spill queue
	// still saturated by the churn sheds the write; like the ingester, the
	// settle write honors the Retry-After hint, within the settle deadline.
	settleBy := time.Now().Add(15 * time.Second)
	for s := 0; s < cl.NumShards(); s++ {
		for {
			err := cl.AddBatch(core.Batch{
				Bloggers: []*blog.Blogger{{ID: ownedID(cl, s, "settle")}},
			})
			if err == nil {
				break
			}
			var ov *OverloadError
			if !errors.As(err, &ov) || time.Now().After(settleBy) {
				t.Fatalf("settle write to shard %d: %v", s, err)
			}
			time.Sleep(ov.RetryAfter)
		}
	}
	waitSettled(t, cl, time.Until(settleBy))
	if err := cl.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	want := int(acked.Load())
	posts := clusterPosts(cl)
	if len(posts) != want {
		t.Fatalf("%d posts survived, %d batches were acknowledged", len(posts), want)
	}
	fs := cl.FullStatus()
	if fs.ShardRestarts == 0 || fs.BreakerOpens == 0 {
		t.Fatalf("chaos did not exercise the supervisor: %+v", fs)
	}
}

// failSyncFS injects fsync failures into files whose path contains match,
// toggled at runtime — the fail-stop fault for one shard's engine WAL
// while its spill queue (a different directory) stays healthy.
type failSyncFS struct {
	wal.FS
	match string
	fail  atomic.Bool
}

func (f *failSyncFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	if !strings.Contains(path, f.match) {
		return file, nil
	}
	return &failSyncFile{File: file, fs: f}, nil
}

type failSyncFile struct {
	wal.File
	fs *failSyncFS
}

func (f *failSyncFile) Sync() error {
	if f.fs.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestWALFailStopSpillsAndRecovers: a shard whose WAL hits its sticky
// fail-stop must quarantine (writes spill, acknowledged durably via the
// healthy spill WAL), report durability "failed" while down, and — once
// the filesystem heals — restart over its own directory, replay the
// spill, and end up with every acknowledged record.
func TestWALFailStopSpillsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := &failSyncFS{FS: wal.OSFS(), match: "shard-1"}
	opts := supervisedOptions(2)
	opts.DataDir = dir
	opts.Engine.Durability = core.DurabilityOptions{SyncEvery: 1, SyncInterval: -1}
	opts.ShardFS = func(shard int) wal.FS {
		if shard == 1 {
			return ffs
		}
		return nil
	}
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	mkBatch := func(i int) core.Batch {
		id := ownedID(cl, 1, fmt.Sprintf("f%d-", i))
		return core.Batch{
			Bloggers: []*blog.Blogger{{ID: id, Name: string(id)}},
			Posts:    []*blog.Post{post(fmt.Sprintf("fp%03d", i), string(id), when.Add(time.Duration(i)*time.Hour))},
		}
	}
	if err := cl.AddBatch(mkBatch(0)); err != nil {
		t.Fatal(err)
	}

	ffs.fail.Store(true)
	// The engine WAL fail-stops; the write must still acknowledge, via the
	// spill queue under spill-1/ (whose syncs are not matched).
	if err := cl.AddBatch(mkBatch(1)); err != nil {
		t.Fatalf("write during WAL fail-stop not acknowledged: %v", err)
	}
	fs := cl.FullStatus()
	if fs.SpilledRecords == 0 {
		t.Fatal("fail-stopped shard did not spill")
	}
	if h := cl.ShardHealths()[1]; h == HealthHealthy {
		t.Fatal("fail-stopped shard still Healthy")
	}
	// While the FS is broken the supervisor cannot rebuild the shard (the
	// fresh WAL's header fsync fails too), so readiness keeps reporting
	// the sticky failure.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rows, failStopped := cl.Readiness()
		if rows[1].Durability == "failed" {
			if failStopped {
				t.Fatal("one failed shard of two must not report the whole cluster fail-stopped")
			}
			if rows[0].Durability != "ok" {
				t.Fatalf("healthy shard readiness: %+v", rows[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readiness never reported the fail-stop: %+v", rows)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ffs.fail.Store(false)
	waitSettled(t, cl, 10*time.Second)
	if err := cl.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	posts := clusterPosts(cl)
	for i := 0; i < 2; i++ {
		pid := blog.PostID(fmt.Sprintf("fp%03d", i))
		if !posts[pid] {
			t.Fatalf("acked post %s lost across the fail-stop", pid)
		}
	}
	rows, failStopped := cl.Readiness()
	if failStopped || rows[1].Durability != "ok" || rows[1].Restarts == 0 {
		t.Fatalf("after heal: failStopped=%v rows=%+v", failStopped, rows)
	}
}
