package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/query"
	"mass/internal/synth"
)

// postFixture is a posts-bearing corpus shared by the coordinator tests.
var (
	postFixOnce sync.Once
	postFix     *blog.Corpus
)

func postCorpus(t testing.TB) *blog.Corpus {
	t.Helper()
	postFixOnce.Do(func() {
		c, _, err := synth.Generate(synth.Config{Seed: 11, Bloggers: 40, Posts: 250})
		if err != nil {
			panic(err)
		}
		postFix = c
	})
	return postFix
}

// postCount counts id's posts with a scan of the corpus.
func postCount(c *blog.Corpus, id blog.BloggerID) int {
	n := 0
	for _, p := range c.Posts {
		if p.Author == id {
			n++
		}
	}
	return n
}

// TestSingleShardPassThrough: with one shard the coordinator must return
// the engine's own memoized result object — zero copies, zero re-merge.
func TestSingleShardPassThrough(t *testing.T) {
	cl, err := New(postCorpus(t), Options{Shards: 1, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	v := cl.View()
	if v.ETag() != v.Snaps[0].ETag() {
		t.Fatalf("single-shard view ETag %s != snapshot ETag %s", v.ETag(), v.Snaps[0].ETag())
	}
	q := query.Posts().OrderBy(query.Desc(query.FieldPosted)).Limit(10).Build()
	got, degraded, err := cl.Query(v, q)
	if err != nil || degraded {
		t.Fatalf("query: degraded=%v err=%v", degraded, err)
	}
	want, err := v.Snaps[0].Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-shard query differs from the engine's executor:\n got %+v\nwant %+v", got, want)
	}
	// A repeat within the view is the memoized result, not a second run.
	execs := v.Snaps[0].QueryCache().Computes()
	again, _, err := cl.Query(v, q)
	if err != nil || again != got {
		t.Fatalf("repeated single-shard query was not served from the view memo (err %v)", err)
	}
	if n := v.Snaps[0].QueryCache().Computes(); n != execs {
		t.Fatalf("repeated single-shard query executed again: %d -> %d", execs, n)
	}
}

// TestScatterPostsMatchSingle: post facets that do not depend on per-shard
// analysis (posting time, authorship) must merge to the exact single-shard
// result at any shard count — same IDs, same order, same totals.
func TestScatterPostsMatchSingle(t *testing.T) {
	c := postCorpus(t)
	one, err := New(c, Options{Shards: 1, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	for _, shards := range []int{2, 4, 8} {
		cl, err := New(c, Options{Shards: shards, Engine: quietEngine()})
		if err != nil {
			t.Fatal(err)
		}
		q := query.Posts().OrderBy(query.Desc(query.FieldPosted)).Limit(25).Offset(5).Build()
		want, _, err := one.Query(one.View(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, degraded, err := cl.Query(cl.View(), q)
		if err != nil || degraded {
			t.Fatalf("shards=%d: degraded=%v err=%v", shards, degraded, err)
		}
		if got.Total != want.Total {
			t.Fatalf("shards=%d: total %d, want %d", shards, got.Total, want.Total)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("shards=%d: %d rows, want %d", shards, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if got.Rows[i].ID != want.Rows[i].ID || got.Rows[i].Score != want.Rows[i].Score {
				t.Fatalf("shards=%d row %d: %+v, want %+v", shards, i, got.Rows[i], want.Rows[i])
			}
		}
		if !strings.HasPrefix(got.Plan, "scatter/") {
			t.Fatalf("shards=%d: plan %q", shards, got.Plan)
		}
		cl.Close()
	}
}

// TestScatterEmptyWindowMatchesSingle: a scatter whose window is empty
// (offset past the last match, or nothing matching) encodes its rows as
// the single engine does — an empty array, never null.
func TestScatterEmptyWindowMatchesSingle(t *testing.T) {
	c := postCorpus(t)
	for _, shards := range []int{1, 3} {
		cl, err := New(c, Options{Shards: shards, Engine: quietEngine()})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []*query.Query{
			query.Posts().OrderBy(query.Desc(query.FieldPosted)).Limit(5).Offset(len(c.Posts)).Build(),
			query.Posts().Where(query.F(query.FieldComments).Lt(0)).Limit(5).Build(),
		} {
			got, _, err := cl.Query(cl.View(), q)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), `"rows":[]`) {
				t.Fatalf("shards=%d: empty window encodes as %s", shards, data)
			}
		}
		cl.Close()
	}
}

// TestAuthorEqRouting: a posts query pinned to one author must route to a
// single shard (the author's) and return that shard's exact result.
func TestAuthorEqRouting(t *testing.T) {
	c := postCorpus(t)
	var author blog.BloggerID
	for _, p := range c.Posts {
		author = p.Author
		break
	}
	cl, err := New(c, Options{Shards: 4, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	base := cl.scatterQueries.Load()
	q := query.Posts().
		Where(query.F(query.FieldAuthor).Is(string(author))).
		OrderBy(query.Desc(query.FieldPosted)).Limit(50).Build()
	got, degraded, err := cl.Query(cl.View(), q)
	if err != nil || degraded {
		t.Fatalf("degraded=%v err=%v", degraded, err)
	}
	if !strings.HasPrefix(got.Plan, "route/") {
		t.Fatalf("plan %q, want route/*", got.Plan)
	}
	if cl.scatterQueries.Load() != base {
		t.Fatal("routed query should not scatter")
	}
	wantCount := postCount(c, author)
	if got.Total != wantCount {
		t.Fatalf("total %d, want %d posts by %s", got.Total, wantCount, author)
	}
	for _, r := range got.Rows {
		if cp := c.Posts[blog.PostID(r.ID)]; cp == nil || cp.Author != author {
			t.Fatalf("row %q is not by %s", r.ID, author)
		}
	}
	// A nested AND still routes.
	q2 := query.Posts().
		Where(query.And(
			query.F(query.FieldQuality).Ge(0),
			query.F(query.FieldAuthor).Is(string(author)),
		)).
		OrderBy(query.Desc(query.FieldPosted)).Limit(50).Build()
	got2, _, err := cl.Query(cl.View(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got2.Plan, "route/") {
		t.Fatalf("nested-AND plan %q, want route/*", got2.Plan)
	}
}

// TestBloggerScatterInvariants: blogger scores differ under per-shard
// analysis, but the merge must still be a partition — every blogger
// exactly once in the total, no ID surfacing twice.
func TestBloggerScatterInvariants(t *testing.T) {
	c := postCorpus(t)
	cl, err := New(c, Options{Shards: 4, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(100).Build()
	got, degraded, err := cl.Query(cl.View(), q)
	if err != nil || degraded {
		t.Fatalf("degraded=%v err=%v", degraded, err)
	}
	if got.Total != len(c.Bloggers) {
		t.Fatalf("total %d, want %d bloggers", got.Total, len(c.Bloggers))
	}
	seen := make(map[string]bool)
	for _, r := range got.Rows {
		if seen[r.ID] {
			t.Fatalf("blogger %q surfaced from more than one shard", r.ID)
		}
		seen[r.ID] = true
	}
	if len(got.Rows) != len(c.Bloggers) {
		t.Fatalf("%d rows, want all %d", len(got.Rows), len(c.Bloggers))
	}
}

// TestSlowShardDegrades: a shard sleeping past ShardTimeout must produce a
// degraded partial answer within the deadline — never a hang.
func TestSlowShardDegrades(t *testing.T) {
	cl, err := New(postCorpus(t), Options{
		Shards:       4,
		Engine:       quietEngine(),
		ShardTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetSlowShardHook(func(si int) {
		if si == 2 {
			time.Sleep(300 * time.Millisecond)
		}
	})
	q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(10).Build()
	start := time.Now()
	got, degraded, err := cl.Query(cl.View(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("expected a degraded result")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("degraded query took %v — the deadline did not bound it", elapsed)
	}
	for _, r := range got.Rows {
		if cl.Owner(blog.BloggerID(r.ID)) == 2 {
			t.Fatalf("row %q leaked from the timed-out shard", r.ID)
		}
	}
	if cl.FullStatus().DegradedQueries == 0 {
		t.Fatal("degradedQueries counter did not move")
	}
}

// TestWedgedShardDoesNotStarveHealthyShards: a shard whose parts never
// return must not delay the other shards' parts. Over consecutive reads
// every healthy shard answers with all of its owned rows and stays
// Healthy, while the wedged one is dropped and its breaker opens.
func TestWedgedShardDoesNotStarveHealthyShards(t *testing.T) {
	c := postCorpus(t)
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("N=%d", shards), func(t *testing.T) {
			cl, err := New(c, Options{
				Shards:        shards,
				Engine:        quietEngine(),
				ShardTimeout:  100 * time.Millisecond,
				ProbeInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			const wedged = 1
			release := make(chan struct{})
			defer close(release) // runs before Close: parked parts return
			cl.SetSlowShardHook(func(si int) {
				if si == wedged {
					<-release
				}
			})
			q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(len(c.Bloggers)).Build()
			for i := 1; i <= 8; i++ {
				got, degraded, err := cl.Query(cl.View(), q)
				if err != nil {
					t.Fatal(err)
				}
				if !degraded {
					t.Fatalf("query %d: a read without the wedged shard must be degraded", i)
				}
				seen := make(map[string]bool, len(got.Rows))
				for _, r := range got.Rows {
					seen[r.ID] = true
				}
				for id := range c.Bloggers {
					if owner := cl.Owner(id); owner != wedged && !seen[string(id)] {
						t.Fatalf("query %d: healthy shard %d lost row %q", i, owner, id)
					}
				}
				for si, h := range cl.ShardHealths() {
					if si != wedged && h != HealthHealthy {
						t.Fatalf("query %d: healthy shard %d is %v", i, si, h)
					}
				}
			}
		})
	}
}

// TestChurnScatterGather races per-shard flushes, batched ingest and
// scatter-gather reads, then injects a slow shard mid-churn — the -race
// sweep for the whole coordinator path. Bounded entirely by deadlines: a
// hang fails the test runner, not the wall clock.
func TestChurnScatterGather(t *testing.T) {
	cl, err := New(nil, Options{
		Shards:       3,
		Engine:       quietEngine(),
		ShardTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var slow atomic.Bool
	cl.SetSlowShardHook(func(si int) {
		if si == 1 && slow.Load() {
			time.Sleep(250 * time.Millisecond)
		}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	errs := make(chan error, 3)
	// Ingest: batches of bloggers, posts and links spraying across shards.
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("w%04d", i)
			b := core.Batch{
				Bloggers: []*blog.Blogger{{ID: blog.BloggerID(id), Name: id}},
				Posts:    []*blog.Post{post("wp"+id, id, when.Add(time.Duration(i)*time.Minute))},
			}
			if i > 0 {
				b.Links = append(b.Links, blog.Link{
					From: blog.BloggerID(id),
					To:   blog.BloggerID(fmt.Sprintf("w%04d", rng.Intn(i))),
				})
			}
			if err := cl.AddBatch(b); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Flusher: force per-shard re-analysis continuously.
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.Refresh(t.Context()); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Reader: scatter-gather queries against pinned views.
	degradedSeen := make(chan struct{}, 1)
	go func() {
		defer wg.Done()
		queries := []*query.Query{
			query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(10).Build(),
			query.Posts().OrderBy(query.Desc(query.FieldPosted)).Limit(10).Build(),
			query.Bloggers().AggregatePerDomain(query.AggCount, "").Limit(20).Build(),
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := cl.View()
			_ = v.ETag()
			r, degraded, err := cl.Query(v, queries[i%len(queries)])
			if err != nil {
				errs <- err
				return
			}
			if degraded {
				select {
				case degradedSeen <- struct{}{}:
				default:
				}
			} else if r == nil {
				errs <- fmt.Errorf("nil result without degradation")
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	slow.Store(true)
	select {
	case <-degradedSeen:
	case e := <-errs:
		t.Fatal(e)
	case <-time.After(10 * time.Second):
		t.Fatal("no degraded result observed while a shard was slow")
	}
	slow.Store(false)
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if cl.FullStatus().ScatterQueries == 0 {
		t.Fatal("no scatters recorded")
	}
}

// TestScatterRankedMatchesMaskedScan: at 2, 4 and 8 shards the top,
// domain-top and interest answers equal MergeShards over masked scan
// parts of the same view — the same queries with an always-true filter,
// which forces every part off the ranked walk. Each shard's mask marks
// exactly the bloggers the ring assigns it, and ranked top-k parts walk
// only a prefix of their ranking.
func TestScatterRankedMatchesMaskedScan(t *testing.T) {
	c := postCorpus(t)
	every := query.Or(query.F(query.FieldInfluence).Ge(0), query.F(query.FieldInfluence).Lt(0))
	iv := map[string]float64{"Sports": 0.6, "Travel": 0.4}
	type pair struct{ q, scan *query.Query }
	cases := map[string]pair{
		"top": {
			query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(10).Offset(2).Build(),
			query.Bloggers().Where(every).OrderBy(query.Desc(query.FieldInfluence)).Limit(10).Offset(2).Build(),
		},
		"domain top": {
			query.Bloggers().OrderBy(query.Desc(query.DomainKey("Sports"))).Limit(8).Select(query.FieldInfluence).Build(),
			query.Bloggers().Where(every).OrderBy(query.Desc(query.DomainKey("Sports"))).Limit(8).Select(query.FieldInfluence).Build(),
		},
		"interest": {
			query.Bloggers().OrderBy(query.DescInterest(iv)).Limit(10).Build(),
			query.Bloggers().Where(every).OrderBy(query.DescInterest(iv)).Limit(10).Build(),
		},
	}
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			cl, err := New(c, Options{Shards: shards, Engine: quietEngine()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			v := cl.View()
			owned := 0
			for si, snap := range v.Snaps {
				own, n := snap.Owned(), 0
				for i, id := range snap.Result().Dense().Bloggers {
					if own.Rows[i] != (cl.Owner(id) == si) {
						t.Fatalf("shard %d: mask row %d (%s) = %v", si, i, id, own.Rows[i])
					}
					if own.Rows[i] {
						n++
					}
				}
				if own.Count != n {
					t.Fatalf("shard %d: mask count %d, want %d", si, own.Count, n)
				}
				owned += n
			}
			if owned != len(c.Bloggers) {
				t.Fatalf("masks own %d bloggers, want %d", owned, len(c.Bloggers))
			}
			for name, tc := range cases {
				got, degraded, err := cl.Query(v, tc.q)
				if err != nil || degraded {
					t.Fatalf("%s: degraded=%v err=%v", name, degraded, err)
				}
				parts := make([]*query.ShardResult, len(v.Snaps))
				for si, snap := range v.Snaps {
					if parts[si], err = query.ExecuteShard(snap.Corpus(), snap.Result(), tc.scan, snap.Owned()); err != nil {
						t.Fatal(err)
					}
					if name == "interest" {
						continue
					}
					ranked, err := query.ExecuteShard(snap.Corpus(), snap.Result(), tc.q, snap.Owned())
					if err != nil {
						t.Fatal(err)
					}
					if held := len(snap.Result().Dense().Bloggers); ranked.Scanned >= held {
						t.Fatalf("%s: shard %d ranked part scanned %d of %d rows", name, si, ranked.Scanned, held)
					}
				}
				want, err := query.MergeShards(parts, tc.scan)
				if err != nil {
					t.Fatal(err)
				}
				if got.Plan != "scatter/scan/bloggers" {
					t.Fatalf("%s: plan %q", name, got.Plan)
				}
				if got.Total != want.Total || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s: scatter diverges from masked scan parts\n got: total %d %+v\nwant: total %d %+v",
						name, got.Total, got.Rows, want.Total, want.Rows)
				}
			}
		})
	}
}
