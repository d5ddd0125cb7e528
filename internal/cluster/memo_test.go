package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/query"
)

func memoLen(m *memo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// execs is the number of queries the view's shards have executed through
// their engines, plus the scatters the cluster has run: every way a
// Cluster.Query miss does work.
func execs(cl *Cluster, v *View) int64 {
	n := int64(cl.scatterQueries.Load())
	for _, s := range v.Snaps {
		n += s.QueryCache().Computes()
	}
	return n
}

// TestMemo: identical queries, however spelled, memoize to one entry on
// the view at every shard count, and invalid queries are never stored.
func TestMemo(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", shards), func(t *testing.T) {
			cl, err := New(postCorpus(t), Options{Shards: shards, Engine: quietEngine()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			v := cl.View()
			run := func(q *query.Query) *query.Result {
				t.Helper()
				r, degraded, err := cl.Query(v, q)
				if err != nil || degraded {
					t.Fatalf("degraded=%v err=%v", degraded, err)
				}
				return r
			}
			q := query.Bloggers().Where(query.F(query.FieldInfluence).Gt(0)).Limit(5).Build()
			first := run(q)
			base := execs(cl, v)
			if run(q) != first {
				t.Fatal("a repeated query must return the memoized result")
			}
			// Spelled differently, same normalized query.
			if run(query.Bloggers().Where(query.F(query.FieldInfluence).Gt(0)).Limit(5).OrderBy(query.Desc(query.FieldInfluence)).Build()) != first {
				t.Fatal("an equal normalized query must share the memo entry")
			}
			if n := execs(cl, v); n != base {
				t.Fatalf("memoized queries executed %d more times", n-base)
			}
			run(query.Bloggers().Where(query.F(query.FieldInfluence).Gt(0)).Limit(6).Build())
			if n := execs(cl, v); n != base+1 {
				t.Fatalf("a distinct query executed %d times, want 1", n-base)
			}
			// Invalid queries error out and are not stored.
			before := memoLen(&v.memo)
			if _, _, err := cl.Query(v, &query.Query{Entity: "nope"}); err == nil {
				t.Fatal("invalid query accepted")
			}
			bad := query.Bloggers().OrderBy(query.Desc("nope")).Build()
			if _, _, err := cl.Query(v, bad); err == nil {
				t.Fatal("query over an unknown field accepted")
			}
			if after := memoLen(&v.memo); after != before {
				t.Fatalf("failed queries left %d memo entries", after-before)
			}
		})
	}
}

// TestMemoBounded: distinct reads cannot grow one view's memo past its
// entry or byte bound (a server taking no writes keeps one view live).
func TestMemoBounded(t *testing.T) {
	var m memo
	for i := 0; i < memoEntries+50; i++ {
		m.put(fmt.Sprintf("k%d", i), i, 1)
	}
	if n := memoLen(&m); n != memoEntries {
		t.Fatalf("memo holds %d entries, want the cap %d", n, memoEntries)
	}
	if _, ok := m.get("k0"); ok {
		t.Fatal("the oldest entry survived past the entry cap")
	}

	var b memo
	quarter := memoBytes / 4
	for i := 0; i < 6; i++ {
		b.put(fmt.Sprintf("big%d", i), i, quarter)
	}
	if b.bytes > memoBytes {
		t.Fatalf("memo holds %d bytes, bound %d", b.bytes, memoBytes)
	}
	if n := memoLen(&b); n != 3 {
		t.Fatalf("memo holds %d quarter-bound entries, want 3", n)
	}
	b.put("huge", 0, memoBytes)
	if _, ok := b.get("huge"); ok {
		t.Fatal("a value larger than the byte bound was stored")
	}
}

// TestMemoLRURecency: eviction at the cap is least-recently-used, so a
// read that keeps being served survives while one-off reads age out.
func TestMemoLRURecency(t *testing.T) {
	var m memo
	m.put("hot", "hot", 1)
	for i := 1; i < memoEntries; i++ {
		m.put(fmt.Sprintf("cold%d", i), i, 1)
	}
	if _, ok := m.get("hot"); !ok { // refreshes hot's recency
		t.Fatal("hot entry missing before the cap")
	}
	m.put("new", "new", 1) // at the cap: evicts cold1, the LRU
	if _, ok := m.get("hot"); !ok {
		t.Fatal("hot entry evicted despite recency")
	}
	if _, ok := m.get("cold1"); ok {
		t.Fatal("least-recently-used entry survived")
	}
	if n := memoLen(&m); n != memoEntries {
		t.Fatalf("len = %d, want cap %d", n, memoEntries)
	}
}

// TestStableView: View hands out the same *View until a shard publishes
// or a boundary edge lands, with validators rendered as before; a pinned
// older view keeps serving its own memo while the live one computes
// afresh.
func TestStableView(t *testing.T) {
	c := postCorpus(t)
	cl, err := New(c, Options{Shards: 3, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	v := cl.View()
	if cl.View() != v {
		t.Fatal("View built a new view with no publish in between")
	}
	if got, want := v.ETag(), fmt.Sprintf(`"mass-seq-%d.%d.%d"`, v.Snaps[0].Seq, v.Snaps[1].Seq, v.Snaps[2].Seq); got != want {
		t.Fatalf("ETag %s, want %s", got, want)
	}
	q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(10).Build()
	r1, _, err := cl.Query(v, q)
	if err != nil {
		t.Fatal(err)
	}

	// A write to one shard and a refresh publish a new cut.
	a := ownedID(cl, 1, "stable")
	if err := cl.AddBatch(core.Batch{
		Bloggers: []*blog.Blogger{{ID: a, Name: "A"}},
		Posts:    []*blog.Post{post("stable-p", string(a), time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	live := cl.View()
	if live == v {
		t.Fatal("a shard publish must produce a new view")
	}
	if live.MaxSeq() <= v.MaxSeq() || live.SeqKey() == v.SeqKey() {
		t.Fatalf("new view seqs %s do not advance on %s", live.SeqKey(), v.SeqKey())
	}
	r2, _, err := cl.Query(live, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r1 {
		t.Fatal("the new view served the old view's memoized result")
	}
	if again, _, _ := cl.Query(v, q); again != r1 {
		t.Fatal("the pinned old view lost its memoized result")
	}

	// A cross-shard link changes Stats without any shard publishing, so it
	// too must cut a new view.
	x, y := ownedID(cl, 0, "bx"), ownedID(cl, 2, "by")
	before := cl.View()
	if err := cl.AddBatch(core.Batch{Links: []blog.Link{{From: x, To: y}}}); err != nil {
		t.Fatal(err)
	}
	if cl.View() == before {
		t.Fatal("a new boundary edge must produce a new view")
	}
}

// TestMemoBypass: while a shard's breaker is open or the slow-shard hook
// is set, reads are computed cold and nothing is stored; once both clear,
// the view's memo serves again.
func TestMemoBypass(t *testing.T) {
	cl, err := New(postCorpus(t), Options{Shards: 3, Engine: quietEngine(), ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	v := cl.View()
	q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(100).Build()
	healthy, _, err := cl.Query(v, q)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cl.MemoStats()

	cl.shards[1].health.Store(int32(HealthQuarantined))
	got, degraded, err := cl.Query(v, q)
	if err != nil || !degraded || got == healthy {
		t.Fatalf("read with an open breaker: degraded=%v memoized=%v err=%v", degraded, got == healthy, err)
	}
	routedQ := query.Posts().Where(query.F(query.FieldAuthor).Is(string(ownedID(cl, 0, "nobody")))).Build()
	if _, _, err := cl.Query(v, routedQ); err != nil {
		t.Fatal(err)
	}
	cl.shards[1].health.Store(int32(HealthHealthy))

	cl.SetSlowShardHook(func(int) {})
	if got, _, err := cl.Query(v, q); err != nil || got == healthy {
		t.Fatalf("read with the slow-shard hook set was memoized (err %v)", err)
	}
	cl.SetSlowShardHook(nil)
	if h, m := cl.MemoStats(); h != hits || m != misses {
		t.Fatalf("bypassed reads touched the memo: hits %d->%d misses %d->%d", hits, h, misses, m)
	}
	if n := memoLen(&v.memo); n != 1 {
		t.Fatalf("bypassed reads stored entries: memo holds %d, want 1", n)
	}
	if got, _, _ := cl.Query(v, q); got != healthy {
		t.Fatal("memo did not serve again once the breaker closed and the hook cleared")
	}
}

// TestStableViewRacesPublishes races shard publishes against readers that
// pin views and fill their memos: every read must equal a cold execution
// against the view it pinned. Run under -race.
func TestStableViewRacesPublishes(t *testing.T) {
	cl, err := New(postCorpus(t), Options{Shards: 3, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := []*query.Query{
		query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(5).Build(),
		query.Posts().OrderBy(query.Desc(query.FieldPosted)).Limit(5).Build(),
		query.Bloggers().Where(query.F(query.FieldPosts).Ge(1)).Limit(3).Build(),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := cl.View()
				q := queries[i%len(queries)]
				got, degraded, err := cl.Query(v, q)
				if err != nil || degraded {
					t.Errorf("degraded=%v err=%v", degraded, err)
					return
				}
				want, _, err := cl.execute(v, mustNormalize(t, q))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("memoized read differs from a cold read of its view")
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		a := ownedID(cl, i%3, fmt.Sprintf("race%d-", i))
		if err := cl.AddBatch(core.Batch{
			Bloggers: []*blog.Blogger{{ID: a, Name: "A"}},
			Posts:    []*blog.Post{post(fmt.Sprintf("race-p%d", i), string(a), time.Date(2009, 7, i+1, 0, 0, 0, 0, time.UTC))},
		}); err != nil {
			t.Error(err)
			break
		}
		if err := cl.Refresh(context.Background()); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func mustNormalize(t *testing.T, q *query.Query) *query.Query {
	n, err := q.Normalize()
	if err != nil {
		t.Error(err)
	}
	return n
}

// TestMemoSkipsDegradedResult: a scatter that loses a part without the
// bypass (here a part that panics, as a real timeout would drop one) is
// returned degraded and not stored.
func TestMemoSkipsDegradedResult(t *testing.T) {
	cl, err := New(postCorpus(t), Options{Shards: 3, Engine: quietEngine(), ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	live := cl.View()
	v := &View{cl: cl, Snaps: []*core.Snapshot{live.Snaps[0], nil, live.Snaps[2]}} // shard 1's part panics
	q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(10).Build()
	if _, degraded, err := cl.Query(v, q); err != nil || !degraded {
		t.Fatalf("degraded=%v err=%v, want a degraded answer", degraded, err)
	}
	if cl.memoBypassed() {
		t.Fatal("one lost part opened the breaker; the test no longer reaches the guard")
	}
	if n := memoLen(&v.memo); n != 0 {
		t.Fatalf("a degraded result was memoized (%d entries)", n)
	}
}
