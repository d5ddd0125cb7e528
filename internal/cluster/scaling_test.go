package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/query"
)

// scatterCorpus builds BenchmarkShardScatterGather's corpus shape at test
// size: one post per blogger, each a diverse 12-word body, and
// deduplicated Zipf links (s=1.3, v=8), from seed 2010.
func scatterCorpus(t testing.TB, nodes, edgeDraws int) (*blog.Corpus, []blog.BloggerID) {
	t.Helper()
	rng := rand.New(rand.NewSource(2010))
	zipf := rand.NewZipf(rng, 1.3, 8, uint64(nodes-1))
	c := blog.NewCorpus()
	ids := make([]blog.BloggerID, nodes)
	for i := range ids {
		ids[i] = blog.BloggerID(fmt.Sprintf("b%05d", i))
		if err := c.AddBlogger(&blog.Blogger{ID: ids[i], Name: string(ids[i])}); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		var words []string
		for w := 0; w < 12; w++ {
			words = append(words, fmt.Sprintf("w%04d", rng.Intn(4000)))
		}
		err := c.AddPost(&blog.Post{
			ID:     blog.PostID(fmt.Sprintf("p%05d", i)),
			Author: id,
			Title:  "report",
			Body:   strings.Join(words, " ") + fmt.Sprintf(" report%d", i),
			Posted: time.Unix(1250000000+int64(i)*60, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := map[[2]int]bool{}
	for k := 0; k < edgeDraws; k++ {
		f, to := rng.Intn(nodes), int(zipf.Uint64())
		if f == to || seen[[2]int{f, to}] {
			continue
		}
		seen[[2]int{f, to}] = true
		if err := c.AddLink(ids[f], ids[to]); err != nil {
			t.Fatal(err)
		}
	}
	return c, ids
}

// TestShardFlushReanalyzesOwnerOnly: a post ingested through the ring at
// 8 shards is analyzed by its owner shard alone. The owner re-analyzes
// its own rows (the bloggers it owns, about 1/8 of the corpus; cross-shard
// links live in the boundary set) and tokenizes and classifies only the
// new post; no other shard publishes a generation.
func TestShardFlushReanalyzesOwnerOnly(t *testing.T) {
	const nodes, shards = 4000, 8
	corpus, ids := scatterCorpus(t, nodes, 40_000)
	cl, err := New(corpus, Options{Shards: shards, ShardTimeout: 30 * time.Second, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	owned := make([]int, shards)
	author := make([]blog.BloggerID, shards)
	for _, id := range ids {
		s := cl.Owner(id)
		if owned[s]++; owned[s] == 1 {
			author[s] = id
		}
	}
	for si := 0; si < shards; si++ {
		seqs := make([]uint64, shards)
		for j := range seqs {
			seqs[j] = cl.Shard(j).Status().Seq
		}
		err := cl.AddBatch(core.Batch{Posts: []*blog.Post{{
			ID:     blog.PostID(fmt.Sprintf("fl-%d", si)),
			Author: author[si],
			Title:  "flush probe",
			Body:   "a fresh probe post about the markets to fold in",
			Posted: time.Unix(1260000000+int64(si), 0),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Shard(si).Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		for j, seq := range seqs {
			if j == si {
				seq++
			}
			if got := cl.Shard(j).Status().Seq; got != seq {
				t.Fatalf("flush on shard %d: shard %d at seq %d, want %d", si, j, got, seq)
			}
		}
		st := cl.Shard(si).Status()
		if st.Bloggers != owned[si] || st.Bloggers > 2*nodes/shards {
			t.Fatalf("shard %d re-analyzed %d blogger rows; it owns %d of %d", si, st.Bloggers, owned[si], nodes)
		}
		if fresh := st.Posts - st.ReusedNovelty; fresh != 1 {
			t.Fatalf("shard %d tokenized %d posts for a one-post flush", si, fresh)
		}
		if fresh := st.Posts - st.ReusedPosteriors; fresh != 1 {
			t.Fatalf("shard %d classified %d posts for a one-post flush", si, fresh)
		}
	}
}

// TestRoutedQueryScansOwnerShard: an author-pinned posts query at 8
// shards runs on the author's owner shard alone, so it scans about 1/8 of
// the posts where one shard scans them all (ShardResult.Scanned), and it
// answers exactly what one shard answers.
func TestRoutedQueryScansOwnerShard(t *testing.T) {
	const nodes, shards = 4000, 8
	// Each cluster gets its own corpus: a 1-shard cluster serves the
	// preload corpus object itself.
	c1, ids := scatterCorpus(t, nodes, 40_000)
	c8, _ := scatterCorpus(t, nodes, 40_000)
	one, err := New(c1, Options{Shards: 1, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	eight, err := New(c8, Options{Shards: shards, ShardTimeout: 30 * time.Second, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer eight.Close()
	v1, v8 := one.View(), eight.View()
	for _, author := range ids[:40] {
		q := query.Posts().
			Where(query.F(query.FieldAuthor).Is(string(author))).
			OrderBy(query.Desc(query.FieldPosted)).Limit(20).Build()
		want, _, err := one.Query(v1, q)
		if err != nil {
			t.Fatal(err)
		}
		got, degraded, err := eight.Query(v8, q)
		if err != nil || degraded {
			t.Fatalf("%s: degraded=%v err=%v", author, degraded, err)
		}
		if !strings.HasPrefix(got.Plan, "route/") {
			t.Fatalf("%s: plan %q, want route/*", author, got.Plan)
		}
		if got.Total != want.Total || toJSON(t, got.Rows) != toJSON(t, want.Rows) {
			t.Fatalf("%s: routed answer differs from one shard's", author)
		}
		n, err := q.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		scanned := func(snap *core.Snapshot) int {
			part, err := query.ExecuteShard(snap.Corpus(), snap.Result(), n, nil)
			if err != nil {
				t.Fatal(err)
			}
			return part.Scanned
		}
		owner := v8.Snaps[eight.Owner(author)]
		if all := scanned(v1.Snaps[0]); all != nodes {
			t.Fatalf("one shard scanned %d posts, want all %d", all, nodes)
		}
		if part := scanned(owner); part != owner.Corpus().NumPosts() || part > 2*nodes/shards {
			t.Fatalf("%s: routed query scanned %d posts, want its owner's %d (about %d)",
				author, part, owner.Corpus().NumPosts(), nodes/shards)
		}
	}
}
