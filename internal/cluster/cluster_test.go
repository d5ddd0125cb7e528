package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
)

func post(id, author string, when time.Time) *blog.Post {
	return &blog.Post{
		ID:     blog.PostID(id),
		Author: blog.BloggerID(author),
		Title:  "t " + id,
		Body:   "body of " + id + " with some words",
		Posted: when,
	}
}

// TestAddBatchRouting: every piece of a mixed batch must land on the shard
// the ring assigns: posts with their author, comments with their post,
// intra links on the common owner, cross links in the boundary set with
// stub endpoints admitted on both owner shards.
func TestAddBatchRouting(t *testing.T) {
	cl, err := New(nil, Options{Shards: 4, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Find two bloggers on different shards and two on the same shard.
	var a, b, c string
	for i := 0; ; i++ {
		id := fmt.Sprintf("u%03d", i)
		switch {
		case a == "":
			a = id
		case b == "" && cl.Owner(blog.BloggerID(id)) != cl.Owner(blog.BloggerID(a)):
			b = id
		case c == "" && cl.Owner(blog.BloggerID(id)) == cl.Owner(blog.BloggerID(a)) && id != a:
			c = id
		}
		if a != "" && b != "" && c != "" {
			break
		}
	}
	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	batch := core.Batch{
		Bloggers: []*blog.Blogger{{ID: blog.BloggerID(a), Name: "A"}, {ID: blog.BloggerID(b), Name: "B"}},
		Posts:    []*blog.Post{post("p1", a, when), post("p2", b, when.Add(time.Hour))},
		Comments: []core.BatchComment{{
			Post:    "p1",
			Comment: blog.Comment{Commenter: blog.BloggerID(b), Text: "nice", Posted: when.Add(2 * time.Hour)},
		}},
		Links: []blog.Link{
			{From: blog.BloggerID(a), To: blog.BloggerID(b)}, // cross
			{From: blog.BloggerID(a), To: blog.BloggerID(c)}, // intra
		},
	}
	if err := cl.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := cl.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	sa, sb := cl.Owner(blog.BloggerID(a)), cl.Owner(blog.BloggerID(b))
	ca, cb := cl.Shard(sa).Current().Corpus(), cl.Shard(sb).Current().Corpus()
	if ca.Post("p1") == nil {
		t.Fatalf("p1 not on author shard %d", sa)
	}
	if cb.Post("p2") == nil {
		t.Fatalf("p2 not on author shard %d", sb)
	}
	if got := len(ca.Post("p1").Comments); got != 1 {
		t.Fatalf("comment did not follow p1: %d comments", got)
	}
	if cl.BoundaryEdges() != 1 {
		t.Fatalf("boundary edges = %d, want 1", cl.BoundaryEdges())
	}
	// Each boundary endpoint exists on its own owner shard — that is what
	// keeps the merged PageRank node union equal to the global set.
	if ca.Blogger(blog.BloggerID(a)) == nil {
		t.Fatalf("boundary source %q missing from its owner shard", a)
	}
	if cb.Blogger(blog.BloggerID(b)) == nil {
		t.Fatalf("boundary target %q missing from its owner shard", b)
	}
	// The intra link stays inside shard sa and off the boundary.
	found := false
	for _, l := range ca.Links() {
		if l.From == blog.BloggerID(a) && l.To == blog.BloggerID(c) {
			found = true
		}
	}
	if !found {
		t.Fatal("intra link missing from common owner shard")
	}
	// A comment on p1 in a later batch routes via postOwner.
	later := core.Batch{Comments: []core.BatchComment{{
		Post:    "p1",
		Comment: blog.Comment{Commenter: blog.BloggerID(c), Text: "again", Posted: when.Add(3 * time.Hour)},
	}}}
	if err := cl.AddBatch(later); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch(core.Batch{Comments: []core.BatchComment{{
		Post:    "nope",
		Comment: blog.Comment{Commenter: blog.BloggerID(c), Text: "?", Posted: when},
	}}}); err == nil || !strings.Contains(err.Error(), "unknown post") {
		t.Fatalf("comment on unknown post: err = %v", err)
	}
}

// TestManifestMismatch: reopening a data directory with different ring
// geometry must fail loudly instead of scattering keys across the wrong
// WALs.
func TestManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	cl, err := New(nil, Options{Shards: 2, DataDir: dir, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, Options{Shards: 3, DataDir: dir, Engine: quietEngine()}); err == nil {
		t.Fatal("reopen with a different shard count succeeded")
	} else if !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("unexpected error: %v", err)
	}
	cl2, err := New(nil, Options{Shards: 2, DataDir: dir, Engine: quietEngine()})
	if err != nil {
		t.Fatalf("reopen with matching geometry: %v", err)
	}
	cl2.Close()
}

// TestClusterRecovery: a durable cluster must come back with every shard's
// data, the boundary set, and working post routing.
func TestClusterRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 3, DataDir: dir, Engine: quietEngine()}
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	var links []blog.Link
	batch := core.Batch{}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("u%03d", i)
		batch.Bloggers = append(batch.Bloggers, &blog.Blogger{ID: blog.BloggerID(id), Name: id})
		batch.Posts = append(batch.Posts, post(fmt.Sprintf("p%03d", i), id, when.Add(time.Duration(i)*time.Hour)))
		links = append(links, blog.Link{
			From: blog.BloggerID(id),
			To:   blog.BloggerID(fmt.Sprintf("u%03d", (i+1)%12)),
		})
	}
	batch.Links = links
	if err := cl.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	wantBoundary := cl.BoundaryEdges()
	if wantBoundary == 0 {
		t.Fatal("test needs cross-shard links")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.BoundaryEdges(); got != wantBoundary {
		t.Fatalf("recovered boundary edges = %d, want %d", got, wantBoundary)
	}
	totalPosts := 0
	for i := 0; i < re.NumShards(); i++ {
		totalPosts += re.Shard(i).Current().Corpus().NumPosts()
	}
	if totalPosts != 12 {
		t.Fatalf("recovered posts = %d, want 12", totalPosts)
	}
	// postOwner reseeded from recovered shards: comments still route.
	if err := re.AddBatch(core.Batch{Comments: []core.BatchComment{{
		Post:    "p003",
		Comment: blog.Comment{Commenter: "u007", Text: "back", Posted: when.Add(24 * time.Hour)},
	}}}); err != nil {
		t.Fatalf("comment after recovery: %v", err)
	}
}

// TestStatusCountsOwnedBloggersOnce: stub replication must not inflate the
// merged blogger count of Status or Stats, and boundary edges must show
// up in Links.
func TestStatusCountsOwnedBloggersOnce(t *testing.T) {
	c := linkCorpus(t, 50, 300, 11)
	cl, err := New(c, Options{Shards: 4, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := cl.Status()
	if st.Bloggers != 50 {
		t.Fatalf("merged bloggers = %d, want 50", st.Bloggers)
	}
	if n := cl.Stats(cl.View()).Bloggers; n != 50 {
		t.Fatalf("stats bloggers = %d, want 50", n)
	}
	fs := cl.FullStatus()
	if fs.Shards != 4 || len(fs.ShardSeqs) != 4 {
		t.Fatalf("cluster status shape: %+v", fs)
	}
	intra := 0
	for i := 0; i < 4; i++ {
		intra += len(cl.Shard(i).Current().Corpus().Links())
	}
	if st.Links != intra+cl.BoundaryEdges() {
		t.Fatalf("merged links = %d, want %d intra + %d boundary", st.Links, intra, cl.BoundaryEdges())
	}
}

// TestConcurrentWritesMatchSequential: writers on disjoint bloggers racing
// through the router must leave every shard, the boundary set and the
// mutation counts exactly as the same writes sent one at a time do.
func TestConcurrentWritesMatchSequential(t *testing.T) {
	const writers, perWriter = 4, 25
	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	batches := func(w int) []core.Batch {
		out := make([]core.Batch, perWriter)
		for i := range out {
			id := fmt.Sprintf("w%d-%03d", w, i)
			out[i] = core.Batch{
				Bloggers: []*blog.Blogger{{ID: blog.BloggerID(id), Name: id}},
				Posts:    []*blog.Post{post("p"+id, id, when.Add(time.Duration(i)*time.Minute))},
			}
			if i > 0 {
				prev := fmt.Sprintf("w%d-%03d", w, (i*7+3)%i)
				out[i].Links = []blog.Link{{From: blog.BloggerID(id), To: blog.BloggerID(prev)}}
				out[i].Comments = []core.BatchComment{{Post: blog.PostID("p" + prev),
					Comment: blog.Comment{Commenter: blog.BloggerID(id), Text: "re " + prev, Posted: when}}}
			}
		}
		return out
	}
	shape := func(c *blog.Corpus) (bloggers map[blog.BloggerID]string, comments map[blog.PostID]int, links []string) {
		bloggers, comments = map[blog.BloggerID]string{}, map[blog.PostID]int{}
		for id, b := range c.Bloggers {
			bloggers[id] = b.Name
		}
		for id, p := range c.Posts {
			comments[id] = len(p.Comments)
		}
		for _, l := range c.Links {
			links = append(links, string(l.From)+">"+string(l.To))
		}
		sort.Strings(links)
		return bloggers, comments, links
	}

	seq, err := New(nil, Options{Shards: 3, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	conc, err := New(nil, Options{Shards: 3, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	for w := 0; w < writers; w++ {
		for _, b := range batches(w) {
			if err := seq.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range batches(w) {
				if err := conc.AddBatch(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for s := 0; s < 3; s++ {
		wb, wc, wl := shape(seq.Shard(s).DetachCorpus())
		gb, gc, gl := shape(conc.Shard(s).DetachCorpus())
		if !reflect.DeepEqual(gb, wb) || !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gl, wl) {
			t.Fatalf("shard %d differs from the sequential run", s)
		}
	}
	if got, want := conc.boundarySnapshot(), seq.boundarySnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary edges differ: %d vs %d", len(got), len(want))
	}
	if got, want := conc.Status().TotalMutations, seq.Status().TotalMutations; got != want {
		t.Fatalf("concurrent writes counted %d mutations, sequential %d", got, want)
	}
}

// TestSingleShardErrorsComeFromEngine: at one shard the engine judges the
// whole write, so a batch with several faults is rejected with exactly
// the error a bare engine gives — not the router's view of one of them.
func TestSingleShardErrorsComeFromEngine(t *testing.T) {
	cl, err := New(nil, Options{Shards: 1, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eng, err := core.NewEngine(nil, quietEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batch := core.Batch{
		Bloggers: []*blog.Blogger{{ID: ""}},
		Comments: []core.BatchComment{{Post: "nope", Comment: blog.Comment{Commenter: "x", Text: "hi"}}},
	}
	want := eng.AddBatch(batch)
	if want == nil {
		t.Fatal("engine accepted a faulty batch")
	}
	if got := cl.AddBatch(batch); got == nil || got.Error() != want.Error() {
		t.Fatalf("one-shard cluster error = %v, engine error = %v", got, want)
	}
}

// TestWriteDoesNotWaitOnUntouchedShard: a write owned entirely by one
// shard must not wait for another shard's slot lock, which a restart or a
// long spill replay holds.
func TestWriteDoesNotWaitOnUntouchedShard(t *testing.T) {
	cl, err := New(nil, Options{Shards: 3, Engine: quietEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a := ownedID(cl, 0, "a")
	sh := cl.shards[2]
	sh.mu.Lock()
	done := make(chan error, 1)
	go func() {
		done <- cl.AddBatch(core.Batch{
			Bloggers: []*blog.Blogger{{ID: a, Name: "A"}},
			Posts:    []*blog.Post{post("own-p", string(a), time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC))},
		})
	}()
	select {
	case err := <-done:
		sh.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		sh.mu.Unlock()
		<-done
		t.Fatal("a write owned by shard 0 waited on shard 2's lock")
	}
}
