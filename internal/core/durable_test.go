package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/influence"
	"mass/internal/wal"
)

// durableOptions are deterministic engine options for durability tests:
// manual flushes only, per-record fsync, and a solver tight enough
// (ε=1e-14) that warm-recovered and cold analyses agree to well under the
// 1e-12 equality bound asserted below.
func durableOptions(dir string) EngineOptions {
	return EngineOptions{
		Options: Options{
			Influence: influence.Config{Epsilon: 1e-14, MaxIter: 5000},
		},
		FlushEvery:    1 << 20,
		FlushInterval: time.Hour,
		Durability: DurabilityOptions{
			Dir:             dir,
			SyncEvery:       1,
			SyncInterval:    -1,
			CheckpointEvery: 1 << 20,
		},
	}
}

// inMemoryOptions mirror durableOptions without the durability layer, for
// the cold reference solves.
func inMemoryOptions() EngineOptions {
	o := durableOptions("")
	o.Durability = DurabilityOptions{}
	return o
}

// tailMutations applies the fixed post-preload mutation sequence used by
// the restart tests: a profile enrichment, new posts by existing bloggers,
// a comment, and a fresh link.
func tailMutations(t *testing.T, e *Engine, bloggers []blog.BloggerID) int {
	t.Helper()
	n := 0
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	must(e.AddBatch(Batch{Bloggers: []*blog.Blogger{{ID: bloggers[0], Name: "Enriched", Profile: "travel and tea"}}}))
	for i := 0; i < 6; i++ {
		must(e.AddBatch(Batch{Posts: []*blog.Post{{
			ID:     blog.PostID(fmt.Sprintf("tail-p%d", i)),
			Author: bloggers[i%len(bloggers)],
			Title:  fmt.Sprintf("tail %d", i),
			Body:   "travel stories from the coast with markets and food",
			Posted: time.Unix(int64(1700100000+i*60), 0),
		}}}))
	}
	must(e.AddBatch(Batch{Comments: []BatchComment{{Post: "tail-p0", Comment: blog.Comment{
		Commenter: bloggers[1], Text: "wonderful trip", Posted: time.Unix(1700100500, 0),
	}}}}))
	must(e.AddBatch(Batch{Links: []blog.Link{{From: bloggers[2], To: bloggers[3]}}}))
	return n
}

func wantScoresEqual(t *testing.T, got, want map[blog.BloggerID]float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("score sets differ: %d vs %d bloggers", len(got), len(want))
	}
	for b, w := range want {
		g, ok := got[b]
		if !ok {
			t.Fatalf("blogger %s missing from recovered scores", b)
		}
		if d := math.Abs(g - w); d > tol {
			t.Fatalf("blogger %s: recovered %v vs cold %v (|Δ|=%g > %g)", b, g, w, d, tol)
		}
	}
}

func TestDurableRestartMatchesColdSolve(t *testing.T) {
	dir := t.TempDir()

	e1, err := NewEngine(synthCorpus(t, 101, 25, 120), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	bloggers := e1.Current().Corpus().BloggerIDs()
	tailMutations(t, e1, bloggers)
	if err := e1.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	s1 := e1.Current()
	if !s1.Result().Converged {
		t.Fatalf("reference solve did not converge")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the directory alone: no corpus preload.
	e2, err := NewEngine(nil, durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st := e2.Status()
	// Close checkpointed everything, so the restart is snapshot-only.
	if st.RecoveredRecords != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", st.RecoveredRecords)
	}
	if st.RecoveryTruncatedAt != -1 {
		t.Fatalf("clean restart reported truncation at %d", st.RecoveryTruncatedAt)
	}
	if st.Seq != s1.Seq+1 {
		t.Fatalf("sequence did not continue: %d after %d", st.Seq, s1.Seq)
	}
	if st.Bloggers != len(bloggers)+0 || st.Posts != s1.Corpus().NumPosts() {
		t.Fatalf("recovered corpus shape %d/%d, want %d/%d",
			st.Bloggers, st.Posts, len(bloggers), s1.Corpus().NumPosts())
	}
	// The first flush after restart must be warm: every post's posterior,
	// tokenization and novelty value and every comment's sentiment came
	// from the persisted cache, no post was looked up in the novelty
	// detector, and the unchanged link graph skipped PageRank outright.
	res, c := e2.Current().Result(), e2.Current().Corpus()
	comments := 0
	for _, p := range c.Posts() {
		comments += len(p.Comments)
	}
	if st.ReusedPosteriors != c.NumPosts() || res.ReusedPosteriors != c.NumPosts() ||
		res.ReusedNovelty != c.NumPosts() || res.ScoredNovelty != 0 || res.ReusedSentiments != comments {
		t.Fatalf("recovered flush reused %d/%d posteriors, %d/%d tokenizations, %d/%d sentiments and scored %d novelty values, want all reused and none scored",
			res.ReusedPosteriors, c.NumPosts(), res.ReusedNovelty, c.NumPosts(), res.ReusedSentiments, comments, res.ScoredNovelty)
	}
	if !st.PageRankSkipped || !res.PageRankSkipped {
		t.Fatalf("recovered flush re-ran PageRank despite unchanged link graph")
	}

	// A cold engine over the identical mutation history is the ground
	// truth; recovered scores must match to ≤1e-12.
	cold, err := NewEngine(synthCorpus(t, 101, 25, 120), inMemoryOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	tailMutations(t, cold, bloggers)
	if err := cold.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantScoresEqual(t, e2.Current().Result().BloggerScores, cold.Current().Result().BloggerScores, 1e-12)
}

// appendTail writes ops directly to the engine's WAL directory, simulating
// mutations that were acknowledged and synced but crashed before any
// checkpoint covered them.
func appendTail(t *testing.T, dir string, ops []wal.Op) {
	t.Helper()
	l, _, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ops...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableRestartReplaysTailAndMatchesColdSolve(t *testing.T) {
	dir := t.TempDir()

	e1, err := NewEngine(synthCorpus(t, 202, 20, 100), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	bloggers := e1.Current().Corpus().BloggerIDs()
	existingLink := e1.Current().Corpus().Links()[0]
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulated crash tail: durable in the WAL, not covered by any
	// checkpoint. The link re-ingests an existing edge, so the link graph
	// is unchanged and the recovered flush can prove warm PageRank reuse.
	tail := []wal.Op{
		{Kind: wal.OpPost, Post: &blog.Post{
			ID: "crash-p1", Author: bloggers[0], Title: "crash post",
			Body: "written moments before the crash", Posted: time.Unix(1700200000, 0),
		}},
		{Kind: wal.OpComment, PostID: "crash-p1", Comment: &blog.Comment{
			Commenter: bloggers[1], Text: "made it", Posted: time.Unix(1700200100, 0),
		}},
		{Kind: wal.OpLink, From: existingLink.From, To: existingLink.To},
	}
	appendTail(t, dir, tail)

	e2, err := NewEngine(nil, durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st := e2.Status()
	if st.RecoveredRecords != len(tail) {
		t.Fatalf("replayed %d records, want %d", st.RecoveredRecords, len(tail))
	}
	if e2.Current().Corpus().Post("crash-p1") == nil {
		t.Fatalf("tail post not recovered")
	}
	// Tail replay still flushes warm: old posts' posteriors are reused and
	// the unchanged link graph (the tail link was a dedup) lets the
	// recovered PageRank vector be reused outright.
	if st.ReusedPosteriors == 0 {
		t.Fatalf("tail-replay flush reused no posteriors")
	}
	if !st.PageRankSkipped {
		t.Fatalf("recovered flush re-ran PageRank despite unchanged link graph")
	}
	// The checkpointed novelty detector is kept: only the tail post is
	// looked up.
	if n := e2.Current().Result().ScoredNovelty; n != 1 {
		t.Fatalf("tail-replay flush looked up %d posts in the novelty detector, want the 1 tail post", n)
	}

	cold, err := NewEngine(synthCorpus(t, 202, 20, 100), inMemoryOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if err := cold.AddBatch(Batch{Posts: []*blog.Post{tail[0].Post}}); err != nil {
		t.Fatal(err)
	}
	if err := cold.AddBatch(Batch{Comments: []BatchComment{{Post: tail[1].PostID, Comment: *tail[1].Comment}}}); err != nil {
		t.Fatal(err)
	}
	if err := cold.AddBatch(Batch{Links: []blog.Link{{From: tail[2].From, To: tail[2].To}}}); err != nil {
		t.Fatal(err)
	}
	if err := cold.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantScoresEqual(t, e2.Current().Result().BloggerScores, cold.Current().Result().BloggerScores, 1e-12)
}

func TestDurableTornTailRecoversPrefixWithoutPanic(t *testing.T) {
	base := t.TempDir()
	master := filepath.Join(base, "master")

	e1, err := NewEngine(synthCorpus(t, 303, 15, 60), durableOptions(master))
	if err != nil {
		t.Fatal(err)
	}
	bloggers := e1.Current().Corpus().BloggerIDs()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	var tail []wal.Op
	for i := 0; i < 8; i++ {
		tail = append(tail, wal.Op{Kind: wal.OpPost, Post: &blog.Post{
			ID:     blog.PostID(fmt.Sprintf("torn-p%d", i)),
			Author: bloggers[i%len(bloggers)],
			Body:   "tail record body",
			Posted: time.Unix(int64(1700300000+i), 0),
		}})
	}
	appendTail(t, master, tail)

	// The tail lives in the newest segment; find it and its size.
	var tailSeg string
	var tailLen int64
	ents, err := os.ReadDir(master)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != ".seg" {
			continue
		}
		if tailSeg == "" || ent.Name() > tailSeg {
			info, err := ent.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() > 20 { // skip the empty segment Open leaves behind
				tailSeg, tailLen = ent.Name(), info.Size()
			}
		}
	}
	if tailSeg == "" {
		t.Fatalf("no tail segment found")
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		dir := filepath.Join(base, fmt.Sprintf("t%d", trial))
		copyDataDir(t, master, dir)
		cut := 20 + rng.Int63n(tailLen-20)
		if err := os.Truncate(filepath.Join(dir, tailSeg), cut); err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(nil, durableOptions(dir))
		if err != nil {
			t.Fatalf("trial %d: recovery failed: %v", trial, err)
		}
		st := e.Status()
		if st.RecoveredRecords > len(tail) {
			t.Fatalf("trial %d: recovered %d records from a %d-record tail", trial, st.RecoveredRecords, len(tail))
		}
		// The recovered prefix must be the tail's posts in order, fully
		// intact — never a partially applied record.
		c := e.Current().Corpus()
		for i := 0; i < st.RecoveredRecords; i++ {
			p := c.Post(blog.PostID(fmt.Sprintf("torn-p%d", i)))
			if p == nil || p.Body != "tail record body" {
				t.Fatalf("trial %d: recovered record %d missing or mangled", trial, i)
			}
		}
		for i := st.RecoveredRecords; i < len(tail); i++ {
			if c.Post(blog.PostID(fmt.Sprintf("torn-p%d", i))) != nil {
				t.Fatalf("trial %d: post %d beyond the valid prefix was served", trial, i)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: recovered corpus invalid: %v", trial, err)
		}
		// A cut exactly on a frame boundary is indistinguishable from a
		// clean shutdown, so a reported tear is only required when the cut
		// landed mid-frame — which the wal package's own tests pin down;
		// here it suffices that the engine never serves past the cut.
		e.Close()
	}
}

// TestDurableConcurrentIngestVsCheckpoint races ingestion against flushes
// and checkpoints (run with -race), then proves the directory recovers to
// the full acknowledged state.
func TestDurableConcurrentIngestVsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := durableOptions(dir)
	opts.Options.Influence = influence.Config{} // default solver: speed over 1e-14 equality
	opts.FlushEvery = 8
	opts.FlushInterval = 5 * time.Millisecond
	opts.Durability.SyncEvery = 4
	opts.Durability.CheckpointEvery = 16

	e, err := NewEngine(synthCorpus(t, 404, 10, 40), opts)
	if err != nil {
		t.Fatal(err)
	}
	bloggers := e.Current().Corpus().BloggerIDs()

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := &blog.Post{
					ID:     blog.PostID(fmt.Sprintf("race-%d-%d", w, i)),
					Author: bloggers[(w+i)%len(bloggers)],
					Body:   "raced ingest",
					Posted: time.Unix(int64(1700400000+w*1000+i), 0),
				}
				if err := e.AddBatch(Batch{Posts: []*blog.Post{p}}); err != nil {
					t.Errorf("AddPost: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := e.Status().Checkpoints; got == 0 {
		t.Fatalf("no checkpoints were written while racing")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	c := e2.Current().Corpus()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if c.Post(blog.PostID(fmt.Sprintf("race-%d-%d", w, i))) == nil {
				t.Fatalf("acknowledged post race-%d-%d lost across restart", w, i)
			}
		}
	}
}

// failingFS delegates to the real filesystem but fails every fsync once
// armed, so the engine's fail-stop on lost durability can be observed.
type failingFS struct {
	wal.FS
	mu   sync.Mutex
	arm  bool
	hits int
}

func (f *failingFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return failingFile{file, f}, nil
}

type failingFile struct {
	wal.File
	fs *failingFS
}

func (f failingFile) Sync() error {
	f.fs.mu.Lock()
	armed := f.fs.arm
	if armed {
		f.fs.hits++
	}
	f.fs.mu.Unlock()
	if armed {
		return fmt.Errorf("injected fsync failure")
	}
	return f.File.Sync()
}

func TestDurableFsyncFailureFailsStop(t *testing.T) {
	dir := t.TempDir()
	ffs := &failingFS{FS: wal.OSFS()}
	opts := durableOptions(dir)
	opts.Durability.FS = ffs

	e, err := NewEngine(synthCorpus(t, 505, 8, 30), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bloggers := e.Current().Corpus().BloggerIDs()

	ffs.mu.Lock()
	ffs.arm = true
	ffs.mu.Unlock()

	p := &blog.Post{ID: "doomed", Author: bloggers[0], Body: "never durable"}
	if err := e.AddBatch(Batch{Posts: []*blog.Post{p}}); err == nil {
		t.Fatalf("AddPost acknowledged a mutation the WAL could not make durable")
	}
	// Fail-stop is sticky: nothing is acknowledged after a lost fsync.
	if err := e.AddBatch(Batch{Links: []blog.Link{{From: bloggers[1], To: bloggers[2]}}}); err == nil {
		t.Fatalf("mutation acknowledged after WAL failure")
	}
	if st := e.Status(); st.LastError == "" {
		t.Fatalf("WAL failure not surfaced in status")
	}
}

// TestIngestPageRejectedWhole: a page that fails validation partway — its
// second post carries a comment with no commenter — must change nothing:
// no blogger, no post, nothing pending, and a Kill plus recovery brings
// back exactly what was in memory.
func TestIngestPageRejectedWhole(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(synthCorpus(t, 606, 8, 30), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	page := &blogserver.Page{
		Blogger: blog.Blogger{ID: "rejected-page", Name: "Rejected"},
		Posts: []blog.Post{
			{ID: "rejected-p1", Author: "rejected-page", Body: "a fine first post"},
			{ID: "rejected-p2", Author: "rejected-page", Body: "a bad second post",
				Comments: []blog.Comment{{Text: "who wrote this?"}}},
		},
	}
	if err := e.IngestPage(page); err == nil {
		t.Fatal("IngestPage accepted a comment with an empty commenter")
	}
	live := e.DetachCorpus()
	if _, ok := live.Bloggers["rejected-page"]; ok {
		t.Fatal("rejected page left its blogger behind")
	}
	if _, ok := live.Posts["rejected-p1"]; ok {
		t.Fatal("rejected page left its first post behind")
	}
	if st := e.Status(); st.Pending != 0 {
		t.Fatalf("rejected page left %d mutations pending", st.Pending)
	}
	e.Kill()
	e2, err := NewEngine(nil, durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rec := e2.DetachCorpus()
	if len(rec.Bloggers) != len(live.Bloggers) || len(rec.Posts) != len(live.Posts) {
		t.Fatalf("recovered %d bloggers / %d posts, memory held %d / %d",
			len(rec.Bloggers), len(rec.Posts), len(live.Bloggers), len(live.Posts))
	}
}

// TestWriteModesCountAndLog pins how page and stub writes count toward the
// flush debounce and what they log: a new page counts each op; its
// re-delivery counts zero but logs the profile upsert again; a stub for a
// known blogger counts and logs nothing.
func TestWriteModesCountAndLog(t *testing.T) {
	e, err := NewEngine(synthCorpus(t, 707, 8, 30), durableOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	base := e.Current().Corpus().BloggerIDs()
	page := &blogserver.Page{
		Blogger:   blog.Blogger{ID: "page-new", Name: "New", Profile: "tea and travel"},
		Posts:     []blog.Post{{ID: "page-p1", Author: "page-new", Body: "first crawled post"}},
		Links:     []blog.BloggerID{base[0], "page-new"},
		Linkbacks: []blog.BloggerID{base[1]},
	}
	check := func(step string, pending int, records uint64) {
		t.Helper()
		if st := e.Status(); st.Pending != pending || st.WALRecords != records {
			t.Fatalf("%s: pending=%d walRecords=%d, want %d/%d", step, st.Pending, st.WALRecords, pending, records)
		}
	}
	check("boot", 0, 0)
	if err := e.IngestPage(page); err != nil {
		t.Fatal(err)
	}
	check("new page", 4, 4) // profile, post, link, linkback; the self-link is dropped
	if err := e.IngestPage(page); err != nil {
		t.Fatal(err)
	}
	check("re-delivered page", 4, 5)
	stub := func(id blog.BloggerID) []wal.Op {
		return []wal.Op{{Kind: wal.OpBlogger, Blogger: &blog.Blogger{ID: id}}}
	}
	if err := e.Write(StubWrite, stub(base[2])); err != nil {
		t.Fatal(err)
	}
	check("known stub", 4, 5)
	if err := e.Write(StubWrite, append(stub("stub-new"), stub("stub-new")...)); err != nil {
		t.Fatal(err)
	}
	check("new stub twice", 5, 6)
}

func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
