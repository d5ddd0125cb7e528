package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/influence"
)

// testOps builds n distinct ops cycling through all kinds, starting from
// sequence number seed.
func testOps(seed, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		k := seed + i
		switch k % 4 {
		case 0:
			ops = append(ops, Op{Kind: OpBlogger, Blogger: &blog.Blogger{
				ID:      blog.BloggerID(fmt.Sprintf("b%d", k)),
				Name:    fmt.Sprintf("Blogger %d", k),
				Profile: "likes graphs",
				Friends: []blog.BloggerID{blog.BloggerID(fmt.Sprintf("b%d", k+1))},
			}})
		case 1:
			ops = append(ops, Op{Kind: OpPost, Post: &blog.Post{
				ID:     blog.PostID(fmt.Sprintf("p%d", k)),
				Author: blog.BloggerID(fmt.Sprintf("b%d", k)),
				Title:  fmt.Sprintf("title %d", k),
				Body:   "a body with some words",
				Posted: time.Unix(int64(1700000000+k), 123),
				Tags:   []string{"t1", "t2"},
				Comments: []blog.Comment{{
					Commenter: blog.BloggerID(fmt.Sprintf("b%d", k+2)),
					Text:      "nice post",
					Posted:    time.Unix(int64(1700000100+k), 0),
				}},
			}})
		case 2:
			ops = append(ops, Op{Kind: OpComment,
				PostID: blog.PostID(fmt.Sprintf("p%d", k-1)),
				Comment: &blog.Comment{
					Commenter: blog.BloggerID(fmt.Sprintf("b%d", k)),
					Text:      "me too",
					Posted:    time.Unix(int64(1700000200+k), 456),
				}})
		default:
			ops = append(ops, Op{Kind: OpLink,
				From: blog.BloggerID(fmt.Sprintf("b%d", k)),
				To:   blog.BloggerID(fmt.Sprintf("b%d", k+3))})
		}
	}
	return ops
}

// encodeOps renders ops to their canonical WAL payloads, the equality the
// log actually guarantees.
func encodeOps(t *testing.T, ops []Op) [][]byte {
	t.Helper()
	out := make([][]byte, len(ops))
	for i := range ops {
		p, err := appendOp(nil, &ops[i])
		if err != nil {
			t.Fatalf("encode op %d: %v", i, err)
		}
		out[i] = p
	}
	return out
}

func wantOps(t *testing.T, got, want []Op) {
	t.Helper()
	ge, we := encodeOps(t, got), encodeOps(t, want)
	if len(ge) != len(we) {
		t.Fatalf("got %d ops, want %d", len(ge), len(we))
	}
	for i := range ge {
		if !bytes.Equal(ge[i], we[i]) {
			t.Fatalf("op %d differs:\n got  %x\n want %x", i, ge[i], we[i])
		}
	}
}

func openTestLog(t *testing.T, dir string, opt Options) (*Log, *Recovered) {
	t.Helper()
	opt.Dir = dir
	if opt.SyncInterval == 0 {
		opt.SyncInterval = -1 // deterministic sync counts in tests
	}
	l, rec, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ops := testOps(0, 13)

	l, rec := openTestLog(t, dir, Options{})
	if rec.HasState() {
		t.Fatalf("fresh dir reported state: %+v", rec)
	}
	if rec.TruncatedAt != -1 {
		t.Fatalf("fresh dir TruncatedAt = %d, want -1", rec.TruncatedAt)
	}
	for i := range ops {
		if err := l.Append(ops[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if got := l.LastIndex(); got != uint64(len(ops)) {
		t.Fatalf("LastIndex = %d, want %d", got, len(ops))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openTestLog(t, dir, Options{})
	defer l2.Close()
	if rec2.Snapshot != nil {
		t.Fatalf("unexpected snapshot")
	}
	if rec2.LastIndex != uint64(len(ops)) {
		t.Fatalf("recovered LastIndex = %d, want %d", rec2.LastIndex, len(ops))
	}
	if rec2.TruncatedAt != -1 {
		t.Fatalf("clean log TruncatedAt = %d, want -1", rec2.TruncatedAt)
	}
	wantOps(t, rec2.Ops, ops)
}

func TestGroupCommitSyncEvery(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{SyncEvery: 4})
	defer l.Close()

	ops := testOps(0, 3)
	if err := l.Append(ops...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if s := l.Stats(); s.Syncs != 0 {
		t.Fatalf("Syncs after 3 records = %d, want 0 (SyncEvery=4)", s.Syncs)
	}
	if err := l.Append(testOps(3, 1)...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if s := l.Stats(); s.Syncs != 1 {
		t.Fatalf("Syncs after 4 records = %d, want 1", s.Syncs)
	}
	// Explicit sync on a clean log is a no-op.
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if s := l.Stats(); s.Syncs != 1 {
		t.Fatalf("Syncs after no-op Sync = %d, want 1", s.Syncs)
	}
	if err := l.Append(testOps(4, 1)...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if s := l.Stats(); s.Syncs != 2 {
		t.Fatalf("Syncs after dirty Sync = %d, want 2", s.Syncs)
	}
}

func TestSyncIntervalBackground(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, SyncEvery: 1 << 30, SyncInterval: 5 * time.Millisecond}
	l, _, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if err := l.Append(testOps(0, 2)...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background sync never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSegmentRotationAndMultiSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	ops := testOps(0, 40)
	l, _ := openTestLog(t, dir, Options{SegmentBytes: 512})
	for i := range ops {
		if err := l.Append(ops[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	names, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, segs := classifyDir(names)
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}

	l2, rec := openTestLog(t, dir, Options{SegmentBytes: 512})
	defer l2.Close()
	if rec.LastIndex != uint64(len(ops)) {
		t.Fatalf("recovered LastIndex = %d, want %d", rec.LastIndex, len(ops))
	}
	wantOps(t, rec.Ops, ops)
}

func corpusForSnapshot(t *testing.T) *blog.Corpus {
	t.Helper()
	bloggers := []*blog.Blogger{
		{ID: "a", Name: "Alice", Profile: "graphs", Friends: []blog.BloggerID{"b"}},
		{ID: "b", Name: "Bob"},
		{ID: "c"},
	}
	posts := []*blog.Post{
		{ID: "p1", Author: "a", Title: "t", Body: "hello world", Posted: time.Unix(1700000000, 0),
			Tags: []string{"x"}, TrueDomain: "d1",
			Comments: []blog.Comment{{Commenter: "b", Text: "hi", Posted: time.Unix(1700000001, 7)}}},
		{ID: "p2", Author: "b", Body: "second"},
	}
	links := []blog.Link{{From: "a", To: "b"}, {From: "c", To: "a"}}
	c, err := blog.FromParts(bloggers, posts, links)
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	return c
}

func TestSnapshotAndTailRecovery(t *testing.T) {
	dir := t.TempDir()
	head := testOps(0, 6)
	tail := testOps(6, 5)

	l, _ := openTestLog(t, dir, Options{})
	if err := l.Append(head...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	snap := &Snapshot{Index: l.LastIndex(), Seq: 3, Mutations: 6, Corpus: corpusForSnapshot(t).Snapshot()}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := l.Append(tail...); err != nil {
		t.Fatalf("Append tail: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := openTestLog(t, dir, Options{})
	defer l2.Close()
	if rec.Snapshot == nil {
		t.Fatalf("no snapshot recovered")
	}
	if rec.Snapshot.Index != 6 || rec.Snapshot.Seq != 3 || rec.Snapshot.Mutations != 6 {
		t.Fatalf("snapshot metadata = %d/%d/%d", rec.Snapshot.Index, rec.Snapshot.Seq, rec.Snapshot.Mutations)
	}
	if got := rec.Snapshot.Corpus.NumBloggers(); got != 3 {
		t.Fatalf("snapshot corpus bloggers = %d, want 3", got)
	}
	if rec.LastIndex != 11 {
		t.Fatalf("LastIndex = %d, want 11", rec.LastIndex)
	}
	wantOps(t, rec.Ops, tail)
}

func TestSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so checkpoints strand sealed segments behind them.
	l, _ := openTestLog(t, dir, Options{SegmentBytes: 256})
	c := corpusForSnapshot(t)
	for round := 0; round < 5; round++ {
		if err := l.Append(testOps(round*8, 8)...); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.WriteSnapshot(&Snapshot{Index: l.LastIndex(), Corpus: c.Snapshot()}); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
	}
	names, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, segs := classifyDir(names)
	if len(snaps) != 2 {
		t.Fatalf("retained snapshots = %d, want 2 (%v)", len(snaps), names)
	}
	// Everything before the older snapshot's coverage must be gone: the
	// first segment still on disk must be reachable from it.
	bound := snaps[0].idx
	for i, sg := range segs {
		if i+1 < len(segs) && segs[i+1].idx <= bound+1 && sg.idx != l.LastIndex()+1 {
			t.Fatalf("segment %s fully covered by snapshot %d was not collected", sg.name, bound)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The GC'd directory still recovers to the full state.
	l2, rec := openTestLog(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Index != 40 || rec.LastIndex != 40 {
		t.Fatalf("recovery after GC: snap=%v last=%d", rec.Snapshot, rec.LastIndex)
	}
}

func TestSnapshotRoundTripPreservesCorpus(t *testing.T) {
	c := corpusForSnapshot(t)
	data, err := encodeSnapshotFile(&Snapshot{Index: 9, Seq: 2, Mutations: 11, Corpus: c.Snapshot()})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	s, err := decodeSnapshotFile(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := s.Corpus
	if got.NumBloggers() != len(c.Bloggers) || got.NumPosts() != len(c.Posts) || len(got.Links()) != len(c.Links) {
		t.Fatalf("corpus shape changed: %d/%d/%d", got.NumBloggers(), got.NumPosts(), len(got.Links()))
	}
	if got.Blogger("a").Name != "Alice" || len(got.Blogger("a").Friends) != 1 {
		t.Fatalf("blogger a mangled: %+v", got.Blogger("a"))
	}
	p := got.Post("p1")
	if p.Author != "a" || p.TrueDomain != "d1" || len(p.Comments) != 1 || p.Comments[0].Commenter != "b" {
		t.Fatalf("post p1 mangled: %+v", p)
	}
	if !p.Posted.Equal(time.Unix(1700000000, 0)) || !p.Comments[0].Posted.Equal(time.Unix(1700000001, 7)) {
		t.Fatalf("timestamps mangled: %v %v", p.Posted, p.Comments[0].Posted)
	}
	if got.Links()[0] != (blog.Link{From: "a", To: "b"}) || got.Links()[1] != (blog.Link{From: "c", To: "a"}) {
		t.Fatalf("links mangled: %v", got.Links())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("restored corpus invalid: %v", err)
	}
}

// TestSnapshotNovelty pins the two novelty rules of the snapshot format:
// a decoded post's facets carry the post's time from the snapshot's
// corpus, and a novelty order naming a post the corpus no longer holds is
// dropped whole (a held post it capped as a later copy would otherwise
// stay capped).
func TestSnapshotNovelty(t *testing.T) {
	c := corpusForSnapshot(t)
	held := influence.PostFacetsState{ID: "p1", HasPrepared: true, Shingles: []uint64{7, 9}, Indicator: 1, HasNov: true, Nov: 0.1}
	for _, tc := range []struct {
		order []blog.PostID
		want  int
	}{{[]blog.PostID{"p1"}, 1}, {[]blog.PostID{"gone", "p1"}, 0}, {[]blog.PostID{"p1", "gone"}, 0}} {
		st := &influence.CacheState{Posts: []influence.PostFacetsState{held}, NovOrder: tc.order}
		data, err := encodeSnapshotFile(&Snapshot{Index: 1, Corpus: c.Snapshot(), Cache: st})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		s, err := decodeSnapshotFile(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got := len(s.Cache.NovOrder); got != tc.want {
			t.Fatalf("order %v decoded to %v, want %d entries", tc.order, s.Cache.NovOrder, tc.want)
		}
		if ps := s.Cache.Posts[0]; ps.ID != "p1" || !ps.Posted.Equal(c.Posts["p1"].Posted) {
			t.Fatalf("decoded facets %s posted %v, want p1 at %v", ps.ID, ps.Posted, c.Posts["p1"].Posted)
		}
	}
}

func TestNoSnapshotWithMissingHeadRefusesPartialState(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		if err := l.Append(testOps(i, 1)...); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, segs := classifyDir(names)
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(segs))
	}
	if err := os.Remove(filepath.Join(dir, segs[0].name)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, SyncInterval: -1}); err == nil {
		t.Fatalf("Open served partial state after losing the log head")
	}
}
