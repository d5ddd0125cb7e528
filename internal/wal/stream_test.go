package wal

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/synth"
)

// warmSnapshot returns a synthetic corpus of the given size frozen, with
// the warm cache state of its analysis (facets, novelty order, GL and
// influence vectors), as the engine exports it for a checkpoint.
func warmSnapshot(t *testing.T, index uint64, bloggers, posts int) *Snapshot {
	t.Helper()
	c, _, err := synth.Generate(synth.Config{Seed: 32, Bloggers: bloggers, Posts: posts})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 20, 7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := influence.NewAnalyzer(influence.Config{}, nb)
	if err != nil {
		t.Fatal(err)
	}
	cache := influence.NewCache()
	frozen := c.Snapshot()
	res, err := a.AnalyzeCached(frozen, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.ExportState()
	dv := res.Dense()
	st.InfBloggers, st.Influence = dv.Bloggers, dv.Influence
	return &Snapshot{Index: index, Seq: 1, Mutations: index, Corpus: frozen, Cache: st}
}

// TestSnapshotWriteAllocBudget holds a checkpoint's allocation to a small
// share of the file it writes: the snapshot streams to its file in chunks,
// so WriteSnapshot allocates its interning tables and one chunk, never a
// buffer the size of the file.
func TestSnapshotWriteAllocBudget(t *testing.T) {
	s := warmSnapshot(t, 0, 300, 2000)
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	defer l.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := l.WriteSnapshot(s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	fi, err := os.Stat(filepath.Join(dir, snapName(0)))
	if err != nil {
		t.Fatal(err)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	ratio := float64(alloc) / float64(fi.Size())
	t.Logf("WriteSnapshot allocated %d B for a %d B file (%.3f×)", alloc, fi.Size(), ratio)
	if ratio > 0.25 {
		t.Fatalf("WriteSnapshot allocated %.3f× the file's %d bytes, budget 0.25×", ratio, fi.Size())
	}
}

// hookFS runs first inside the first Write to a snapshot temp file, before
// the bytes reach the file.
type hookFS struct {
	FS
	first func()
	once  sync.Once
}

func (h *hookFS) Create(path string) (File, error) {
	f, err := h.FS.Create(path)
	if err != nil || !strings.HasSuffix(path, ".snap.tmp") {
		return f, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	File
	fs *hookFS
}

func (f *hookFile) Write(p []byte) (int, error) {
	f.fs.once.Do(f.fs.first)
	return f.File.Write(p)
}

// TestSnapshotStreamDoesNotBlockAppends stalls a checkpoint's file write
// and requires an Append and a Sync issued meanwhile to return before the
// checkpoint is released: the stream runs outside the log's lock.
func TestSnapshotStreamDoesNotBlockAppends(t *testing.T) {
	dir := t.TempDir()
	entered, released := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(released) }) }
	t.Cleanup(release)
	hfs := &hookFS{FS: OSFS(), first: func() { close(entered); <-released }}
	l, _, err := Open(Options{Dir: dir, FS: hfs, SyncEvery: 64, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testOps(0, 4)...); err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Index: 4, Seq: 1, Corpus: corpusForSnapshot(t).Snapshot()}
	snapped := make(chan error, 1)
	go func() { snapped <- l.WriteSnapshot(snap) }()
	<-entered

	appended := make(chan error, 1)
	go func() {
		err := l.Append(testOps(4, 3)...)
		if err == nil {
			err = l.Sync()
		}
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("Append/Sync during a checkpoint: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append+Sync blocked behind a stalled checkpoint write")
	}
	release()
	if err := <-snapped; err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openTestLog(t, dir, Options{})
	defer l2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Index != 4 || rec.LastIndex != 7 {
		t.Fatalf("recovered snapshot %v, last index %d; want snapshot 4 and 7 records", rec.Snapshot, rec.LastIndex)
	}
	wantOps(t, rec.Ops, testOps(4, 3))
}

// TestSnapshotStreamMatchesOneBuffer checks the chunked stream against the
// file framed by hand from one contiguous payload: chunk boundaries must
// not show in the bytes.
func TestSnapshotStreamMatchesOneBuffer(t *testing.T) {
	s := warmSnapshot(t, 3, 60, 400)
	data, err := encodeSnapshotFile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 3*chunkBytes {
		t.Fatalf("snapshot of %d bytes spans fewer than three chunks", len(data))
	}
	se, err := newSnapshotEncoder(s)
	if err != nil {
		t.Fatal(err)
	}
	// An encoder without a writer never spills: its buffer is the payload.
	e := encoder{}
	if err := se.payload(&e); err != nil {
		t.Fatal(err)
	}
	if got := data[snapFileHeader : len(data)-4]; string(got) != string(e.buf) {
		t.Fatalf("streamed payload (%d B) differs from the one-buffer payload (%d B)", len(got), len(e.buf))
	}
	got, err := decodeSnapshotFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Corpus.NumPosts() != s.Corpus.NumPosts() || len(got.Cache.Posts) != len(s.Cache.Posts) {
		t.Fatalf("decoded %d posts / %d facets, want %d / %d",
			got.Corpus.NumPosts(), len(got.Cache.Posts), s.Corpus.NumPosts(), len(s.Cache.Posts))
	}
}

// TestSnapshotChangedBetweenWalksPublishesNothing grows the snapshot's
// state after the counting walk, as a caller that breaks the Snapshot
// contract would: the header already carries the counted length, so the
// checkpoint must fail and leave no file rather than publish a mis-framed
// one.
func TestSnapshotChangedBetweenWalksPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	s := warmSnapshot(t, 4, 20, 100)
	hfs := &hookFS{FS: OSFS(), first: func() { s.Cache.Domains = append(s.Cache.Domains, "late") }}
	l, _, err := Open(Options{Dir: dir, FS: hfs, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteSnapshot(s); err == nil || !strings.Contains(err.Error(), "changed between walks") {
		t.Fatalf("WriteSnapshot of a snapshot changed mid-write: err %v", err)
	}
	names, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.Contains(n, ".snap") {
			t.Fatalf("failed checkpoint left %s behind", n)
		}
	}
}

// TestSnapshotDecodeShinglesOneSlab: decoding a checkpoint carves every
// post's shingles from one slab, so the allocations the shingles add do
// not grow with the post count.
func TestSnapshotDecodeShinglesOneSlab(t *testing.T) {
	shingleAllocs := func(posts int) float64 {
		c, _, err := synth.Generate(synth.Config{Seed: 5, Bloggers: 20, Posts: posts})
		if err != nil {
			t.Fatal(err)
		}
		decodeAllocs := func(prepared bool) float64 {
			st := &influence.CacheState{}
			for id, p := range c.Posts {
				ps := influence.PostFacetsState{ID: id, Posted: p.Posted, Words: 10, Tokenized: true}
				if prepared {
					ps.HasPrepared, ps.Shingles, ps.Indicator = true, []uint64{1, 2, 3, 5, 8}, 1
				}
				st.Posts = append(st.Posts, ps)
			}
			data, err := encodeSnapshotFile(&Snapshot{Index: 1, Corpus: c.Snapshot(), Cache: st})
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(3, func() {
				if _, err := decodeSnapshotFile(data); err != nil {
					t.Fatal(err)
				}
			})
		}
		return decodeAllocs(true) - decodeAllocs(false)
	}
	small, large := shingleAllocs(100), shingleAllocs(400)
	if small > 1 || large > 1 {
		t.Fatalf("shingles add %.0f allocations at 100 posts and %.0f at 400, want one slab", small, large)
	}
}
