package wal

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mass/internal/blog"
)

// faultFS wraps another FS and injects failures into files it creates.
type faultFS struct {
	FS
	// syncErrAfter fails every File.Sync after this many successful ones
	// (-1 = never fail).
	syncErrAfter int
	// shortWriteAt makes the Nth File.Write write only half the buffer and
	// return an error (-1 = never).
	shortWriteAt int

	syncs  int
	writes int
}

func (f *faultFS) Create(path string) (File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

type faultFile struct {
	File
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.writes++
	if f.fs.shortWriteAt >= 0 && f.fs.writes-1 == f.fs.shortWriteAt {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, fmt.Errorf("injected short write")
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.fs.syncErrAfter >= 0 && f.fs.syncs >= f.fs.syncErrAfter {
		return fmt.Errorf("injected sync failure")
	}
	f.fs.syncs++
	return f.File.Sync()
}

func TestSyncFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	// Let the segment-header sync through, then fail every later fsync.
	ffs := &faultFS{FS: OSFS(), syncErrAfter: 1, shortWriteAt: -1}
	l, _, err := Open(Options{Dir: dir, FS: ffs, SyncEvery: 2, SyncInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append(testOps(0, 1)...); err != nil {
		t.Fatalf("first append should buffer without syncing: %v", err)
	}
	err = l.Append(testOps(1, 1)...)
	if err == nil {
		t.Fatalf("append crossing SyncEvery did not surface the sync failure")
	}
	if aerr := l.Append(testOps(2, 1)...); aerr == nil {
		t.Fatalf("append after failure succeeded; fail-stop must be sticky")
	} else if aerr.Error() != err.Error() {
		t.Fatalf("sticky error changed: %v vs %v", aerr, err)
	}
	if l.Err() == nil {
		t.Fatalf("Err() lost the sticky failure")
	}
	l.Close()

	// Recovery after the failed process: only records acknowledged before
	// the failure may appear, and recovery must not error.
	l2, rec, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.LastIndex > 2 {
		t.Fatalf("recovered %d records, more than were ever written", rec.LastIndex)
	}
}

func TestShortWriteNeverServesPartialRecord(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{FS: OSFS(), syncErrAfter: -1, shortWriteAt: -1}
	l, _, err := Open(Options{Dir: dir, FS: ffs, SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append(testOps(0, 3)...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Next file write tears in the middle of the record batch.
	ffs.shortWriteAt = ffs.writes
	if err := l.Append(testOps(3, 2)...); err == nil {
		t.Fatalf("torn append reported success")
	}
	l.Close()

	l2, rec, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	// All 3 acknowledged records must survive. The torn batch was never
	// acknowledged, so any of it may be kept (a frame that happens to be
	// complete) or dropped — but never a partial record, and never all of
	// it (half the batch is provably missing).
	if rec.LastIndex < 3 || rec.LastIndex >= 5 {
		t.Fatalf("recovered LastIndex = %d, want 3 or 4", rec.LastIndex)
	}
	wantOps(t, rec.Ops, testOps(0, int(rec.LastIndex)))
	if rec.TruncatedAt < 0 {
		t.Fatalf("torn tail not reported: TruncatedAt = %d", rec.TruncatedAt)
	}
}

// segFiles returns the segment entries in dir, ascending.
func segFiles(t *testing.T, dir string) []dirEntry {
	t.Helper()
	names, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, segs := classifyDir(names)
	return segs
}

// buildCleanLog writes n records into dir and returns the encoded ops.
func buildCleanLog(t *testing.T, dir string, n int, opt Options) []Op {
	t.Helper()
	ops := testOps(0, n)
	l, _ := openTestLog(t, dir, opt)
	for i := range ops {
		if err := l.Append(ops[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return ops
}

// frameStarts scans a segment file and returns the byte offset after the
// header plus each complete frame — i.e. every clean truncation point —
// along with the number of records in the file.
func frameStarts(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int{segHeaderLen}
	rem := data[segHeaderLen:]
	for len(rem) > 0 {
		_, rest, ok := nextFrame(rem)
		if !ok {
			t.Fatalf("clean segment %s has invalid frame", path)
		}
		offs = append(offs, len(data)-len(rest))
		rem = rest
	}
	return offs
}

func TestTornTailRecoversLongestValidPrefix(t *testing.T) {
	base := t.TempDir()
	master := filepath.Join(base, "master")
	ops := buildCleanLog(t, master, 9, Options{})
	seg := segFiles(t, master)[0]
	offs := frameStarts(t, filepath.Join(master, seg.name))
	fileLen := offs[len(offs)-1]

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		cut := segHeaderLen + rng.Intn(fileLen-segHeaderLen)
		dir := filepath.Join(base, fmt.Sprintf("t%d", trial))
		copyDir(t, master, dir)
		truncateFile(t, filepath.Join(dir, seg.name), cut)

		// The longest valid prefix is the number of complete frames at or
		// before the cut.
		want := 0
		for i := 1; i < len(offs) && offs[i] <= cut; i++ {
			want++
		}
		l, rec, err := Open(Options{Dir: dir, SyncInterval: -1})
		if err != nil {
			t.Fatalf("trial %d (cut %d): Open: %v", trial, cut, err)
		}
		if int(rec.LastIndex) != want {
			t.Fatalf("trial %d (cut %d): recovered %d records, want %d", trial, cut, rec.LastIndex, want)
		}
		wantOps(t, rec.Ops, ops[:want])
		if want < len(ops) && rec.TruncatedAt < 0 {
			t.Fatalf("trial %d: tear not reported", trial)
		}
		l.Close()

		// Recovery repaired the directory: a second pass is clean and
		// reports the same state.
		l2, rec2, err := Open(Options{Dir: dir, SyncInterval: -1})
		if err != nil {
			t.Fatalf("trial %d: second Open: %v", trial, err)
		}
		if rec2.TruncatedAt != -1 || int(rec2.LastIndex) < want {
			t.Fatalf("trial %d: second recovery not clean: truncated=%d last=%d want ≥%d",
				trial, rec2.TruncatedAt, rec2.LastIndex, want)
		}
		l2.Close()
	}
}

func TestBitFlipStopsAtCorruption(t *testing.T) {
	base := t.TempDir()
	master := filepath.Join(base, "master")
	ops := buildCleanLog(t, master, 9, Options{})
	seg := segFiles(t, master)[0]
	offs := frameStarts(t, filepath.Join(master, seg.name))
	fileLen := offs[len(offs)-1]

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		pos := segHeaderLen + rng.Intn(fileLen-segHeaderLen)
		dir := filepath.Join(base, fmt.Sprintf("t%d", trial))
		copyDir(t, master, dir)
		flipByte(t, filepath.Join(dir, seg.name), pos, byte(1<<uint(rng.Intn(8))))

		// Valid prefix = frames entirely before the flipped byte. A flip
		// in a length prefix can also invalidate that frame.
		want := 0
		for i := 1; i < len(offs) && offs[i] <= pos; i++ {
			want++
		}
		l, rec, err := Open(Options{Dir: dir, SyncInterval: -1})
		if err != nil {
			t.Fatalf("trial %d (pos %d): Open: %v", trial, pos, err)
		}
		if int(rec.LastIndex) > len(ops) || int(rec.LastIndex) < want {
			t.Fatalf("trial %d (pos %d): recovered %d records, want ≥%d (prefix before flip)",
				trial, pos, rec.LastIndex, want)
		}
		// Whatever prefix was kept must byte-match the original ops: a
		// flipped record may never be served.
		wantOps(t, rec.Ops, ops[:rec.LastIndex])
		l.Close()
	}
}

func TestCorruptSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, Options{})
	c := corpusForSnapshot(t)
	if err := l.Append(testOps(0, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&Snapshot{Index: 4, Seq: 1, Corpus: c.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testOps(4, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&Snapshot{Index: 8, Seq: 2, Corpus: c.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testOps(8, 2)...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot's payload.
	flipByte(t, filepath.Join(dir, snapName(8)), snapFileHeader+3, 0x40)

	l2, rec, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Index != 4 {
		t.Fatalf("did not fall back to older snapshot: %+v", rec.Snapshot)
	}
	// The log bridges from index 5: all later records replay.
	if rec.LastIndex != 10 {
		t.Fatalf("LastIndex = %d, want 10", rec.LastIndex)
	}
	wantOps(t, rec.Ops, testOps(4, 6))
	if _, err := os.Stat(filepath.Join(dir, snapName(8))); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot was not removed")
	}
}

// TestSnapshotShortWriteMidStream tears a checkpoint's second payload chunk
// and requires the failure to leave no trace: no temp file, the previous
// snapshot still the newest, the log still taking appends, and recovery
// returning exactly the acknowledged state.
func TestSnapshotShortWriteMidStream(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{FS: OSFS(), syncErrAfter: -1, shortWriteAt: -1}
	l, _, err := Open(Options{Dir: dir, FS: ffs, SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Append(testOps(0, 4)...); err != nil {
		t.Fatal(err)
	}
	first := warmSnapshot(t, 4, 60, 400)
	if err := l.WriteSnapshot(first); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testOps(4, 4)...); err != nil {
		t.Fatal(err)
	}
	// The snapshot's write 0 is its header and write 1 its first chunk.
	ffs.shortWriteAt = ffs.writes + 2
	second := *first
	second.Index, second.Seq = 8, 2
	if err := l.WriteSnapshot(&second); err == nil {
		t.Fatal("torn checkpoint reported success")
	}
	if ffs.writes != ffs.shortWriteAt+1 {
		t.Fatalf("checkpoint made %d writes after the torn one", ffs.writes-ffs.shortWriteAt-1)
	}
	names, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if filepath.Ext(n) == ".tmp" {
			t.Fatalf("torn checkpoint left %s behind", n)
		}
	}
	if snaps, _ := classifyDir(names); len(snaps) != 1 || snaps[0].idx != 4 {
		t.Fatalf("snapshots after a torn checkpoint: %v, want only snapshot 4", names)
	}
	if err := l.Append(testOps(8, 2)...); err != nil {
		t.Fatalf("Append after a torn checkpoint: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after a torn checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := encodeSnapshotFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, snapName(4))); err != nil || string(got) != string(want) {
		t.Fatalf("snapshot 4 changed on disk (err %v)", err)
	}
	l2, rec, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Index != 4 || rec.Snapshot.Seq != 1 || rec.LastIndex != 10 {
		t.Fatalf("recovered snapshot %v, last index %d; want snapshot 4 and 10 records", rec.Snapshot, rec.LastIndex)
	}
	if rec.Snapshot.Corpus.NumPosts() != first.Corpus.NumPosts() || len(rec.Snapshot.Cache.Posts) != len(first.Cache.Posts) {
		t.Fatalf("recovered snapshot holds %d posts / %d facets, want %d / %d", rec.Snapshot.Corpus.NumPosts(),
			len(rec.Snapshot.Cache.Posts), first.Corpus.NumPosts(), len(first.Cache.Posts))
	}
	wantOps(t, rec.Ops, testOps(4, 6))
}

// TestSnapshotDanglingLinkCreatesNoFile checks that a snapshot whose link
// names a blogger outside its corpus fails before any file is created.
func TestSnapshotDanglingLinkCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{FS: OSFS(), syncErrAfter: -1, shortWriteAt: -1}
	l, _, err := Open(Options{Dir: dir, FS: ffs, SyncInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	before, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	writes := ffs.writes
	c := corpusForSnapshot(t)
	c.Links = append(c.Links, blog.Link{From: "a", To: "ghost"})
	if err := l.WriteSnapshot(&Snapshot{Index: 0, Corpus: c.Snapshot()}); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("WriteSnapshot of a dangling link: err %v, want one naming the missing blogger", err)
	}
	after, err := OSFS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) || ffs.writes != writes {
		t.Fatalf("failed snapshot touched the directory: %v -> %v, %d writes", before, after, ffs.writes-writes)
	}
}

func TestGarbageLengthPrefixDoesNotAllocate(t *testing.T) {
	dir := t.TempDir()
	ops := buildCleanLog(t, dir, 3, Options{})
	seg := segFiles(t, dir)[0]
	path := filepath.Join(dir, seg.name)
	// Append a frame header claiming a huge record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], 0xfffffff0)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, rec, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if int(rec.LastIndex) != len(ops) {
		t.Fatalf("LastIndex = %d, want %d", rec.LastIndex, len(ops))
	}
	if rec.TruncatedAt < 0 {
		t.Fatalf("garbage tail not reported")
	}
}

// --- helpers ---

func copyDir(t *testing.T, src, dst string) {
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

func truncateFile(t *testing.T, path string, size int) {
	t.Helper()
	if err := os.Truncate(path, int64(size)); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, pos int, mask byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pos >= len(data) {
		t.Fatalf("flip position %d beyond file (%d bytes)", pos, len(data))
	}
	data[pos] ^= mask
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
