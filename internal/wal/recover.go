package wal

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// recoverDir reconstructs the longest valid durable prefix from dir:
// newest decodable snapshot + contiguous, checksum-valid log records after
// it. It repairs as it goes — corrupt snapshots are removed (the previous
// one takes over), a torn segment is rewritten to its valid prefix, and
// segments past a tear or gap are deleted — so the directory left behind
// is exactly the state recovery reports, and a second recovery is a no-op.
// It returns the recovered state plus the newest snapshot index (if any)
// for the log's GC bookkeeping.
func recoverDir(fs FS, dir string) (*Recovered, uint64, bool, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: list dir: %w", err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			fs.Remove(filepath.Join(dir, n)) // leftover atomic-write staging
		}
	}
	snaps, segs := classifyDir(names)

	rec := &Recovered{TruncatedAt: -1}

	// Newest decodable snapshot wins; corrupt ones are removed so the next
	// recovery doesn't retry them.
	var base uint64
	hasSnap := false
	for i := len(snaps) - 1; i >= 0; i-- {
		s, err := loadSnapshotFile(fs, filepath.Join(dir, snaps[i].name))
		if err == nil && s.Index == snaps[i].idx {
			rec.Snapshot, rec.Corpus = s, s.corpus
			base = s.Index
			hasSnap = true
			break
		}
		fs.Remove(filepath.Join(dir, snaps[i].name))
	}

	// Choose the start segment: the LAST one whose first index is ≤ base+1.
	// Later segments with start ≤ base+1 supersede earlier ones — the
	// snapshot bridges over any older, possibly broken chain.
	j := -1
	for i, sg := range segs {
		if sg.idx <= base+1 {
			j = i
		}
	}
	if j < 0 {
		if len(segs) > 0 {
			if !hasSnap {
				// Records 1..segs[0].idx-1 are gone and nothing covers
				// them. Serving the remainder would be partial state.
				return nil, 0, false, fmt.Errorf(
					"wal: log begins at record %d with no snapshot covering earlier records", segs[0].idx)
			}
			// All segments start after the snapshot's coverage with a gap:
			// unreachable orphans from a lost chain.
			for _, sg := range segs {
				fs.Remove(filepath.Join(dir, sg.name))
			}
		}
		rec.LastIndex = base
		return rec, base, hasSnap, nil
	}

	expect := segs[j].idx // index of the next record the scan should see
	for k := j; k < len(segs); k++ {
		if k > j && segs[k].idx != expect {
			// Gap: records expect..segs[k].idx-1 were lost, so everything
			// from here on is unreachable.
			deleteSegments(fs, dir, segs[k:])
			break
		}
		data, err := readAll(fs, filepath.Join(dir, segs[k].name))
		if err != nil {
			return nil, 0, false, fmt.Errorf("wal: read segment %s: %w", segs[k].name, err)
		}
		start, herr := parseSegmentHeader(data)
		if herr != nil || start != segs[k].idx {
			// The whole segment is untrustworthy. Its records — and every
			// later segment's — are past the valid prefix.
			rec.TruncatedAt = 0
			rec.TruncatedFile = segs[k].name
			deleteSegments(fs, dir, segs[k:])
			break
		}
		rem := data[segHeaderLen:]
		valid := segHeaderLen // bytes of data[] known good
		torn := false
		for len(rem) > 0 {
			payload, rest, ok := nextFrame(rem)
			if !ok {
				torn = true
				break
			}
			if expect > base {
				op, derr := decodeOp(payload)
				if derr != nil {
					// Checksum-valid but undecodable: treat like a tear at
					// this frame rather than guessing.
					torn = true
					break
				}
				rec.Ops = append(rec.Ops, op)
			}
			expect++
			valid = len(data) - len(rest)
			rem = rest
		}
		if torn {
			rec.TruncatedAt = int64(valid)
			rec.TruncatedFile = segs[k].name
			// Rewrite the segment down to its valid prefix so the garbage
			// tail can never mask newer segments from a later recovery,
			// then drop everything after the tear.
			if err := rewriteSegment(fs, dir, segs[k].name, data[:valid]); err != nil {
				return nil, 0, false, err
			}
			deleteSegments(fs, dir, segs[k+1:])
			break
		}
	}
	rec.LastIndex = expect - 1
	if rec.LastIndex < base {
		rec.LastIndex = base
	}
	return rec, base, hasSnap, nil
}

func deleteSegments(fs FS, dir string, segs []dirEntry) {
	for _, sg := range segs {
		fs.Remove(filepath.Join(dir, sg.name))
	}
}

func readAll(fs FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// rewriteSegment atomically replaces name with the given prefix of its
// contents (header plus whole valid frames).
func rewriteSegment(fs FS, dir, name string, prefix []byte) error {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	if _, err := f.Write(prefix); err != nil {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: rewrite segment: %w", err)
	}
	return nil
}
