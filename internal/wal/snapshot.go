package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"

	"mass/internal/blog"
	"mass/internal/influence"
	"mass/internal/sentiment"
)

// Snapshot is a full checkpoint of engine state at a WAL index: every
// record ≤ Index is folded into Corpus/Cache, so recovery replays only the
// records after it. The binary layout mirrors the in-memory dense
// representation — bloggers and posts become sorted interned tables and
// every cross-reference (post author, commenter, link endpoint, cached
// vector key) is a varint index into them, the same trick the CSR graph and
// the domain index play in memory. WriteSnapshot streams it to disk and
// reads Corpus and Cache twice, so neither may change until it returns.
type Snapshot struct {
	// Index is the last WAL record index covered by this snapshot.
	Index uint64
	// Seq and Mutations carry the engine's published sequence number and
	// lifetime mutation count, so ETags and counters survive restarts.
	Seq       uint64
	Mutations uint64
	// Corpus is the full corpus at Index, as one frozen generation.
	Corpus *blog.Frozen
	// Cache is the analysis warm state, nil when none was exported.
	Cache *influence.CacheState

	// corpus is the mutable corpus a decoded Corpus was frozen from
	// (Recovered.Corpus).
	corpus *blog.Corpus
}

const (
	snapMagic   = "MASSSNP1"
	snapVersion = 1
	// snapFileHeader is magic + u32 version + u64 payload length.
	snapFileHeader = 8 + 4 + 8
)

// --- payload encoding ---

// snapshotEncoder streams one snapshot's payload through an encoder. The
// file header carries the payload length ahead of the payload and a File
// cannot seek, so the payload is walked twice: newSnapshotEncoder counts
// its length (and checks every reference against the corpus), then
// writeTo streams header, payload and trailer and fails when its walk's
// length disagrees with the counted one. Either walk holds the interning
// tables and one chunk, never the payload.
type snapshotEncoder struct {
	s     *Snapshot
	bids  []blog.BloggerID // sorted; a blogger's position is its index
	pids  []blog.PostID    // sorted; a post's position is its index
	bIdx  map[blog.BloggerID]uint64
	pIdx  map[blog.PostID]uint64
	kept  []*influence.PostFacetsState // cache facets of posts still held
	order []uint64                     // novelty order as post indexes
	buf   []byte                       // chunk buffer shared by both walks

	n int64 // counted payload length
}

// newSnapshotEncoder interns s's bloggers and posts and counts its
// payload. A snapshot that names a blogger outside its corpus fails here.
func newSnapshotEncoder(s *Snapshot) (*snapshotEncoder, error) {
	c := s.Corpus
	se := &snapshotEncoder{s: s, bids: c.BloggerIDs(), pids: c.PostIDs(), buf: make([]byte, 0, 2*chunkBytes)}
	se.bIdx = make(map[blog.BloggerID]uint64, len(se.bids))
	for i, id := range se.bids {
		se.bIdx[id] = uint64(i)
	}
	se.pIdx = make(map[blog.PostID]uint64, len(se.pids))
	for i, id := range se.pids {
		se.pIdx[id] = uint64(i)
	}
	if st := s.Cache; st != nil {
		// Facets for posts no longer in the corpus carry no warm value;
		// skip them rather than failing the checkpoint.
		se.kept = make([]*influence.PostFacetsState, 0, len(st.Posts))
		for i := range st.Posts {
			if _, ok := se.pIdx[st.Posts[i].ID]; ok {
				se.kept = append(se.kept, &st.Posts[i])
			}
		}
		se.order = make([]uint64, 0, len(st.NovOrder))
		for _, pid := range st.NovOrder {
			i, ok := se.pIdx[pid]
			if !ok {
				// An order referencing an evicted post can't be replayed: a
				// post it capped as a later copy would stay capped. Persist
				// no order, so the restored cache re-scores novelty.
				se.order = se.order[:0]
				break
			}
			se.order = append(se.order, i)
		}
	}
	e := encoder{buf: se.buf, count: true}
	if err := se.payload(&e); err != nil {
		return nil, err
	}
	se.n, se.buf = e.n, e.buf[:0]
	return se, nil
}

// writeTo streams the framed snapshot file to w.
func (se *snapshotEncoder) writeTo(w io.Writer) error {
	hdr := make([]byte, 0, snapFileHeader)
	hdr = append(hdr, snapMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, snapVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(se.n))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	e := encoder{buf: se.buf[:0], w: w}
	if err := se.payload(&e); err != nil {
		return err
	}
	if e.err != nil {
		return e.err
	}
	if e.n != se.n {
		return fmt.Errorf("wal: snapshot payload changed between walks: %d bytes, counted %d", e.n, se.n)
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(hdr[:0], e.crc))
	return err
}

// payload encodes the snapshot through e, spilling between records, and
// flushes the tail.
func (se *snapshotEncoder) payload(e *encoder) error {
	s, c, bIdx := se.s, se.s.Corpus, se.bIdx
	e.u64(s.Index)
	e.u64(s.Seq)
	e.u64(s.Mutations)

	e.uvarint(uint64(len(se.bids)))
	for _, id := range se.bids {
		b := c.Blogger(id)
		e.str(string(b.ID))
		e.str(b.Name)
		e.str(b.Profile)
		e.uvarint(uint64(len(b.Friends)))
		for _, f := range b.Friends {
			fi, ok := bIdx[f]
			if !ok {
				return fmt.Errorf("wal: snapshot: blogger %q friend %q not in corpus", id, f)
			}
			e.uvarint(fi)
		}
		e.spill()
	}

	e.uvarint(uint64(len(se.pids)))
	for _, id := range se.pids {
		p := c.Post(id)
		ai, ok := bIdx[p.Author]
		if !ok {
			return fmt.Errorf("wal: snapshot: post %q author %q not in corpus", id, p.Author)
		}
		e.str(string(p.ID))
		e.uvarint(ai)
		e.str(p.Title)
		e.str(p.Body)
		e.timeVal(p.Posted)
		e.str(p.TrueDomain)
		e.uvarint(uint64(len(p.Tags)))
		for _, t := range p.Tags {
			e.str(t)
		}
		e.uvarint(uint64(len(p.Comments)))
		for i := range p.Comments {
			cm := &p.Comments[i]
			ci, ok := bIdx[cm.Commenter]
			if !ok {
				return fmt.Errorf("wal: snapshot: post %q commenter %q not in corpus", id, cm.Commenter)
			}
			e.uvarint(ci)
			e.str(cm.Text)
			e.timeVal(cm.Posted)
		}
		e.spill()
	}

	e.uvarint(uint64(len(c.Links())))
	for _, l := range c.Links() {
		fi, fok := bIdx[l.From]
		ti, tok := bIdx[l.To]
		if !fok || !tok {
			return fmt.Errorf("wal: snapshot: link %q->%q not in corpus", l.From, l.To)
		}
		e.uvarint(fi)
		e.uvarint(ti)
		e.spill()
	}

	if s.Cache == nil {
		e.u8(0)
		e.flush()
		return nil
	}
	e.u8(1)
	st := s.Cache
	e.uvarint(uint64(len(st.Domains)))
	for _, d := range st.Domains {
		e.str(d)
	}
	e.uvarint(uint64(len(se.kept)))
	for _, ps := range se.kept {
		e.uvarint(se.pIdx[ps.ID])
		e.f64(ps.Words)
		e.bool(ps.Tokenized)
		e.bool(ps.HasPrepared)
		if ps.HasPrepared {
			e.uvarint(uint64(len(ps.Shingles)))
			for _, g := range ps.Shingles {
				e.u64(g)
			}
			e.f64(ps.Indicator)
		}
		e.bool(ps.HasNov)
		if ps.HasNov {
			e.f64(ps.Nov)
		}
		e.bool(ps.HasPosterior)
		if ps.HasPosterior {
			e.uvarint(uint64(len(ps.Posterior)))
			for _, v := range ps.Posterior {
				e.f64(v)
			}
		}
		e.uvarint(uint64(len(ps.Sentiments)))
		for _, sp := range ps.Sentiments {
			e.u8(uint8(sp))
		}
		e.spill()
	}
	e.uvarint(uint64(len(se.order)))
	for _, i := range se.order {
		e.uvarint(i)
		e.spill()
	}
	if err := e.bloggerVec(st.GLBloggers, st.GL, bIdx, "gl"); err != nil {
		return err
	}
	if err := e.bloggerVec(st.InfBloggers, st.Influence, bIdx, "influence"); err != nil {
		return err
	}
	e.flush()
	return nil
}

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) bloggerVec(ids []blog.BloggerID, vals []float64, bIdx map[blog.BloggerID]uint64, what string) error {
	if len(ids) != len(vals) {
		return fmt.Errorf("wal: snapshot: %s vector length mismatch", what)
	}
	e.uvarint(uint64(len(ids)))
	for i, id := range ids {
		bi, ok := bIdx[id]
		if !ok {
			return fmt.Errorf("wal: snapshot: %s vector blogger %q not in corpus", what, id)
		}
		e.uvarint(bi)
		e.f64(vals[i])
		e.spill()
	}
	return nil
}

// --- payload decoding ---

func decodeSnapshot(payload []byte) (*Snapshot, error) {
	d := decoder{buf: payload}
	s := &Snapshot{
		Index:     d.u64(),
		Seq:       d.u64(),
		Mutations: d.u64(),
	}

	nb := d.count(3)
	bloggers := make([]*blog.Blogger, 0, nb)
	type friendFix struct {
		b    *blog.Blogger
		idxs []uint64
	}
	var fixes []friendFix
	for i := 0; i < nb && d.err == nil; i++ {
		b := &blog.Blogger{
			ID:      blog.BloggerID(d.str()),
			Name:    d.str(),
			Profile: d.str(),
		}
		if nf := d.count(1); nf > 0 {
			idxs := make([]uint64, 0, nf)
			for j := 0; j < nf && d.err == nil; j++ {
				idxs = append(idxs, d.uvarint())
			}
			fixes = append(fixes, friendFix{b, idxs})
		}
		bloggers = append(bloggers, b)
	}
	bid := func(i uint64) blog.BloggerID {
		if d.err != nil {
			return ""
		}
		if i >= uint64(len(bloggers)) {
			d.fail()
			return ""
		}
		return bloggers[i].ID
	}
	for _, fx := range fixes {
		fx.b.Friends = make([]blog.BloggerID, 0, len(fx.idxs))
		for _, i := range fx.idxs {
			fx.b.Friends = append(fx.b.Friends, bid(i))
		}
	}

	np := d.count(3)
	posts := make([]*blog.Post, 0, np)
	for i := 0; i < np && d.err == nil; i++ {
		p := &blog.Post{ID: blog.PostID(d.str()), Author: bid(d.uvarint())}
		p.Title = d.str()
		p.Body = d.str()
		p.Posted = d.timeVal()
		p.TrueDomain = d.str()
		if nt := d.count(1); nt > 0 {
			p.Tags = make([]string, 0, nt)
			for j := 0; j < nt && d.err == nil; j++ {
				p.Tags = append(p.Tags, d.str())
			}
		}
		if nc := d.count(3); nc > 0 {
			p.Comments = make([]blog.Comment, 0, nc)
			for j := 0; j < nc && d.err == nil; j++ {
				p.Comments = append(p.Comments, blog.Comment{
					Commenter: bid(d.uvarint()),
					Text:      d.str(),
					Posted:    d.timeVal(),
				})
			}
		}
		posts = append(posts, p)
	}
	pid := func(i uint64) blog.PostID {
		if d.err != nil {
			return ""
		}
		if i >= uint64(len(posts)) {
			d.fail()
			return ""
		}
		return posts[i].ID
	}

	nl := d.count(2)
	links := make([]blog.Link, 0, nl)
	for i := 0; i < nl && d.err == nil; i++ {
		links = append(links, blog.Link{From: bid(d.uvarint()), To: bid(d.uvarint())})
	}

	hasCache := d.u8() == 1
	var st *influence.CacheState
	if hasCache && d.err == nil {
		st = &influence.CacheState{}
		nd := d.count(1)
		st.Domains = make([]string, 0, nd)
		for i := 0; i < nd && d.err == nil; i++ {
			st.Domains = append(st.Domains, d.str())
		}
		nf := d.count(12)
		st.Posts = make([]influence.PostFacetsState, 0, nf)
		// Every post's shingles are carved from one slab, as ExportState
		// hands them out, instead of one slice per post.
		slab := make([]uint64, 0, d.shingleTotal(nf))
		for i := 0; i < nf && d.err == nil; i++ {
			pi := d.uvarint()
			ps := influence.PostFacetsState{ID: pid(pi), Words: d.f64()}
			if d.err == nil {
				ps.Posted = posts[pi].Posted
			}
			ps.Tokenized = d.u8() == 1
			ps.HasPrepared = d.u8() == 1
			if ps.HasPrepared {
				ng := d.count(8)
				lo := len(slab)
				for j := 0; j < ng && d.err == nil; j++ {
					slab = append(slab, d.u64())
				}
				if hi := len(slab); hi > lo {
					ps.Shingles = slab[lo:hi:hi]
				}
				ps.Indicator = d.f64()
			}
			ps.HasNov = d.u8() == 1
			if ps.HasNov {
				ps.Nov = d.f64()
			}
			ps.HasPosterior = d.u8() == 1
			if ps.HasPosterior {
				nr := d.count(8)
				ps.Posterior = make([]float64, 0, nr)
				for j := 0; j < nr && d.err == nil; j++ {
					ps.Posterior = append(ps.Posterior, d.f64())
				}
			}
			ns := d.count(1)
			if ns > 0 {
				ps.Sentiments = make([]sentiment.Polarity, 0, ns)
				for j := 0; j < ns && d.err == nil; j++ {
					ps.Sentiments = append(ps.Sentiments, sentiment.Polarity(d.u8()))
				}
			}
			st.Posts = append(st.Posts, ps)
		}
		no := d.count(1)
		st.NovOrder = make([]blog.PostID, 0, no)
		for i := 0; i < no && d.err == nil; i++ {
			st.NovOrder = append(st.NovOrder, pid(d.uvarint()))
		}
		st.GLBloggers, st.GL = d.bloggerVec(bid)
		st.InfBloggers, st.Influence = d.bloggerVec(bid)
	}

	if err := d.finish(); err != nil {
		return nil, err
	}
	c, err := blog.FromParts(bloggers, posts, links)
	if err != nil {
		return nil, err
	}
	s.Corpus, s.corpus = c.Snapshot(), c
	s.Cache = st
	return s, nil
}

// shingleTotal skims the nf post-facet records ahead of d, in the layout
// the loop in decodeSnapshot reads, and returns how many shingles they
// hold. d is a copy, so the skim does not move the caller's decoder; a
// corrupt record only makes the estimate short, and the decode itself
// reports it.
func (d decoder) shingleTotal(nf int) int {
	total := 0
	for i := 0; i < nf && d.err == nil; i++ {
		d.uvarint()   // post index
		d.take(8 + 1) // words, tokenized
		if d.u8() == 1 {
			ng := d.count(8)
			total += ng
			d.take(8*ng + 8) // shingles, indicator
		}
		if d.u8() == 1 {
			d.take(8) // novelty
		}
		if d.u8() == 1 {
			d.take(8 * d.count(8)) // posterior
		}
		d.take(d.count(1)) // sentiments
	}
	return total
}

func (d *decoder) bloggerVec(bid func(uint64) blog.BloggerID) ([]blog.BloggerID, []float64) {
	n := d.count(9)
	if n == 0 {
		return nil, nil
	}
	ids := make([]blog.BloggerID, 0, n)
	vals := make([]float64, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		ids = append(ids, bid(d.uvarint()))
		vals = append(vals, d.f64())
	}
	return ids, vals
}

// --- file framing ---

func decodeSnapshotFile(data []byte) (*Snapshot, error) {
	if len(data) < snapFileHeader+4 {
		return nil, fmt.Errorf("wal: snapshot file too short (%d bytes)", len(data))
	}
	if string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("wal: bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapVersion {
		return nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[12:])
	if n != uint64(len(data)-snapFileHeader-4) {
		return nil, fmt.Errorf("wal: snapshot length mismatch")
	}
	payload := data[snapFileHeader : snapFileHeader+int(n)]
	sum := binary.LittleEndian.Uint32(data[snapFileHeader+int(n):])
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("wal: snapshot checksum mismatch")
	}
	return decodeSnapshot(payload)
}

func loadSnapshotFile(fs FS, path string) (*Snapshot, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	// The header's payload length pre-sizes the read buffer, so a large
	// snapshot streams in with one allocation instead of io.ReadAll's
	// repeated grow-and-copy. One extra byte is requested beyond the framed
	// size: if it arrives, the file is longer than its header claims and
	// decode rejects it, same as before.
	hdr := make([]byte, snapFileHeader)
	nh, _ := io.ReadFull(f, hdr)
	if nh < snapFileHeader {
		f.Close()
		return decodeSnapshotFile(hdr[:nh]) // too short; decode reports it
	}
	n := binary.LittleEndian.Uint64(hdr[12:])
	if n > maxSnapshot {
		f.Close()
		return nil, fmt.Errorf("wal: snapshot claims %d payload bytes (max %d)", n, int64(maxSnapshot))
	}
	buf := make([]byte, snapFileHeader+int(n)+4+1)
	copy(buf, hdr)
	m, err := io.ReadFull(f, buf[snapFileHeader:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // short files are the decoder's problem, not an I/O error
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return decodeSnapshotFile(buf[:snapFileHeader+m])
}

// WriteSnapshot durably persists s (atomic tmp+rename) and then garbage
// collects: it keeps the two newest snapshots — the extra one is the
// fallback if the newest is later found corrupt — and removes every sealed
// segment fully covered by the older retained snapshot.
//
// The file streams to its temp file in chunkBytes chunks, in two walks of
// s (see snapshotEncoder): a snapshot naming a blogger outside its corpus
// fails before any file exists, and a second walk whose length disagrees
// with the first's fails rather than publishing a mis-framed file. Memory is one
// chunk plus the interning tables, whatever the file's size. The stream,
// its fsync and its close run without the log's lock, so appends and
// syncs proceed while a checkpoint is written; the lock covers only the
// state checks, the rename and the bookkeeping.
func (l *Log) WriteSnapshot(s *Snapshot) error {
	se, err := newSnapshotEncoder(s)
	if err != nil {
		return err
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	l.mu.Lock()
	err = l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	final := filepath.Join(l.opts.Dir, snapName(s.Index))
	tmp := final + ".tmp"
	if err := l.streamSnapshot(tmp, se); err != nil {
		l.opts.FS.Remove(tmp)
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		l.opts.FS.Remove(tmp)
		return err
	}
	if err := l.opts.FS.Rename(tmp, final); err != nil {
		l.opts.FS.Remove(tmp)
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := l.opts.FS.SyncDir(l.opts.Dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	if !l.hasSnap || s.Index > l.snapIdx {
		l.snapIdx = s.Index
		l.hasSnap = true
	}
	l.gcLocked()
	return nil
}

// streamSnapshot writes se's file to path and makes it durable. The caller
// removes path on failure.
func (l *Log) streamSnapshot(path string, se *snapshotEncoder) error {
	f, err := l.opts.FS.Create(path)
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	if err := se.writeTo(f); err != nil {
		f.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	return nil
}

// gcLocked removes obsolete snapshots and segments. Best-effort: GC
// failures never fail the checkpoint that triggered them.
func (l *Log) gcLocked() {
	names, err := l.opts.FS.ReadDir(l.opts.Dir)
	if err != nil {
		return
	}
	snaps, segs := classifyDir(names)
	if len(snaps) > 2 {
		for _, sn := range snaps[:len(snaps)-2] {
			l.opts.FS.Remove(filepath.Join(l.opts.Dir, sn.name))
		}
		snaps = snaps[len(snaps)-2:]
	}
	if len(snaps) == 0 {
		return
	}
	// Segments whose every record is ≤ the older retained snapshot's index
	// are unreachable by any future recovery; with a single snapshot, only
	// it is trusted, so nothing is collected until a second one exists.
	if len(snaps) < 2 {
		return
	}
	bound := snaps[0].idx
	for i, sg := range segs {
		if sg.idx == l.segStart {
			continue // never the live segment
		}
		// Fully covered iff the next segment starts at or before bound+1.
		if i+1 < len(segs) && segs[i+1].idx <= bound+1 {
			l.opts.FS.Remove(filepath.Join(l.opts.Dir, sg.name))
		}
	}
}

type dirEntry struct {
	name string
	idx  uint64
}

// classifyDir splits a directory listing into snapshots and segments, each
// sorted ascending by index. Unrecognized names are ignored.
func classifyDir(names []string) (snaps, segs []dirEntry) {
	for _, n := range names {
		var idx uint64
		switch {
		case parseName(n, "wal-", ".seg", &idx):
			segs = append(segs, dirEntry{n, idx})
		case parseName(n, "snap-", ".snap", &idx):
			snaps = append(snaps, dirEntry{n, idx})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].idx < snaps[j].idx })
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return snaps, segs
}

func parseName(name, prefix, suffix string, idx *uint64) bool {
	if len(name) != len(prefix)+16+len(suffix) {
		return false
	}
	if name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	hex := name[len(prefix) : len(prefix)+16]
	var v uint64
	for i := 0; i < 16; i++ {
		c := hex[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return false
		}
		v = v<<4 | d
	}
	*idx = v
	return true
}
