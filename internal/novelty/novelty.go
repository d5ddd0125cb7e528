// Package novelty implements the post-quality novelty factor of MASS.
// Per the paper §II: "We collect a set of words indicating that an article
// is a copy of other sources, and set Novelty to a value between 0 and 0.1
// if the article contains such words, and otherwise we consider the article
// original and set its Novelty to 1."
//
// Two detectors are provided. The indicator detector is the paper's exact
// mechanism (copy-phrase matching). The shingle detector extends it with
// near-duplicate detection against previously seen posts — the [2] citation
// (Song et al.) observes that "reproduced content usually brings little
// influence", and a verbatim copy without a credit line should be caught
// too.
package novelty

import (
	"math/bits"
	"slices"
	"sort"

	"mass/internal/textutil"
)

// MaxCopyScore is the highest novelty a detected copy gets. The paper
// allows "a value between 0 and 0.1"; the indicator rule grades within
// that band by how many indicators matched (more indicators → closer to
// 0), and a near-duplicate of an earlier post is capped at it.
const (
	MaxCopyScore = 0.1
	// OriginalScore is the novelty of an original article.
	OriginalScore = 1.0
)

// Detector scores post novelty. The zero value is unusable; call New.
//
// Near-duplicate lookup goes through an inverted shingle index, so a new
// document is compared only against the documents it shares shingles
// with; the naive all-pairs scan is quadratic in corpus size. Each indexed
// shingle is stored once, as a posting: its 64-bit hash and the number of
// the document holding it, in flat integer arrays the garbage collector
// never scans. Documents are numbered 0, 1, … in the order they are
// indexed, which need not be chronological.
//
//   - The base holds postings sorted by (hash, document), with a directory
//     over the hashes' top bits, so finding a hash is one directory read
//     and a binary search inside a bucket of 16–32 postings on average.
//   - The overlay holds the postings indexed since, in the same order. Past
//     overlayLimit it is merged into the base in place, from the tail; a
//     merge allocates only when the base's capacity grows.
//
// A bulk build (ScoreAll or Observe into an empty detector) counts the
// postings into the directory, scatters them and sorts each bucket, with
// no per-shingle probe. Once indexed, a document's shingles live only in
// the detector; AppendDocuments reads them back.
type Detector struct {
	// shingleK is the shingle size for near-duplicate detection.
	shingleK int
	// dupThreshold is the shingle-set resemblance |A∩B| / |A∪B| above
	// which a post counts as a near-duplicate of an earlier one.
	dupThreshold float64

	keys  []uint64 // base posting hashes, sorted
	docs  []int32  // base posting documents, aligned to keys
	dir   []int32  // dir[b]: the first base posting with hash>>shift >= b
	shift uint     // 64 minus the directory's bits

	ovKeys []uint64 // overlay postings, ordered like the base
	ovDocs []int32
	ids    []int32 // insert scratch: the new document's number per shingle

	seenSize []int32 // shingle-set size per indexed document

	// Lookup scratch: shared[doc] counts the shingles a document shares
	// with the one being scored, and touched lists the documents with a
	// nonzero count, so a lookup clears only what it set.
	shared  []int32
	touched []int32
}

// New returns a detector using the standard copy-indicator lexicon,
// 4-token shingles and a 0.7 resemblance duplicate threshold.
func New() *Detector {
	return &Detector{shingleK: 4, dupThreshold: 0.7}
}

// IndicatorScore applies the paper's rule: if the text contains any copy
// indicator, the score is in (0, 0.1], scaled down by the number of
// distinct indicators present; otherwise 1. An indicator counts when it is
// a substring of strings.ToLower(text); one pass over text finds them all.
func (d *Detector) IndicatorScore(text string) float64 {
	hits := copyIndicators.count(text)
	if hits == 0 {
		return OriginalScore
	}
	// 1 hit → 0.1, 2 hits → 0.05, 3 → 0.0333..., asymptotically → 0.
	return MaxCopyScore / float64(hits)
}

// Score combines the indicator rule with near-duplicate detection against
// all texts previously scored by this detector, taking each earlier call's
// text as chronologically earlier. A near-duplicate of an earlier post is
// capped at MaxCopyScore even without credit phrases: the first occurrence
// of content is original, later copies are not.
func (d *Detector) Score(text string) float64 {
	p := d.Prepare(textutil.Tokenize(text), text)
	return d.ScorePrepared(&p, nil, nil)
}

// Prepared is a document preprocessed for duplicate detection. Prepare is
// pure and safe to call concurrently; ScorePrepared consumes the results
// serially. The split exists because shingling dominates analysis cost and
// parallelizes, while the seen-index update is serial.
type Prepared struct {
	// shingles is the deduplicated, sorted hash set of the document's
	// k-gram shingles (see textutil.ShingleHashes), until a detector
	// indexes the document and takes them over.
	shingles  []uint64
	indicator float64
}

// Prepare hashes a document's shingles from its tokens (textutil.Tokenize
// of text) and applies the indicator rule to text. Safe for concurrent use.
func (d *Detector) Prepare(tokens []string, text string) Prepared {
	return Prepared{
		shingles:  textutil.ShingleHashes(tokens, d.shingleK),
		indicator: d.IndicatorScore(text),
	}
}

// ScorePrepared inserts a prepared document into the seen index and
// returns its novelty. The detector takes over p's shingles: afterwards p
// holds only its indicator score. Not safe for concurrent use.
//
// A document is capped at MaxCopyScore when a chronologically earlier
// document resembles it at the duplicate threshold. earlier reports
// whether an indexed document precedes the new one; nil means every
// indexed document does (in-order scoring). later is
// called with each indexed document that follows the new one and
// resembles it: the insert caps that document too, and the caller applies
// min(nov, MaxCopyScore) to the score it stored. Nothing else moves. A cap
// never depends on the capping document's own score, so lowering a later
// document's score cannot lift or lower any other, and resemblance is
// symmetric, so one pass over the new document's posting lists finds both
// sides. Inserting documents in any order therefore leaves every score
// bit-for-bit equal to scoring the final set chronologically.
//
// Only documents sharing at least one shingle are candidates, and the
// exact resemblance |A∩B| / |A∪B| is computed from shared-shingle counts,
// so an insert costs O(the new document's posting-list lengths), not
// O(documents).
func (d *Detector) ScorePrepared(p *Prepared, earlier func(doc int32) bool, later func(doc int32)) float64 {
	for _, g := range p.shingles {
		d.lookup(g)
	}
	s := d.resolve(p.indicator, len(p.shingles), earlier, later)
	d.insert(p.shingles)
	p.shingles = nil
	return s
}

// ScoreAll indexes ps into an empty detector as documents 0, 1, …, taking
// ps as chronological, and returns their scores: exactly what
// ScorePrepared over ps in order, with nil callbacks, returns. It takes
// over every document's shingles. It is a bulk build: two documents share
// a shingle exactly when both sit in one run of equal hashes in the base,
// so each document is tallied against the earlier documents of the runs
// it joins, without a lookup.
func (d *Detector) ScoreAll(ps []*Prepared) []float64 {
	d.build(ps)
	scores := make([]float64, len(ps))
	// rep lists, per document, its postings that have an equal hash below
	// them, i.e. an earlier document: after the scatter, off[j] is where
	// document j's list ends.
	off := make([]int32, len(ps))
	for p := 1; p < len(d.keys); p++ {
		if d.keys[p] == d.keys[p-1] {
			off[d.docs[p]]++
		}
	}
	at := int32(0)
	for j, n := range off {
		off[j], at = at, at+n
	}
	rep := make([]int32, at)
	for p := 1; p < len(d.keys); p++ {
		if d.keys[p] == d.keys[p-1] {
			rep[off[d.docs[p]]] = int32(p)
			off[d.docs[p]]++
		}
	}
	lo := int32(0)
	for j, p := range ps {
		for _, r := range rep[lo:off[j]] {
			for q := r - 1; q >= 0 && d.keys[q] == d.keys[r]; q-- {
				d.tally(d.docs[q])
			}
		}
		lo = off[j]
		scores[j] = d.resolve(p.indicator, int(d.seenSize[j]), nil, nil)
	}
	return scores
}

// lookup tallies every indexed document holding shingle g.
func (d *Detector) lookup(g uint64) {
	if len(d.keys) > 0 {
		b := g >> d.shift
		lo, hi := int(d.dir[b]), int(d.dir[b+1])
		p, _ := slices.BinarySearch(d.keys[lo:hi], g)
		for p += lo; p < hi && d.keys[p] == g; p++ {
			d.tally(d.docs[p])
		}
	}
	p, _ := slices.BinarySearch(d.ovKeys, g)
	for ; p < len(d.ovKeys) && d.ovKeys[p] == g; p++ {
		d.tally(d.ovDocs[p])
	}
}

// tally counts one shingle doc shares with the document being scored.
func (d *Detector) tally(doc int32) {
	if d.shared[doc] == 0 {
		d.touched = append(d.touched, doc)
	}
	d.shared[doc]++
}

// resolve scores a document of size shingles, whose indicator score is s,
// against the documents the lookups tallied, and clears the tallies.
func (d *Detector) resolve(s float64, size int, earlier func(doc int32) bool, later func(doc int32)) float64 {
	for _, doc := range d.touched {
		inter := int(d.shared[doc])
		d.shared[doc] = 0
		union := size + int(d.seenSize[doc]) - inter
		if float64(inter)/float64(union) < d.dupThreshold {
			continue
		}
		if earlier == nil || earlier(doc) {
			s = min(s, MaxCopyScore)
		} else {
			later(doc)
		}
	}
	d.touched = d.touched[:0]
	return s
}

// add numbers the next document, of size shingles.
func (d *Detector) add(size int) int32 {
	id := int32(len(d.seenSize))
	d.seenSize = append(d.seenSize, int32(size))
	d.shared = append(d.shared, 0)
	return id
}

// insert indexes the sorted set sh as the next document, through the
// overlay.
func (d *Detector) insert(sh []uint64) {
	id := d.add(len(sh))
	d.ids = d.ids[:0]
	for range sh {
		d.ids = append(d.ids, id)
	}
	if n := len(d.ovKeys) + len(sh); n > cap(d.ovKeys) {
		// Doubling, but never past what the overlay can hold before its
		// next merge.
		c := max(n, min(2*cap(d.ovKeys), overlayLimit(len(d.keys))+len(sh)))
		d.ovKeys, d.ovDocs = grow(d.ovKeys, d.ovDocs, c)
	}
	d.ovKeys, d.ovDocs = mergeTail(d.ovKeys, d.ovDocs, sh, d.ids)
	if len(d.ovKeys) > overlayLimit(len(d.keys)) {
		d.compact()
	}
}

// overlayLimit is the overlay size, in postings, past which the overlay is
// merged into a base of the given size: an eighth of the base, clamped to
// [64, 8192], the rule a link view's overlay follows. The eighth keeps a
// small base's merges O(1) per posting amortized; the cap bounds what an
// insert into the overlay moves, at the price of one O(base) merge per
// 8,192 postings on a large base.
func overlayLimit(base int) int {
	return min(max(base/8, 64), 8192)
}

// compact merges the overlay into the base and updates the directory.
func (d *Detector) compact() {
	if need := len(d.keys) + len(d.ovKeys); need > cap(d.keys) {
		d.keys, d.docs = grow(d.keys, d.docs, headroom(need))
	}
	d.keys, d.docs = mergeTail(d.keys, d.docs, d.ovKeys, d.ovDocs)
	if len(d.dir) > 0 && d.shift == 64-dirBits(len(d.keys)) {
		// Each bucket's start moves up by the overlay postings below it.
		j := 0
		for b := 1; b < len(d.dir); b++ {
			for j < len(d.ovKeys) && d.ovKeys[j]>>d.shift < uint64(b) {
				j++
			}
			d.dir[b] += int32(j)
		}
	} else {
		d.index()
	}
	d.ovKeys, d.ovDocs = d.ovKeys[:0], d.ovDocs[:0]
}

// headroom is the capacity a base of n postings (or n documents) gets when
// it is built or grows: 1/64 more, so most merges and inserts allocate
// nothing while the spare room stays under 0.2 B per posting.
func headroom(n int) int { return n + n/64 }

// grow copies postings into new arrays of capacity c.
func grow(keys []uint64, docs []int32, c int) ([]uint64, []int32) {
	return append(make([]uint64, 0, c), keys...), append(make([]int32, 0, c), docs...)
}

// index rebuilds the directory over the base with one counting pass.
func (d *Detector) index() {
	nb := d.sizeDir(len(d.keys))
	for _, g := range d.keys {
		d.dir[g>>d.shift+1]++
	}
	for b := range nb {
		d.dir[b+1] += d.dir[b]
	}
}

// dirBits sizes the directory for n base postings: 2^bits buckets of 16
// to 32 postings on average.
func dirBits(n int) uint {
	return uint(max(bits.Len(uint(n/16))-1, 0))
}

// sizeDir sizes the zeroed directory for n base postings and returns its
// bucket count.
func (d *Detector) sizeDir(n int) int {
	b := dirBits(n)
	d.shift = 64 - b
	d.dir = slices.Grow(d.dir[:0], 1<<b+1)[:1<<b+1]
	clear(d.dir)
	return 1 << b
}

// build indexes ps into the empty detector as documents 0, 1, …: one
// counting pass into the directory, one scatter, and a sort inside each
// bucket. It takes over the shingles of ps.
func (d *Detector) build(ps []*Prepared) {
	if len(d.seenSize) > 0 {
		panic("novelty: bulk build into a detector that indexes documents")
	}
	n := 0
	for _, p := range ps {
		n += len(p.shingles)
	}
	nb := d.sizeDir(n)
	for _, p := range ps {
		for _, g := range p.shingles {
			d.dir[g>>d.shift]++
		}
	}
	at := int32(0)
	for b, c := range d.dir[:nb] {
		d.dir[b], at = at, at+c
	}
	// The scatter advances dir[b] to the end of bucket b, the start of b+1.
	d.keys, d.docs = make([]uint64, n, headroom(n)), make([]int32, n, headroom(n))
	d.seenSize = slices.Grow(d.seenSize, headroom(len(ps)))
	d.shared = slices.Grow(d.shared, headroom(len(ps)))
	for _, p := range ps {
		id := d.add(len(p.shingles))
		for _, g := range p.shingles {
			b := g >> d.shift
			d.keys[d.dir[b]], d.docs[d.dir[b]] = g, id
			d.dir[b]++
		}
		p.shingles = nil
	}
	copy(d.dir[1:], d.dir[:nb])
	d.dir[0] = 0
	for b := range nb {
		lo, hi := d.dir[b], d.dir[b+1]
		sortPostings(d.keys[lo:hi], d.docs[lo:hi])
	}
}

// sortPostings sorts one bucket's postings into (hash, document) order.
// The scatter leaves them in document order, so insertion sort by hash,
// which is stable, suffices for the usual small bucket.
func sortPostings(keys []uint64, docs []int32) {
	if len(keys) > 32 {
		sort.Sort(postings{keys, docs})
		return
	}
	for i := 1; i < len(keys); i++ {
		g, doc := keys[i], docs[i]
		j := i
		for ; j > 0 && keys[j-1] > g; j-- {
			keys[j], docs[j] = keys[j-1], docs[j-1]
		}
		keys[j], docs[j] = g, doc
	}
}

// postings sorts parallel posting arrays by (hash, document).
type postings struct {
	keys []uint64
	docs []int32
}

func (s postings) Len() int { return len(s.keys) }

func (s postings) Less(i, j int) bool {
	return s.keys[i] < s.keys[j] || s.keys[i] == s.keys[j] && s.docs[i] < s.docs[j]
}

func (s postings) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.docs[i], s.docs[j] = s.docs[j], s.docs[i]
}

// mergeTail merges the sorted postings (addK, addD) into the sorted
// postings (keys, docs) in place, from the tail, as influence's mergeInsert
// does: each added posting, largest first, finds its place among the held
// postings not yet moved, and the run above that place moves up as one
// block. The search gallops down from the previous place, so it costs the
// logarithm of the gap, not of the base. An added posting goes after held
// ones of equal hash, which keeps (hash, document) order because added
// documents are newer.
func mergeTail(keys []uint64, docs []int32, addK []uint64, addD []int32) ([]uint64, []int32) {
	hi := len(keys)
	n := hi + len(addK)
	keys, docs = slices.Grow(keys, len(addK))[:n], slices.Grow(docs, len(addK))[:n]
	for j := len(addK) - 1; j >= 0; j-- {
		g := addK[j]
		// The first held posting above g is in [lo, up]: keys[up:hi] > g.
		lo, up := 0, hi
		for step := 1; up-step >= 0; step *= 2 {
			if keys[up-step] <= g {
				lo = up - step + 1
				break
			}
			up -= step
		}
		for lo < up {
			m := int(uint(lo+up) >> 1)
			if keys[m] <= g {
				lo = m + 1
			} else {
				up = m
			}
		}
		copy(keys[lo+j+1:], keys[lo:hi])
		copy(docs[lo+j+1:], docs[lo:hi])
		keys[lo+j], docs[lo+j] = g, addD[j]
		hi = lo
	}
	return keys, docs
}
