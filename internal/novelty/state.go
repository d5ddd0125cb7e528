package novelty

import "slices"

// Serialization hooks.
//
// A durability layer that wants to warm-start duplicate detection after a
// restart needs three things per previously scored document: the shingle
// hash set, the indicator score, and the scored novelty value (so the
// inverted index can be rebuilt with Observe instead of re-running the
// duplicate lookup). Prepared keeps its fields unexported so the scoring
// pipeline stays the only writer; these accessors expose exactly the
// serializable view and RestorePrepared is its inverse. An indexed
// document's shingles live in the detector, and AppendDocuments reads them
// back.

// AppendShingles appends the prepared document's shingle hash set, in
// sorted order, to dst. It is empty once a detector has indexed p.
func (p Prepared) AppendShingles(dst []uint64) []uint64 {
	return append(dst, p.shingles...)
}

// Size returns the number of shingles the prepared document holds.
func (p Prepared) Size() int { return len(p.shingles) }

// Indicator returns the copy-indicator score computed by Prepare.
func (p Prepared) Indicator() float64 { return p.indicator }

// Observe records prepared documents in an empty detector without
// scoring them: they become documents 0, 1, … and their shingles form the
// inverted index, exactly as ScorePrepared would leave them, but the
// duplicate lookup is skipped. Like ScorePrepared, it takes over the
// documents' shingles. It is for restore paths that already know the
// documents' scores: ScoreAll's bulk build without the scoring, linear in
// the shingle count plus a sort inside each directory bucket.
func (d *Detector) Observe(ps []*Prepared) {
	d.build(ps)
}

// Postings returns the number of shingles the detector indexes, summed
// over its documents.
func (d *Detector) Postings() int { return len(d.keys) + len(d.ovKeys) }

// AppendDocuments appends every indexed document's shingle set to dst, in
// document order, and returns the extended slice with offsets: document
// k's set, sorted, is out[off[k]:off[k+1]]. One counting pass (the set
// sizes) places the documents, and one merge walk over the base and the
// overlay, in hash order, scatters the postings, so each set comes out
// sorted.
func (d *Detector) AppendDocuments(dst []uint64) (out []uint64, off []int) {
	nd := len(d.seenSize)
	off = make([]int, nd+1)
	at := len(dst)
	for k, n := range d.seenSize {
		off[k], at = at, at+int(n)
	}
	out = slices.Grow(dst, at-len(dst))[:at]
	// off[k] is document k's cursor; afterwards it is the end of k's set.
	i, j := 0, 0
	for i < len(d.keys) || j < len(d.ovKeys) {
		var g uint64
		var doc int32
		if j == len(d.ovKeys) || i < len(d.keys) && d.keys[i] <= d.ovKeys[j] {
			g, doc = d.keys[i], d.docs[i]
			i++
		} else {
			g, doc = d.ovKeys[j], d.ovDocs[j]
			j++
		}
		out[off[doc]] = g
		off[doc]++
	}
	copy(off[1:], off[:nd])
	off[0] = len(dst)
	return out, off
}

// RestorePrepared rebuilds a Prepared from its serialized parts. The
// resulting value is interchangeable with the original: ScorePrepared over
// a restored sequence reproduces the original scores bit-for-bit, because
// the resemblance computation depends only on set contents, never on
// ordering. The Prepared aliases shingles, which must stay unmodified; a
// detector copies them into its index when it takes them over.
func RestorePrepared(shingles []uint64, indicator float64) Prepared {
	return Prepared{shingles: shingles, indicator: indicator}
}
