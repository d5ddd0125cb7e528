package novelty

// Serialization hooks for Prepared documents.
//
// A durability layer that wants to warm-start duplicate detection after a
// restart needs three things per previously scored document: the shingle
// hash set, the indicator score, and the scored novelty value (so the
// inverted index can be rebuilt with Observe instead of re-running the
// duplicate lookup). Prepared keeps its fields unexported so the scoring
// pipeline stays the only writer; these accessors expose exactly the
// serializable view and RestorePrepared is its inverse.

// Shingles returns the prepared document's shingle hash set in sorted
// order. The slice is freshly allocated; mutating it does not affect p.
func (p Prepared) Shingles() []uint64 {
	return append([]uint64(nil), p.shingles...)
}

// Size returns the number of shingles in the prepared document's set.
func (p Prepared) Size() int { return len(p.shingles) }

// Indicator returns the copy-indicator score computed by Prepare.
func (p Prepared) Indicator() float64 { return p.indicator }

// Reserve pre-sizes the inverted index for about n shingle insertions, so
// a bulk build (a cold analysis, or RestoreCache replaying a checkpoint)
// does not pay for map growth. A no-op once any shingle is indexed.
func (d *Detector) Reserve(n int) {
	if len(d.first) == 0 && n > 0 {
		d.first = make(map[uint64]int32, n)
	}
}

// Observe records a prepared document in the seen index without scoring
// it: the document gets the next document number and its shingles join
// the inverted index, exactly as ScorePrepared would leave them, but the
// (expensive) duplicate lookup against indexed documents is skipped.
// For restore paths that already know the document's score, replaying
// Observe instead of ScorePrepared rebuilds an identical detector in time
// linear in the shingle count — the lookup is the quadratic-ish part on
// template-heavy corpora.
func (d *Detector) Observe(p Prepared) {
	d.observe(p.shingles)
}

// RestorePrepared rebuilds a Prepared from its serialized parts. The
// resulting value is interchangeable with the original: ScorePrepared over
// a restored sequence reproduces the original scores bit-for-bit, because
// the resemblance computation depends only on set contents, never on
// ordering.
// The slice is copied; the caller keeps ownership of shingles.
func RestorePrepared(shingles []uint64, indicator float64) Prepared {
	return Prepared{shingles: append([]uint64(nil), shingles...), indicator: indicator}
}
