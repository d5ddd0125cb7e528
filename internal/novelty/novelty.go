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
type Detector struct {
	// shingleK is the shingle size for near-duplicate detection.
	shingleK int
	// dupThreshold is the shingle-set resemblance |A∩B| / |A∪B| above
	// which a post counts as a near-duplicate of an earlier one.
	dupThreshold float64
	// The inverted index maps each shingle hash to the documents containing
	// it, so a new document is compared only against documents it actually
	// shares shingles with (the naive all-pairs scan is quadratic in corpus
	// size and dominated analysis wall time on large corpora). Shingles are
	// 64-bit hashes, never strings: integer keys keep the index compact and
	// cheap to rebuild when a durable snapshot is restored. Most shingles
	// occur in exactly one document, so the first posting is stored inline
	// in `first` and only repeat shingles grow a slice in `more` — the
	// split avoids one tiny slice allocation per distinct shingle.
	// Documents are numbered 0, 1, … in the order they are indexed
	// (ScorePrepared or Observe), which need not be chronological.
	first    map[uint64]int32
	more     map[uint64][]int32
	seenSize []int // shingle-set size per seen document

	// Lookup scratch: shared[doc] counts the shingles a document shares
	// with the one being scored, and touched lists the documents with a
	// nonzero count, so a lookup clears only what it set.
	shared  []int32
	touched []int32
}

// New returns a detector using the standard copy-indicator lexicon,
// 4-token shingles and a 0.7 resemblance duplicate threshold.
func New() *Detector {
	return &Detector{
		shingleK:     4,
		dupThreshold: 0.7,
		first:        map[uint64]int32{},
		more:         map[uint64][]int32{},
	}
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
	return d.ScorePrepared(d.Prepare(textutil.Tokenize(text), text), nil, nil)
}

// Prepared is a document preprocessed for duplicate detection. Prepare is
// pure and safe to call concurrently; ScorePrepared consumes the results
// serially. The split exists because shingling dominates analysis cost and
// parallelizes, while the seen-index update is serial.
type Prepared struct {
	// shingles is the deduplicated, sorted hash set of the document's
	// k-gram shingles (see textutil.ShingleHashes). A slice, not a map:
	// scoring only ever iterates it, and restoring a persisted document
	// is then a flat copy.
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
// returns its novelty. Not safe for concurrent use.
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
// Lookup goes through the inverted shingle index: only documents sharing
// at least one shingle are candidates, and the exact resemblance
// |A∩B| / |A∪B| is computed from shared-shingle counts, so an insert costs
// O(the new document's posting-list lengths), not O(documents).
func (d *Detector) ScorePrepared(p Prepared, earlier func(doc int32) bool, later func(doc int32)) float64 {
	s := p.indicator
	for _, g := range p.shingles {
		if doc, ok := d.first[g]; ok {
			d.tally(doc)
			for _, rest := range d.more[g] {
				d.tally(rest)
			}
		}
	}
	for _, doc := range d.touched {
		inter := int(d.shared[doc])
		d.shared[doc] = 0
		union := len(p.shingles) + d.seenSize[doc] - inter
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
	d.observe(p.shingles)
	return s
}

// tally counts one shingle doc shares with the document being scored.
func (d *Detector) tally(doc int32) {
	if d.shared[doc] == 0 {
		d.touched = append(d.touched, doc)
	}
	d.shared[doc]++
}

// observe appends the next document id to every posting list in sh.
func (d *Detector) observe(sh []uint64) {
	id := int32(len(d.seenSize))
	d.seenSize = append(d.seenSize, len(sh))
	d.shared = append(d.shared, 0)
	for _, g := range sh {
		if _, ok := d.first[g]; !ok {
			d.first[g] = id
		} else {
			d.more[g] = append(d.more[g], id)
		}
	}
}
