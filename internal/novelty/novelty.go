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
	"strings"

	"mass/internal/lexicon"
	"mass/internal/textutil"
)

// CopyScore is the novelty value assigned to detected copies. The paper
// allows "a value between 0 and 0.1"; we grade within that band by how many
// indicators matched (more indicators → closer to 0).
const (
	maxCopyScore = 0.1
	// OriginalScore is the novelty of an original article.
	OriginalScore = 1.0
)

// Detector scores post novelty. The zero value is unusable; call New.
type Detector struct {
	indicators []string
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
	first    map[uint64]int32
	more     map[uint64][]int32
	seenSize []int // shingle-set size per seen document
}

// New returns a detector using the standard copy-indicator lexicon,
// 4-token shingles and a 0.7 resemblance duplicate threshold.
func New() *Detector {
	return &Detector{
		indicators:   lexicon.CopyIndicators(),
		shingleK:     4,
		dupThreshold: 0.7,
		first:        map[uint64]int32{},
		more:         map[uint64][]int32{},
	}
}

// IndicatorScore applies the paper's rule: if the text contains any copy
// indicator, the score is in (0, 0.1], scaled down by the number of
// distinct indicators present; otherwise 1.
func (d *Detector) IndicatorScore(text string) float64 {
	lower := strings.ToLower(text)
	hits := 0
	for _, ind := range d.indicators {
		if strings.Contains(lower, ind) {
			hits++
		}
	}
	if hits == 0 {
		return OriginalScore
	}
	// 1 hit → 0.1, 2 hits → 0.05, 3 → 0.0333..., asymptotically → 0.
	return maxCopyScore / float64(hits)
}

// Score combines the indicator rule with near-duplicate detection against
// all texts previously scored by this detector (in call order). A
// near-duplicate of an earlier post is capped at maxCopyScore even without
// credit phrases. Scoring order matters: the first occurrence of content is
// original, later copies are not — callers should score posts in
// chronological order.
//
// Duplicate lookup goes through an inverted shingle index: only documents
// sharing at least one shingle are candidates, and the exact resemblance
// |A∩B| / |A∪B| is computed from shared-shingle counts, so scoring a corpus
// costs O(total shingle occurrences) rather than O(posts²).
func (d *Detector) Score(text string) float64 {
	return d.ScorePrepared(d.Prepare(text))
}

// Prepared is a document preprocessed for duplicate detection. Prepare is
// pure and safe to call concurrently; ScorePrepared consumes the results
// serially in chronological order. The split exists because shingling
// dominates analysis cost and parallelizes, while the seen-index update
// is inherently ordered.
type Prepared struct {
	// shingles is the deduplicated, sorted hash set of the document's
	// k-gram shingles (see textutil.ShingleHashes). A slice, not a map:
	// scoring only ever iterates it, and restoring a persisted document
	// is then a flat copy.
	shingles  []uint64
	indicator float64
}

// Prepare tokenizes a document into shingle hashes and applies the
// indicator rule. Safe for concurrent use.
func (d *Detector) Prepare(text string) Prepared {
	return Prepared{
		shingles:  textutil.ShingleHashes(text, d.shingleK),
		indicator: d.IndicatorScore(text),
	}
}

// ScorePrepared is Score over a Prepare result. Not safe for concurrent
// use: it mutates the seen-document index.
func (d *Detector) ScorePrepared(p Prepared) float64 {
	s := p.indicator
	sh := p.shingles
	if len(sh) > 0 {
		shared := map[int32]int{}
		for _, g := range sh {
			if doc, ok := d.first[g]; ok {
				shared[doc]++
				for _, rest := range d.more[g] {
					shared[rest]++
				}
			}
		}
		for doc, inter := range shared {
			union := len(sh) + d.seenSize[doc] - inter
			if union > 0 && float64(inter)/float64(union) >= d.dupThreshold {
				if s > maxCopyScore {
					s = maxCopyScore
				}
				break
			}
		}
	}
	d.observe(sh)
	return s
}

// observe appends the next document id to every posting list in sh.
func (d *Detector) observe(sh []uint64) {
	id := int32(len(d.seenSize))
	d.seenSize = append(d.seenSize, len(sh))
	for _, g := range sh {
		if _, ok := d.first[g]; !ok {
			d.first[g] = id
		} else {
			d.more[g] = append(d.more[g], id)
		}
	}
}

// Reset clears the seen-post memory (the indicator lexicon is kept).
func (d *Detector) Reset() {
	d.first = map[uint64]int32{}
	d.more = map[uint64][]int32{}
	d.seenSize = nil
}

// SeenCount reports how many texts have been scored since the last Reset.
func (d *Detector) SeenCount() int { return len(d.seenSize) }
