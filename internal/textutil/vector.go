package textutil

import (
	"math"
	"slices"
)

// TermVector is a sparse term-frequency vector over stemmed terms.
type TermVector map[string]float64

// NewTermVector builds the term-frequency vector of a text's tokens over
// their Terms.
func NewTermVector(tokens []string) TermVector {
	v := TermVector{}
	for _, t := range Terms(tokens) {
		v[t]++
	}
	return v
}

// Add accumulates other into v with the given weight.
func (v TermVector) Add(other TermVector, weight float64) {
	for t, c := range other {
		v[t] += c * weight
	}
}

// Dot returns the inner product of two sparse vectors.
func (v TermVector) Dot(other TermVector) float64 {
	// Iterate the smaller map for speed.
	a, b := v, other
	if len(b) < len(a) {
		a, b = b, a
	}
	var s float64
	for t, c := range a {
		if d, ok := b[t]; ok {
			s += c * d
		}
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v TermVector) Norm() float64 {
	var s float64
	for _, c := range v {
		s += c * c
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity between v and other, or 0 when
// either vector is empty.
func (v TermVector) Cosine(other TermVector) float64 {
	nv, no := v.Norm(), other.Norm()
	if nv == 0 || no == 0 {
		return 0
	}
	return v.Dot(other) / (nv * no)
}

// ShingleHashes returns the 64-bit FNV-1a hashes of the k-gram shingles
// of a text's tokens (tokens joined by a single space), deduplicated and
// sorted ascending. Hashing shingles instead of materializing their strings
// makes the near-duplicate detector's index an integer-keyed map and a
// serialized shingle set a flat 8-byte-per-entry array; a 64-bit hash makes
// cross-shingle collisions (a slightly inflated shingle overlap) vanishingly
// rare at realistic corpus sizes. The hash is a fixed function of the text,
// so persisted shingle sets remain comparable across processes.
func ShingleHashes(tokens []string, k int) []uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	if k <= 0 || len(tokens) < k {
		return nil
	}
	out := make([]uint64, 0, len(tokens)-k+1)
	for i := 0; i+k <= len(tokens); i++ {
		h := uint64(offset64)
		for j := i; j < i+k; j++ {
			if j > i {
				h ^= ' '
				h *= prime64
			}
			for m := 0; m < len(tokens[j]); m++ {
				h ^= uint64(tokens[j][m])
				h *= prime64
			}
		}
		out = append(out, h)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
