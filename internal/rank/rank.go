// Package rank provides top-k selection over score maps and the
// rank-comparison metrics (Spearman rho, RBO, precision@k, NDCG,
// overlap@k) the experiment harness uses to compare MASS against baselines
// and against planted ground truth.
package rank

import (
	"container/heap"
	"math"
	"sort"
)

// Entry is one scored item.
type Entry struct {
	ID    string
	Score float64
}

// entryHeap is a min-heap on (Score, then reverse ID) used by TopK so the
// weakest retained entry sits at the root.
type entryHeap []Entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID // larger ID is "worse" so ties keep smaller IDs
}
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(Entry)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TopK returns the k highest-scored entries in descending score order,
// ties broken by ascending ID so results are deterministic. k <= 0 returns
// nil; k beyond the map size returns everything sorted.
func TopK(scores map[string]float64, k int) []Entry {
	if k <= 0 || len(scores) == 0 {
		return nil
	}
	h := make(entryHeap, 0, k)
	heap.Init(&h)
	// Deterministic iteration is unnecessary for correctness because the
	// heap comparator is total, but we sort the final result anyway.
	for id, s := range scores {
		e := Entry{ID: id, Score: s}
		if len(h) < k {
			heap.Push(&h, e)
			continue
		}
		if entryLess(h[0], e) {
			h[0] = e
			heap.Fix(&h, 0)
		}
	}
	out := make([]Entry, len(h))
	copy(out, h)
	sort.Slice(out, func(i, j int) bool { return entryLess(out[j], out[i]) })
	return out
}

// entryLess reports whether a ranks strictly below b.
func entryLess(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// OverlapAtK returns |top-k(a) ∩ top-k(b)| / k for two ranked ID lists
// (already truncated or longer; only the first k of each are used).
func OverlapAtK(a, b []string, k int) float64 {
	if k <= 0 {
		return 0
	}
	ka, kb := a, b
	if len(ka) > k {
		ka = ka[:k]
	}
	if len(kb) > k {
		kb = kb[:k]
	}
	set := make(map[string]struct{}, len(ka))
	for _, id := range ka {
		set[id] = struct{}{}
	}
	n := 0
	for _, id := range kb {
		if _, ok := set[id]; ok {
			n++
		}
	}
	return float64(n) / float64(k)
}

// PrecisionAtK returns the fraction of ranking's first k items that appear
// in the relevant set.
func PrecisionAtK(ranking []string, relevant map[string]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	if len(ranking) > k {
		ranking = ranking[:k]
	}
	hits := 0
	for _, id := range ranking {
		if relevant[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// NDCGAtK computes normalized discounted cumulative gain of the ranking's
// first k items against graded relevance gains. Items missing from gains
// have gain 0. Returns 0 when no item has positive gain.
func NDCGAtK(ranking []string, gains map[string]float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	if len(ranking) > k {
		ranking = ranking[:k]
	}
	dcg := 0.0
	for i, id := range ranking {
		dcg += gains[id] / math.Log2(float64(i)+2)
	}
	ideal := make([]float64, 0, len(gains))
	for _, g := range gains {
		if g > 0 {
			ideal = append(ideal, g)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	if len(ideal) > k {
		ideal = ideal[:k]
	}
	idcg := 0.0
	for i, g := range ideal {
		idcg += g / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

// RBO computes rank-biased overlap (Webber et al. 2010) between two
// ranked lists with persistence parameter p in (0, 1): the expected
// overlap seen by a reader who inspects depth d with probability
// proportional to p^d, truncated at the shorter effective depth and
// extrapolated with the final agreement. Top-weighted: disagreement at
// rank 1 costs far more than at rank 20. Returns a value in [0, 1].
func RBO(a, b []string, p float64) float64 {
	if p <= 0 || p >= 1 || len(a) == 0 || len(b) == 0 {
		return 0
	}
	depth := len(a)
	if len(b) < depth {
		depth = len(b)
	}
	seenA := map[string]struct{}{}
	seenB := map[string]struct{}{}
	overlap := 0
	sum := 0.0
	weight := 1 - p
	agreement := 0.0
	for d := 1; d <= depth; d++ {
		ia, ib := a[d-1], b[d-1]
		if _, ok := seenB[ia]; ok {
			overlap++
		}
		delete(seenB, ia)
		if ia == ib {
			overlap++
		} else {
			if _, ok := seenA[ib]; ok {
				overlap++
			}
			delete(seenA, ib)
			seenA[ia] = struct{}{}
			seenB[ib] = struct{}{}
		}
		agreement = float64(overlap) / float64(d)
		sum += weight * agreement
		weight *= p
	}
	// Extrapolate the tail with the final agreement level.
	tail := 0.0
	w := weight
	for d := depth + 1; d <= depth+1000; d++ {
		tail += w * agreement
		w *= p
		if w < 1e-15 {
			break
		}
	}
	return sum + tail
}

// SpearmanRho computes Spearman's rank correlation over the common items of
// two rankings. Returns 0 when fewer than two common items.
func SpearmanRho(a, b []string) float64 {
	posA := indexOf(a)
	posB := indexOf(b)
	var common []string
	for _, id := range a {
		if _, ok := posB[id]; ok {
			common = append(common, id)
		}
	}
	n := len(common)
	if n < 2 {
		return 0
	}
	// Re-rank within the common subset to keep ranks contiguous.
	ra := subRanks(common, posA)
	rb := subRanks(common, posB)
	var d2 float64
	for i := range common {
		d := float64(ra[i] - rb[i])
		d2 += d * d
	}
	nf := float64(n)
	return 1 - 6*d2/(nf*(nf*nf-1))
}

func indexOf(ids []string) map[string]int {
	m := make(map[string]int, len(ids))
	for i, id := range ids {
		if _, dup := m[id]; !dup {
			m[id] = i
		}
	}
	return m
}

func subRanks(common []string, pos map[string]int) []int {
	order := append([]string(nil), common...)
	sort.Slice(order, func(i, j int) bool { return pos[order[i]] < pos[order[j]] })
	rankOf := make(map[string]int, len(order))
	for r, id := range order {
		rankOf[id] = r
	}
	out := make([]int, len(common))
	for i, id := range common {
		out[i] = rankOf[id]
	}
	return out
}
