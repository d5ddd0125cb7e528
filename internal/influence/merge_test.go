package influence

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// TestMergeInsertMatchesSort: merging fresh elements into a sorted order
// gives exactly the order sorting everything at once gives, for random
// sizes and interleavings (distinct keys, as post and blogger IDs are).
func TestMergeInsertMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 500; trial++ {
		n, k := rng.Intn(200), rng.Intn(40)
		perm := rng.Perm(n + k)
		all := make([]int32, n+k)
		for i, v := range perm {
			all[i] = int32(v * 3)
		}
		sorted := slices.Clone(all[:n])
		slices.Sort(sorted)
		fresh := slices.Clone(all[n:])
		want := slices.Clone(all)
		slices.SortFunc(want, cmp.Compare[int32])
		if got := mergeInsert(sorted, fresh, cmp.Compare[int32]); !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d: merged %v, want %v", n, k, got, want)
		}
	}
}

// TestMergeInsertCompareBudget pins the merge's work: k fresh elements
// into n = 10,000 sorted cost at most k·(⌈log₂ n⌉+1) compares to place
// plus k·⌈log₂ k⌉ to sort them, wherever they land — including the case
// where every fresh element sorts ahead of every existing one, which an
// element-by-element merge from the end pays ~n compares for.
func TestMergeInsertCompareBudget(t *testing.T) {
	const n = 10_000
	ceilLog2 := func(x int) int { return bits.Len(uint(x - 1)) }
	rng := rand.New(rand.NewSource(27))
	for _, k := range []int{1, 2, 3, 16, 100, 1000} {
		cases := map[string]func(i int) int32{
			"all first":   func(i int) int32 { return int32(-1 - i) },
			"all last":    func(i int) int32 { return int32(2*n + i) },
			"interleaved": func(i int) int32 { return int32(2*rng.Intn(n) + 1) },
		}
		for name, gen := range cases {
			sorted := make([]int32, n)
			for i := range sorted {
				sorted[i] = int32(2 * i)
			}
			seen := map[int32]bool{}
			fresh := make([]int32, 0, k)
			for i := 0; len(fresh) < k; i++ {
				if v := gen(i); !seen[v] {
					seen[v] = true
					fresh = append(fresh, v)
				}
			}
			rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
			compares := 0
			counting := func(a, b int32) int { compares++; return cmp.Compare(a, b) }
			got := mergeInsert(sorted, fresh, counting)
			if !slices.IsSorted(got) || len(got) != n+k {
				t.Fatalf("k=%d %s: merge is not the sorted union", k, name)
			}
			budget := k*(ceilLog2(n)+1) + k*ceilLog2(k)
			t.Logf("k=%d %s: %d compares, budget %d", k, name, compares, budget)
			if compares > budget {
				t.Fatalf("k=%d %s: %d compares, budget %d", k, name, compares, budget)
			}
		}
	}
}
