package rank

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKBasic(t *testing.T) {
	scores := map[string]float64{"a": 1, "b": 3, "c": 2, "d": 0.5}
	got := TopK(scores, 2)
	want := []Entry{{"b", 3}, {"c", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
}

func TestTopKTiesAlphabetical(t *testing.T) {
	scores := map[string]float64{"z": 1, "a": 1, "m": 1}
	got := TopK(scores, 2)
	if !reflect.DeepEqual(got, []Entry{{"a", 1}, {"m", 1}}) {
		t.Fatalf("tie-break = %v, want [a m]", got)
	}
}

func TestTopKEdges(t *testing.T) {
	if TopK(nil, 3) != nil {
		t.Fatal("nil scores must give nil")
	}
	if TopK(map[string]float64{"a": 1}, 0) != nil {
		t.Fatal("k=0 must give nil")
	}
	got := TopK(map[string]float64{"a": 1}, 10)
	if len(got) != 1 {
		t.Fatalf("k > n = %v", got)
	}
}

func TestOverlapAtK(t *testing.T) {
	a := []string{"x", "y", "z"}
	b := []string{"y", "x", "q"}
	if got := OverlapAtK(a, b, 2); got != 1 {
		t.Fatalf("overlap@2 = %v, want 1", got)
	}
	if got := OverlapAtK(a, b, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("overlap@3 = %v, want 2/3", got)
	}
	if got := OverlapAtK(a, b, 0); got != 0 {
		t.Fatal("k=0 overlap must be 0")
	}
}

func TestPrecisionAtK(t *testing.T) {
	rel := map[string]bool{"a": true, "b": true}
	if got := PrecisionAtK([]string{"a", "x", "b"}, rel, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("P@3 = %v", got)
	}
	if got := PrecisionAtK([]string{"a"}, rel, 2); got != 0.5 {
		t.Fatalf("P@2 short list = %v, want 0.5", got)
	}
	if got := PrecisionAtK(nil, rel, 0); got != 0 {
		t.Fatal("k=0 precision must be 0")
	}
}

func TestNDCGPerfect(t *testing.T) {
	gains := map[string]float64{"a": 3, "b": 2, "c": 1}
	if got := NDCGAtK([]string{"a", "b", "c"}, gains, 3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %v, want 1", got)
	}
	rev := NDCGAtK([]string{"c", "b", "a"}, gains, 3)
	if !(rev > 0 && rev < 1) {
		t.Fatalf("reversed NDCG = %v, want in (0,1)", rev)
	}
	if got := NDCGAtK([]string{"x"}, map[string]float64{}, 3); got != 0 {
		t.Fatal("no gains must give 0")
	}
}

func TestSpearmanRho(t *testing.T) {
	a := []string{"1", "2", "3", "4", "5"}
	if got := SpearmanRho(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rho(identical) = %v", got)
	}
	rev := []string{"5", "4", "3", "2", "1"}
	if got := SpearmanRho(a, rev); math.Abs(got+1) > 1e-12 {
		t.Fatalf("rho(reversed) = %v", got)
	}
	if got := SpearmanRho([]string{"a"}, []string{"b"}); got != 0 {
		t.Fatal("no common items must give 0")
	}
}

func TestRBOIdentical(t *testing.T) {
	a := []string{"x", "y", "z"}
	if got := RBO(a, a, 0.9); math.Abs(got-1) > 1e-9 {
		t.Fatalf("RBO(identical) = %v, want 1", got)
	}
}

func TestRBODisjoint(t *testing.T) {
	if got := RBO([]string{"a", "b"}, []string{"c", "d"}, 0.9); got != 0 {
		t.Fatalf("RBO(disjoint) = %v, want 0", got)
	}
}

func TestRBOTopWeighted(t *testing.T) {
	base := []string{"1", "2", "3", "4", "5"}
	swapTop := []string{"2", "1", "3", "4", "5"}    // disagreement at the top
	swapBottom := []string{"1", "2", "3", "5", "4"} // disagreement at the bottom
	top := RBO(base, swapTop, 0.9)
	bottom := RBO(base, swapBottom, 0.9)
	if !(bottom > top) {
		t.Fatalf("RBO must punish top disagreement more: top-swap=%v bottom-swap=%v", top, bottom)
	}
	for _, v := range []float64{top, bottom} {
		if v <= 0 || v >= 1 {
			t.Fatalf("RBO out of (0,1): %v", v)
		}
	}
}

func TestRBOEdgeCases(t *testing.T) {
	if RBO(nil, []string{"a"}, 0.9) != 0 {
		t.Fatal("empty list must give 0")
	}
	if RBO([]string{"a"}, []string{"a"}, 0) != 0 || RBO([]string{"a"}, []string{"a"}, 1) != 0 {
		t.Fatal("p outside (0,1) must give 0")
	}
}

// Property: RBO is symmetric and within [0, 1].
func TestRBOProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%10) + 1
		a := make([]string, n)
		for i := range a {
			a[i] = string(rune('a' + i))
		}
		b := append([]string(nil), a...)
		rng.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
		r1, r2 := RBO(a, b, 0.9), RBO(b, a, 0.9)
		return math.Abs(r1-r2) < 1e-9 && r1 >= 0 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopK(scores, k) equals sorting all entries and truncating.
func TestTopKMatchesSortProperty(t *testing.T) {
	f := func(seed int64, n8, k8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8 % 40)
		k := int(k8%20) + 1
		scores := map[string]float64{}
		for i := 0; i < n; i++ {
			scores[string(rune('a'+i%26))+string(rune('a'+i/26))] = math.Floor(rng.Float64()*10) / 2
		}
		got := TopK(scores, k)
		all := make([]Entry, 0, len(scores))
		for id, s := range scores {
			all = append(all, Entry{id, s})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].ID < all[j].ID
		})
		if k > len(all) {
			k = len(all)
		}
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Spearman rho is bounded in [-1, 1] and symmetric
// (rho(a,b) == rho(b,a)).
func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%15) + 2
		a := make([]string, n)
		for i := range a {
			a[i] = string(rune('a' + i))
		}
		b := append([]string(nil), a...)
		rng.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
		rho := SpearmanRho(a, b)
		if rho < -1-1e-9 || rho > 1+1e-9 {
			return false
		}
		return math.Abs(rho-SpearmanRho(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
