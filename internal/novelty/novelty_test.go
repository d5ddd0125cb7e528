package novelty

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mass/internal/textutil"
)

func TestIndicatorOriginal(t *testing.T) {
	d := New()
	if got := d.IndicatorScore("my own fresh thoughts about the economy"); got != OriginalScore {
		t.Fatalf("original score = %v, want 1", got)
	}
}

func TestIndicatorCopy(t *testing.T) {
	d := New()
	got := d.IndicatorScore("This great article was Reposted From another blog")
	if got <= 0 || got > 0.1 {
		t.Fatalf("copy score = %v, want in (0, 0.1]", got)
	}
}

func TestIndicatorMultipleHitsLower(t *testing.T) {
	d := New()
	one := d.IndicatorScore("reposted from somewhere")
	two := d.IndicatorScore("reposted from somewhere, credit to the author")
	if !(two < one && two > 0) {
		t.Fatalf("more indicators must lower the score: one=%v two=%v", one, two)
	}
}

func TestIndicatorCaseInsensitive(t *testing.T) {
	d := New()
	if got := d.IndicatorScore("REPRINTED with permission"); got > 0.1 {
		t.Fatalf("uppercase indicator missed: %v", got)
	}
}

func TestScoreNearDuplicate(t *testing.T) {
	d := New()
	orig := "the quick brown fox jumps over the lazy dog near the riverbank today"
	if got := d.Score(orig); got != OriginalScore {
		t.Fatalf("first occurrence = %v, want 1", got)
	}
	// Verbatim copy without any credit phrase.
	if got := d.Score(orig); got > 0.1 {
		t.Fatalf("verbatim copy = %v, want <= 0.1", got)
	}
}

func TestScoreDistinctTextsStayOriginal(t *testing.T) {
	d := New()
	if got := d.Score("completely original essay about watercolor painting and galleries"); got != OriginalScore {
		t.Fatal("first text must be original")
	}
	if got := d.Score("a different report about basketball playoffs and stadium crowds"); got != OriginalScore {
		t.Fatalf("unrelated second text = %v, want 1", got)
	}
}

func TestScoreOrderMatters(t *testing.T) {
	// The first occurrence is original even if a later post repeats it.
	d := New()
	text := "some unique string of words long enough to produce shingles here"
	first := d.Score(text)
	second := d.Score(text)
	if first != OriginalScore || second > 0.1 {
		t.Fatalf("first=%v second=%v", first, second)
	}
}

func TestShortTextNoShingles(t *testing.T) {
	d := New()
	// Too short for 4-token shingles; duplicate detection cannot fire.
	if got := d.Score("hi"); got != OriginalScore {
		t.Fatalf("short = %v", got)
	}
	if got := d.Score("hi"); got != OriginalScore {
		t.Fatalf("repeated short text = %v, want 1 (no shingles)", got)
	}
}

// Property: scores are always in (0, 0.1] ∪ {1}, matching the paper's rule.
func TestScoreRangeProperty(t *testing.T) {
	f := func(texts []string) bool {
		d := New()
		for _, s := range texts {
			got := d.Score(s)
			if got == OriginalScore {
				continue
			}
			if got <= 0 || got > 0.1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Inserting documents out of chronological order, with the earlier
// predicate and the later cap, leaves every score bit-for-bit equal to
// scoring the same documents chronologically, and each insert calls later
// only for a following near-duplicate.
func TestScorePreparedAnyOrderMatchesChronological(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	words := []string{"harbour", "market", "fish", "price", "river", "storm", "goal", "league", "canvas", "gallery"}
	for round := 0; round < 30; round++ {
		var texts []string
		for i := 0; i < 25; i++ {
			if i > 0 && rng.Intn(3) == 0 {
				texts = append(texts, texts[rng.Intn(len(texts))]) // a verbatim copy
				continue
			}
			body := ""
			for w := 0; w < 6+rng.Intn(10); w++ {
				body += words[rng.Intn(len(words))] + " "
			}
			if rng.Intn(6) == 0 {
				body += "reposted from elsewhere"
			}
			texts = append(texts, body)
		}
		chrono := New()
		want := make([]float64, len(texts))
		for i, text := range texts {
			want[i] = chrono.Score(text)
		}

		d := New()
		got := make([]float64, len(texts))
		var docs []int // document number → chronological rank
		for _, rank := range rng.Perm(len(texts)) {
			earlier := func(doc int32) bool { return docs[doc] < rank }
			later := func(doc int32) {
				if docs[doc] <= rank {
					t.Fatalf("round %d: later called for rank %d inserting rank %d", round, docs[doc], rank)
				}
				got[docs[doc]] = min(got[docs[doc]], MaxCopyScore)
			}
			p := d.Prepare(textutil.Tokenize(texts[rank]), texts[rank])
			got[rank] = d.ScorePrepared(&p, earlier, later)
			docs = append(docs, rank)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: text %d scored %v out of order, %v in order", round, i, got[i], want[i])
			}
		}
	}
}
