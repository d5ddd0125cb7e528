package sentiment

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mass/internal/lexicon"
	"mass/internal/textutil"
)

func TestPaperSeedWords(t *testing.T) {
	a := NewAnalyzer()
	for _, text := range []string{
		"I agree with this",
		"I support your view",
		"these results conform to my experience",
	} {
		if got := a.Score(text); got != Positive {
			t.Errorf("Score(%q) = %v, want positive", text, got)
		}
	}
}

func TestNegativeDetection(t *testing.T) {
	a := NewAnalyzer()
	for _, text := range []string{
		"I disagree completely",
		"this is wrong and misleading",
		"terrible post, waste of time",
	} {
		if got := a.Score(text); got != Negative {
			t.Errorf("Score(%q) = %v, want negative", text, got)
		}
	}
}

func TestNeutralDefault(t *testing.T) {
	a := NewAnalyzer()
	for _, text := range []string{
		"",
		"interesting times we live in",
		"the meeting is on tuesday",
	} {
		if got := a.Score(text); got != Neutral {
			t.Errorf("Score(%q) = %v, want neutral", text, got)
		}
	}
}

func TestTieIsNeutral(t *testing.T) {
	a := NewAnalyzer()
	if got := a.Score("I agree but this is wrong"); got != Neutral {
		t.Fatalf("tie = %v, want neutral", got)
	}
}

func TestNegationFlips(t *testing.T) {
	a := NewAnalyzer()
	if got := a.Score("this is not great"); got != Negative {
		t.Fatalf("'not great' = %v, want negative", got)
	}
	if got := a.Score("this is not wrong"); got != Positive {
		t.Fatalf("'not wrong' = %v, want positive", got)
	}
	if got := a.Score("I don't agree"); got != Negative {
		t.Fatalf("\"don't agree\" = %v, want negative", got)
	}
}

func TestNegatorOnlyAffectsNextToken(t *testing.T) {
	a := NewAnalyzer()
	// "not" negates "really" (no sentiment), so "great" stays positive.
	if got := a.Score("not really great"); got != Positive {
		t.Fatalf("'not really great' = %v, want positive", got)
	}
}

func TestCaseInsensitive(t *testing.T) {
	a := NewAnalyzer()
	if got := a.Score("I AGREE!"); got != Positive {
		t.Fatalf("uppercase = %v, want positive", got)
	}
}

func TestCounts(t *testing.T) {
	a := NewAnalyzer()
	pos, neg := a.Counts(textutil.Tokenize("great great wrong"))
	if pos != 2 || neg != 1 {
		t.Fatalf("Counts = (%d, %d), want (2, 1)", pos, neg)
	}
	pos, neg = a.Counts(textutil.Tokenize(""))
	if pos != 0 || neg != 0 {
		t.Fatalf("empty Counts = (%d, %d)", pos, neg)
	}
}

func TestPolarityString(t *testing.T) {
	if Positive.String() != "positive" || Negative.String() != "negative" || Neutral.String() != "neutral" {
		t.Fatal("Polarity.String wrong")
	}
}

// Property: Score agrees with the sign of Counts.
func TestScoreCountsConsistency(t *testing.T) {
	a := NewAnalyzer()
	f := func(text string) bool {
		pos, neg := a.Counts(textutil.Tokenize(text))
		got := a.Score(text)
		switch {
		case pos > neg:
			return got == Positive
		case neg > pos:
			return got == Negative
		default:
			return got == Neutral
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refScore is the polarity rule as one loop over the tokens: the oracle
// for Score's FromCounts(Counts(tokens)).
func refScore(a *Analyzer, text string) Polarity {
	pos, neg := 0, 0
	negated := false
	for _, tok := range textutil.Tokenize(text) {
		if _, isNeg := negators[tok]; isNeg {
			negated = true
			continue
		}
		_, isPos := a.positive[tok]
		_, isNegWord := a.negative[tok]
		switch {
		case isPos && negated:
			neg++
		case isPos:
			pos++
		case isNegWord && negated:
			pos++
		case isNegWord:
			neg++
		}
		negated = false
	}
	switch {
	case pos > neg:
		return Positive
	case neg > pos:
		return Negative
	}
	return Neutral
}

// Property: Score equals the single-loop reference on random texts and on
// texts built from lexicon words and negators.
func TestScoreMatchesReference(t *testing.T) {
	a := NewAnalyzer()
	words := append(append([]string{"not", "never", "don't", "isn't", "really", "the"},
		lexicon.PositiveWords()...), lexicon.NegativeWords()...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := rng.Intn(8); n >= 0; n-- {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		if text := sb.String(); a.Score(text) != refScore(a, text) {
			t.Fatalf("Score(%q) = %v, reference %v", text, a.Score(text), refScore(a, text))
		}
	}
	if err := quick.Check(func(text string) bool { return a.Score(text) == refScore(a, text) }, nil); err != nil {
		t.Fatal(err)
	}
}
