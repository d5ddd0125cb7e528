// Package sentiment implements the Comment Analyzer's attitude detection.
// Per the paper §II, a comment's sentiment factor SF is 1.0 when positive
// (it "contains positive words such as 'agree', 'support', 'conform'"),
// 0.1 when negative, and 0.5 otherwise (neutral).
//
// The classifier is lexicon-based with simple negation handling ("not
// great" counts as negative evidence, not positive). The SF values
// themselves are configurable in the influence model; this package only
// decides the polarity.
package sentiment

import (
	"mass/internal/lexicon"
	"mass/internal/textutil"
)

// Polarity is a comment's detected attitude.
type Polarity int

// The three attitudes the paper distinguishes.
const (
	Neutral Polarity = iota
	Positive
	Negative
)

// String renders the polarity name.
func (p Polarity) String() string {
	switch p {
	case Positive:
		return "positive"
	case Negative:
		return "negative"
	default:
		return "neutral"
	}
}

// Analyzer detects comment polarity against the sentiment lexicons.
// The zero value is not usable; call NewAnalyzer.
type Analyzer struct {
	positive map[string]struct{}
	negative map[string]struct{}
}

// NewAnalyzer builds an analyzer from the standard lexicons.
func NewAnalyzer() *Analyzer {
	a := &Analyzer{
		positive: map[string]struct{}{},
		negative: map[string]struct{}{},
	}
	for _, w := range lexicon.PositiveWords() {
		a.positive[w] = struct{}{}
	}
	for _, w := range lexicon.NegativeWords() {
		a.negative[w] = struct{}{}
	}
	return a
}

// negators flip the polarity of the word that immediately follows.
var negators = map[string]struct{}{
	"not": {}, "no": {}, "never": {}, "hardly": {}, "dont": {},
	"don't": {}, "didnt": {}, "didn't": {}, "cant": {}, "can't": {},
	"wont": {}, "won't": {}, "isnt": {}, "isn't": {}, "wasnt": {}, "wasn't": {},
}

// Score returns the polarity of text by counting lexicon hits, with
// single-token negation flipping. Ties and zero hits are Neutral.
func (a *Analyzer) Score(text string) Polarity { return FromCounts(a.Counts(textutil.Tokenize(text))) }

// FromCounts is the polarity of positive and negative hit counts: the
// larger side wins, and a tie is Neutral.
func FromCounts(pos, neg int) Polarity {
	switch {
	case pos > neg:
		return Positive
	case neg > pos:
		return Negative
	default:
		return Neutral
	}
}

// Counts returns the positive/negative lexicon hits among a text's tokens
// (textutil.Tokenize), after negation flipping: a negator flips the
// polarity of the token that immediately follows it.
func (a *Analyzer) Counts(tokens []string) (pos, neg int) {
	negated := false
	for _, tok := range tokens {
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
	return pos, neg
}
