package novelty_test

import (
	"strings"
	"testing"

	"mass/internal/lexicon"
	"mass/internal/novelty"
	"mass/internal/synth"
)

// containsScore is the indicator rule as it was first written, kept as
// the oracle: lower the whole text, then one strings.Contains per
// indicator.
func containsScore(text string) float64 {
	lower := strings.ToLower(text)
	hits := 0
	for _, ind := range lexicon.CopyIndicators() {
		if strings.Contains(lower, ind) {
			hits++
		}
	}
	if hits == 0 {
		return novelty.OriginalScore
	}
	return novelty.MaxCopyScore / float64(hits)
}

func TestIndicatorScoreMatchesContainsOnSynthBodies(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 4, Bloggers: 60, Posts: 600, CopyRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	d := novelty.New()
	copies := 0
	for _, p := range c.Posts {
		for _, text := range []string{p.Body, p.Title} {
			want := containsScore(text)
			if got := d.IndicatorScore(text); got != want {
				t.Fatalf("post %s: IndicatorScore %v, strings.Contains oracle %v\ntext %q", p.ID, got, want, text)
			}
			if want < novelty.OriginalScore {
				copies++
			}
		}
	}
	if copies == 0 {
		t.Fatal("no synth text carries a copy indicator; the comparison covers only misses")
	}
}

func FuzzIndicatorScore(f *testing.F) {
	for _, s := range []string{
		"",
		"my own fresh thoughts",
		"Reposted From another blog, CREDIT TO the author, source: x",
		"or\u0130ginally posted",    // U+0130 lowers to 'i'
		"\u212Aey zhuan tie",        // U+212A lowers to 'k'
		"ZHUAN\u0130TIE zt",         // U+0130 inside a phrase that wants a space
		"fuzzt blitztrain quizzt",   // an indicator inside a word
		"copy fromcopied from",      // overlapping phrases
		"reposted\nfrom credit\tto", // a phrase across a line break does not match
		"source:source:source:",
		"\xffzt\xff\xc3(",            // invalid UTF-8 around a hit
		"full text\u00a0below",       // no-break space is not a space
		"\u1d22\u1d1b \uff3a\uff34",  // look-alikes that lower to non-ASCII
		"excerpted from\xed\xa0\x80", // an encoded surrogate is invalid UTF-8
	} {
		f.Add(s)
	}
	d := novelty.New()
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := d.IndicatorScore(text), containsScore(text); got != want {
			t.Fatalf("IndicatorScore %v, strings.Contains oracle %v for %q", got, want, text)
		}
	})
}
