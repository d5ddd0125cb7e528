// Package textutil provides the text-processing substrate used throughout
// MASS: tokenization, stopword filtering, a light suffix stemmer, shingling
// for near-duplicate detection, and sparse term-frequency vectors.
//
// A text is tokenized once, by a Scanner that reuses its buffers (one
// string allocation per text) or by Tokenize, and every facet reads those
// tokens: the word count is their number, ShingleHashes hashes their
// k-grams, and Terms is the stopword-filtered, stemmed classifier view.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scanner tokenizes texts into buffers it reuses from one text to the
// next. The zero value is ready to use. A Scanner is not safe for
// concurrent use; each worker owns one.
type Scanner struct {
	buf    []byte // the current text, lowercased, separators blanked
	tokens []string
}

// Scan splits text into lowercase word tokens. A token is a maximal run
// of letters, digits, or apostrophes; apostrophes are stripped from the
// edges so "don't" stays one token while quoting does not leak in.
// ASCII bytes take a fast path; other runes go through package unicode.
// The tokens share one string allocated for this text; the returned
// slice is reused by the next Scan.
func (s *Scanner) Scan(text string) []string {
	buf := s.buf[:0]
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'A' <= c && c <= 'Z':
				c += 'a' - 'A'
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c == '\'':
			default:
				c = ' '
			}
			buf = append(buf, c)
			continue
		}
		r, n := utf8.DecodeRuneInString(text[i:])
		i += n
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		} else {
			buf = append(buf, ' ')
		}
	}
	s.buf, s.tokens = buf, s.tokens[:0]
	for run := range strings.FieldsSeq(string(buf)) {
		if tok := strings.Trim(run, "'"); tok != "" {
			s.tokens = append(s.tokens, tok)
		}
	}
	return s.tokens
}

// Tokenize returns text's tokens (see Scanner.Scan) in a slice of its own.
func Tokenize(text string) []string { return new(Scanner).Scan(text) }

// stopwords is the standard English function-word list used by the analyzer.
// Kept small on purpose: MASS only needs it to de-noise classification and
// novelty features, not for retrieval-grade processing.
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range strings.Fields(`a an and are as at be but by for from
		has have he her hers him his i if in into is it its me my not of on
		or our ours she so that the their them then there these they this to
		us was we were what when where which who will with you your yours
		am been being did do does doing had having how than too very can
		just also about after before between both each few more most other
		some such only own same s t don should now`) {
		stopwords[w] = struct{}{}
	}
}

// IsStopword reports whether tok is an English function word.
func IsStopword(tok string) bool {
	_, ok := stopwords[tok]
	return ok
}

// Stem applies a light suffix stemmer (a simplified Porter step-1): plural
// and participle endings are removed when the remaining stem stays at least
// three characters. It deliberately under-stems rather than over-stems so
// domain vocabulary words remain distinguishable.
func Stem(tok string) string {
	n := len(tok)
	switch {
	case n > 4 && strings.HasSuffix(tok, "ies"):
		return tok[:n-3] + "y"
	case n > 4 && strings.HasSuffix(tok, "sses"):
		return tok[:n-2]
	case n > 4 && strings.HasSuffix(tok, "ing") && hasVowel(tok[:n-3]):
		return tok[:n-3]
	case n > 4 && strings.HasSuffix(tok, "edly"):
		return tok[:n-4]
	case n > 3 && strings.HasSuffix(tok, "ed") && hasVowel(tok[:n-2]):
		return tok[:n-2]
	case n > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") && !strings.HasSuffix(tok, "us"):
		return tok[:n-1]
	}
	return tok
}

func hasVowel(s string) bool {
	return strings.ContainsAny(s, "aeiouy")
}

// Terms is the classifiers' view of a text's tokens: the tokens that are
// not stopwords, stemmed, in order.
func Terms(tokens []string) []string {
	var terms []string
	for _, t := range tokens {
		if !IsStopword(t) {
			terms = append(terms, Stem(t))
		}
	}
	return terms
}

// WordCount returns the number of word tokens in text. The paper measures
// post quality by length; length is defined as the token count.
func WordCount(text string) int { return len(Tokenize(text)) }
