package textutil

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// refTokenize is the rune-at-a-time reference tokenizer, the oracle for
// Scan: a token is a maximal run of letters, digits and apostrophes,
// lowercased rune by rune, with edge apostrophes trimmed.
func refTokenize(text string) []string {
	tokens := make([]string, 0, len(text)/6)
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := strings.Trim(b.String(), "'")
		if tok != "" {
			tokens = append(tokens, tok)
		}
		b.Reset()
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'':
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// refShingleHashes is the text-level shingle hasher over refTokenize.
func refShingleHashes(text string, k int) []uint64 {
	toks := refTokenize(text)
	if k <= 0 || len(toks) < k {
		return nil
	}
	var out []uint64
	for i := 0; i+k <= len(toks); i++ {
		h := uint64(14695981039346656037)
		for _, c := range []byte(strings.Join(toks[i:i+k], " ")) {
			h ^= uint64(c)
			h *= 1099511628211
		}
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	dst := out[:0]
	for i, h := range out {
		if i == 0 || h != out[i-1] {
			dst = append(dst, h)
		}
	}
	return dst
}

// refTerms is the classifier chain over refTokenize.
func refTerms(text string) []string {
	var out []string
	for _, t := range refTokenize(text) {
		if !IsStopword(t) {
			out = append(out, Stem(t))
		}
	}
	return out
}

var scannerSeeds = []string{
	"",
	"   ",
	"Hello, World! It's 2010.",
	"'quoted' don't '' 'a' '''",
	"Café blogs über ALLES — ÉTÉ İstanbul ǅemal Σίσυφος",
	"digits ٣٤٥ and ²³ mixed with x1y2 and 42",
	"the players were running to the stadium's cities",
	"bad utf8 \xff\xfe here\xc3 and \xe2\x80\x99curly\xe2\x80\x99 quotes",
	"tabs\tnew\nlines\r\nand_under-scores",
	"a b c d a b c d e f",
}

// checkScan compares one Scan against the reference: tokens, word count,
// shingle hashes for several k, and terms.
func checkScan(t *testing.T, s *Scanner, text string) {
	t.Helper()
	got := s.Scan(text)
	want := refTokenize(text)
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("Scan(%q) = %q, reference %q", text, got, want)
	}
	for _, k := range []int{1, 2, 4} {
		g, w := ShingleHashes(got, k), refShingleHashes(text, k)
		if len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
			t.Fatalf("ShingleHashes(%q, %d) = %v, reference %v", text, k, g, w)
		}
	}
	if g, w := Terms(got), refTerms(text); len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
		t.Fatalf("Terms(%q) = %q, reference %q", text, g, w)
	}
}

func TestScannerMatchesReference(t *testing.T) {
	var s Scanner // reused across texts, as an analysis worker does
	for _, text := range scannerSeeds {
		checkScan(t, &s, text)
	}
	if got := WordCount(scannerSeeds[2]); got != 4 {
		t.Fatalf("WordCount = %d, want 4", got)
	}
}

// TestScannerTokensOutliveReuse checks that tokens handed out by one Scan
// keep their bytes after later Scans reuse the scanner's buffers.
func TestScannerTokensOutliveReuse(t *testing.T) {
	var s Scanner
	first := append([]string(nil), s.Scan("Alpha BETA gamma")...)
	s.Scan("overwrite every byte of the buffer with something else entirely")
	if want := []string{"alpha", "beta", "gamma"}; !reflect.DeepEqual(first, want) {
		t.Fatalf("tokens after reuse = %q, want %q", first, want)
	}
}

// TestScanAllocs pins the scanner's cost: one allocation per text (its
// token string) once the buffers have grown.
func TestScanAllocs(t *testing.T) {
	var s Scanner
	text := "The Players were RUNNING to the stadium, über-fast; it's 2010!"
	s.Scan(text)
	if n := testing.AllocsPerRun(100, func() { s.Scan(text) }); n > 1 {
		t.Fatalf("Scan allocates %v times per text, want at most 1", n)
	}
}

// FuzzScanner checks a reused Scanner against the reference tokenizer,
// word count, shingle hasher and term chain on arbitrary input.
func FuzzScanner(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add(s)
	}
	var s Scanner
	f.Fuzz(func(t *testing.T, text string) {
		checkScan(t, &s, text)
		if got, want := WordCount(text), len(refTokenize(text)); got != want {
			t.Fatalf("WordCount(%q) = %d, reference %d", text, got, want)
		}
	})
}
