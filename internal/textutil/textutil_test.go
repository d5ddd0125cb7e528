package textutil

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Hello, World! It's 2010.")
	want := []string{"hello", "world", "it's", "2010"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(empty) = %v, want empty", got)
	}
	if got := Tokenize("!!! ... ---"); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v, want empty", got)
	}
}

func TestTokenizeApostropheEdges(t *testing.T) {
	got := Tokenize("'quoted' don't ''")
	want := []string{"quoted", "don't"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Café blogs über ALLES")
	want := []string{"café", "blogs", "über", "alles"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestStopwords(t *testing.T) {
	if !IsStopword("the") || !IsStopword("and") {
		t.Fatal("expected 'the' and 'and' to be stopwords")
	}
	if IsStopword("basketball") {
		t.Fatal("'basketball' must not be a stopword")
	}
	got := Terms([]string{"the", "quick", "and", "lazy", "fox"})
	want := []string{"quick", "lazy", "fox"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"running":  "runn",
		"played":   "play",
		"cities":   "city",
		"dogs":     "dog",
		"classes":  "class",
		"class":    "class",
		"bus":      "bus",
		"go":       "go",
		"economy":  "economy",
		"posts":    "post",
		"blogging": "blogg",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemKeepsShortTokens(t *testing.T) {
	for _, tok := range []string{"as", "is", "s", ""} {
		if got := Stem(tok); got != tok {
			t.Errorf("Stem(%q) = %q, want unchanged", tok, got)
		}
	}
}

func TestTermsChain(t *testing.T) {
	got := Terms(Tokenize("The players were running fast"))
	want := []string{"player", "runn", "fast"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestWordCount(t *testing.T) {
	if got := WordCount("one two three"); got != 3 {
		t.Fatalf("WordCount = %d, want 3", got)
	}
	if got := WordCount(""); got != 0 {
		t.Fatalf("WordCount(empty) = %d, want 0", got)
	}
}

func TestTermVectorDotCosine(t *testing.T) {
	a := TermVector{"x": 1, "y": 2}
	b := TermVector{"y": 3, "z": 4}
	if got := a.Dot(b); got != 6 {
		t.Fatalf("Dot = %v, want 6", got)
	}
	cos := a.Cosine(b)
	want := 6 / (math.Sqrt(5) * 5)
	if math.Abs(cos-want) > 1e-12 {
		t.Fatalf("Cosine = %v, want %v", cos, want)
	}
}

func TestCosineEmpty(t *testing.T) {
	if got := (TermVector{}).Cosine(TermVector{"a": 1}); got != 0 {
		t.Fatalf("Cosine(empty, x) = %v, want 0", got)
	}
}

func TestTermVectorAdd(t *testing.T) {
	a := TermVector{"x": 1}
	a.Add(TermVector{"x": 2, "y": 1}, 0.5)
	if a["x"] != 2 || a["y"] != 0.5 {
		t.Fatalf("Add result = %v", a)
	}
}

func TestShingles(t *testing.T) {
	s := ShingleHashes(Tokenize("a b c d"), 2)
	if len(s) != 3 {
		t.Fatalf("len(ShingleHashes) = %d, want 3", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatalf("hashes not strictly ascending: %v", s)
		}
	}
	// Each shingle hashes as the text of that shingle alone does.
	for _, key := range []string{"a b", "b c", "c d"} {
		h := ShingleHashes(Tokenize(key), 2)
		if len(h) != 1 || !slices.Contains(s, h[0]) {
			t.Errorf("missing shingle %q", key)
		}
	}
	if got := ShingleHashes(Tokenize("a b a b"), 2); len(got) != 2 {
		t.Fatalf("repeated shingle must be deduplicated: %v", got)
	}
	if len(ShingleHashes(Tokenize("a"), 2)) != 0 {
		t.Fatal("short text must produce no shingles")
	}
	if len(ShingleHashes(Tokenize("a b"), 0)) != 0 {
		t.Fatal("k=0 must produce no shingles")
	}
}

// Property: tokenization output never contains uppercase or separators.
func TestTokenizePropertyLowercaseNoSeps(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" || tok != strings.ToLower(tok) {
				return false
			}
			if strings.ContainsAny(tok, " \t\n.,!?") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and Cosine stays within [0, 1+ε] for
// non-negative term frequencies (as produced by NewTermVector).
func TestVectorPropertySymmetry(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := NewTermVector(Tokenize(a)), NewTermVector(Tokenize(b))
		if va.Dot(vb) != vb.Dot(va) {
			return false
		}
		c := va.Cosine(vb)
		return c >= 0 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: stemming never empties a token and never grows it by more
// than one rune (the "ies"→"y" rule shrinks; nothing extends length).
func TestStemPropertyLength(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			st := Stem(tok)
			if st == "" && tok != "" {
				return false
			}
			if len(st) > len(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
