package topic

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mass/internal/classify"
	"mass/internal/lexicon"
	"mass/internal/synth"
)

// threeDomainDocs builds clearly separable documents from three domain
// vocabularies and returns (docs, true labels).
func threeDomainDocs(perDomain int) ([]string, []string) {
	var docs, labels []string
	for _, d := range []string{lexicon.Sports, lexicon.Economics, lexicon.Art} {
		vocab := lexicon.Vocabulary(d)
		for i := 0; i < perDomain; i++ {
			words := make([]string, 0, 15)
			for j := 0; j < 15; j++ {
				words = append(words, vocab[(i*7+j*3)%len(vocab)])
			}
			docs = append(docs, strings.Join(words, " "))
			labels = append(labels, d)
		}
	}
	return docs, labels
}

func TestDiscoverValidation(t *testing.T) {
	if _, err := Discover(nil, Config{K: 2}); err == nil {
		t.Fatal("too few docs must error")
	}
	if _, err := Discover([]string{"a", "b", "c"}, Config{K: 1}); err == nil {
		t.Fatal("K < 2 must error")
	}
}

func TestDiscoverSeparatesDomains(t *testing.T) {
	docs, labels := threeDomainDocs(15)
	m, err := Discover(docs, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	purity, err := m.Purity(labels)
	if err != nil {
		t.Fatal(err)
	}
	if purity < 0.9 {
		t.Fatalf("purity = %.2f, want >= 0.9 on separable domains", purity)
	}
	// Each topic must be non-empty and labeled by vocabulary terms.
	for _, topic := range m.Topics {
		if topic.Size == 0 {
			t.Fatalf("empty topic %q", topic.Label)
		}
		if len(topic.Terms) == 0 || topic.Label == "" {
			t.Fatalf("unlabeled topic: %+v", topic)
		}
	}
}

func TestDiscoverDeterministic(t *testing.T) {
	docs, _ := threeDomainDocs(10)
	m1, err := Discover(docs, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Discover(docs, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Assignments {
		if m1.Assignments[i] != m2.Assignments[i] {
			t.Fatal("same seed must give identical clustering")
		}
	}
}

// TestDiscoverReproducible: equal documents and seed give deeply equal
// models — assignments, labels and every centroid weight — on a corpus
// with enough near-ties that map-ordered float sums used to flip them.
func TestDiscoverReproducible(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 2025, Bloggers: 60, Posts: 400})
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, pid := range corpus.Snapshot().PostIDs() {
		docs = append(docs, corpus.Posts[pid].Body)
	}
	first, err := Discover(docs, Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		m, err := Discover(docs, Config{K: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, m) {
			t.Fatalf("run %d: same documents and seed gave a different model", run+2)
		}
	}
}

func TestModelIsClassifier(t *testing.T) {
	docs, _ := threeDomainDocs(10)
	m, err := Discover(docs, Config{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var cl classify.Classifier = m
	dist := classify.Classify(cl, "the basketball stadium hosted the championship playoff")
	var sum float64
	for _, p := range dist {
		if p < 0 {
			t.Fatalf("negative posterior: %v", dist)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posterior sums to %v", sum)
	}
	// The sports topic must win; find it by its label containing a
	// sports vocabulary term.
	top, _ := classify.Top(dist)
	sportsVocab := map[string]bool{}
	for _, w := range lexicon.Vocabulary(lexicon.Sports) {
		sportsVocab[w] = true
	}
	found := false
	for _, term := range strings.Split(top, "/") {
		// Labels are stemmed terms; check prefix match against vocab.
		for w := range sportsVocab {
			if strings.HasPrefix(w, term) || strings.HasPrefix(term, w) {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("sports text classified into topic %q", top)
	}
}

func TestClassifyNoOverlapUniform(t *testing.T) {
	docs, _ := threeDomainDocs(5)
	m, err := Discover(docs, Config{K: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dist := classify.Classify(m, "zzz qqq www")
	for _, p := range dist {
		if math.Abs(p-1.0/float64(len(dist))) > 1e-9 {
			t.Fatalf("no-overlap text must be uniform: %v", dist)
		}
	}
}

func TestPurityErrors(t *testing.T) {
	docs, _ := threeDomainDocs(5)
	m, err := Discover(docs, Config{K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Purity([]string{"x"}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestDiscoverOnSyntheticPosts(t *testing.T) {
	// End-to-end: discover topics directly from synthetic blog posts and
	// check they align with the planted domains.
	corpus, _, err := synth.Generate(synth.Config{Seed: 61, Bloggers: 60, Posts: 300})
	if err != nil {
		t.Fatal(err)
	}
	var docs, labels []string
	for _, pid := range corpus.Snapshot().PostIDs() {
		p := corpus.Posts[pid]
		docs = append(docs, p.Body)
		labels = append(labels, p.TrueDomain)
	}
	m, err := Discover(docs, Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	purity, err := m.Purity(labels)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic posts carry shared filler, so purity is below the clean
	// case but must still far exceed the 10-way chance level (~0.1; the
	// largest-class baseline is also near 0.1 with round-robin domains).
	if purity < 0.5 {
		t.Fatalf("post purity = %.2f, want >= 0.5", purity)
	}
}
