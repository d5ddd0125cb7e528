package classify

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mass/internal/lexicon"
	"mass/internal/textutil"
)

// trainingSet builds a small, clearly separable corpus from the domain
// vocabularies: each example is a run of words from one domain.
func trainingSet(perDomain int) []Example {
	var out []Example
	for _, d := range []string{lexicon.Sports, lexicon.Economics, lexicon.Computer} {
		vocab := lexicon.Vocabulary(d)
		for i := 0; i < perDomain; i++ {
			words := make([]string, 0, 12)
			for j := 0; j < 12; j++ {
				words = append(words, vocab[(i*7+j*3)%len(vocab)])
			}
			out = append(out, Example{Text: strings.Join(words, " "), Label: d})
		}
	}
	return out
}

func TestTrainNaiveBayesErrors(t *testing.T) {
	if _, err := TrainNaiveBayes(nil); err == nil {
		t.Fatal("empty training set must error")
	}
	if _, err := TrainNaiveBayes([]Example{{Text: "x", Label: ""}}); err == nil {
		t.Fatal("empty label must error")
	}
}

func TestNaiveBayesSeparable(t *testing.T) {
	nb, err := TrainNaiveBayes(trainingSet(10))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"the basketball playoff score and the stadium coach": lexicon.Sports,
		"inflation recession market stock finance bank":      lexicon.Economics,
		"compiler algorithm database kernel software code":   lexicon.Computer,
	}
	for text, want := range cases {
		top, p := Top(Classify(nb, text))
		if top != want {
			t.Errorf("Classify(%q) top = %s (p=%.3f), want %s", text, top, p, want)
		}
		if p < 0.5 {
			t.Errorf("Classify(%q) confidence %.3f too low", text, p)
		}
	}
}

func TestNaiveBayesPosteriorSumsToOne(t *testing.T) {
	nb, err := TrainNaiveBayes(trainingSet(5))
	if err != nil {
		t.Fatal(err)
	}
	dist := Classify(nb, "a mystery document about nothing in particular")
	var sum float64
	for _, p := range dist {
		if p < 0 {
			t.Fatalf("negative posterior: %v", dist)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("posteriors sum to %v", sum)
	}
	if len(dist) != 3 {
		t.Fatalf("want 3 labels, got %v", dist)
	}
}

func TestNaiveBayesLabelsSorted(t *testing.T) {
	nb, err := TrainNaiveBayes(trainingSet(3))
	if err != nil {
		t.Fatal(err)
	}
	labels := nb.Labels()
	for i := 1; i < len(labels); i++ {
		if labels[i-1] >= labels[i] {
			t.Fatalf("labels not sorted: %v", labels)
		}
	}
	if nb.VocabularySize() == 0 {
		t.Fatal("vocabulary must be non-empty")
	}
}

func TestNaiveBayesPriorEffect(t *testing.T) {
	// With an empty document, posterior equals the prior distribution.
	ex := []Example{
		{Text: "alpha beta", Label: "X"},
		{Text: "alpha beta", Label: "X"},
		{Text: "gamma delta", Label: "Y"},
	}
	nb, err := TrainNaiveBayes(ex)
	if err != nil {
		t.Fatal(err)
	}
	dist := Classify(nb, "")
	if math.Abs(dist["X"]-2.0/3) > 1e-9 || math.Abs(dist["Y"]-1.0/3) > 1e-9 {
		t.Fatalf("empty-doc posterior = %v, want prior (2/3, 1/3)", dist)
	}
}

func TestNaiveBayesBigrams(t *testing.T) {
	nb, err := TrainNaiveBayesBigrams(trainingSet(10))
	if err != nil {
		t.Fatal(err)
	}
	// Still separable with bigram features.
	top, _ := Top(Classify(nb, "basketball playoff stadium coach"))
	if top != lexicon.Sports {
		t.Fatalf("bigram NB top = %s, want Sports", top)
	}
	// Bigram vocabulary is strictly larger than unigram.
	uni, err := TrainNaiveBayes(trainingSet(10))
	if err != nil {
		t.Fatal(err)
	}
	if nb.VocabularySize() <= uni.VocabularySize() {
		t.Fatalf("bigram vocab %d must exceed unigram %d",
			nb.VocabularySize(), uni.VocabularySize())
	}
	// Posterior is still a distribution.
	dist := Classify(nb, "anything at all")
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("bigram posterior sums to %v", sum)
	}
}

func TestBigramFeatureConstruction(t *testing.T) {
	got := features(textutil.Terms(textutil.Tokenize("stock market rally")), true)
	want := map[string]bool{"stock": true, "market": true, "rally": true,
		"stock_market": true, "market_rally": true}
	if len(got) != len(want) {
		t.Fatalf("features = %v", got)
	}
	for _, f := range got {
		if !want[f] {
			t.Fatalf("unexpected feature %q in %v", f, got)
		}
	}
	// Training interns exactly those five features.
	nb, err := TrainNaiveBayesBigrams([]Example{{Text: "stock market rally", Label: "X"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := nb.VocabularySize(); got != 5 {
		t.Fatalf("VocabularySize = %d, want 5 (3 terms + 2 bigrams)", got)
	}
}

func TestCentroidSeparable(t *testing.T) {
	c, err := TrainCentroid(trainingSet(10))
	if err != nil {
		t.Fatal(err)
	}
	top, _ := Top(Classify(c, "marathon olympics athlete medal sprint"))
	if top != lexicon.Sports {
		t.Fatalf("centroid top = %s, want Sports", top)
	}
}

func TestCentroidUnknownTextUniform(t *testing.T) {
	c, err := TrainCentroid(trainingSet(3))
	if err != nil {
		t.Fatal(err)
	}
	dist := Classify(c, "zzzz qqqq wwww")
	for _, p := range dist {
		if math.Abs(p-1.0/3) > 1e-9 {
			t.Fatalf("unknown text must be uniform: %v", dist)
		}
	}
}

func TestCentroidErrors(t *testing.T) {
	if _, err := TrainCentroid(nil); err == nil {
		t.Fatal("empty training set must error")
	}
	if _, err := TrainCentroid([]Example{{Text: "x"}}); err == nil {
		t.Fatal("empty label must error")
	}
}

func TestTopEmpty(t *testing.T) {
	if l, p := Top(nil); l != "" || p != 0 {
		t.Fatalf("Top(nil) = %q, %v", l, p)
	}
}

func TestTopDeterministicTies(t *testing.T) {
	l, _ := Top(map[string]float64{"b": 0.5, "a": 0.5})
	if l != "a" {
		t.Fatalf("tie must break alphabetically, got %q", l)
	}
}

func TestAccuracy(t *testing.T) {
	nb, err := TrainNaiveBayes(trainingSet(10))
	if err != nil {
		t.Fatal(err)
	}
	test := trainingSet(4)
	acc := Accuracy(nb, test)
	if acc < 0.9 {
		t.Fatalf("training-domain accuracy = %v, want >= 0.9", acc)
	}
	if Accuracy(nb, nil) != 0 {
		t.Fatal("Accuracy on empty test set must be 0")
	}
}

func TestCrossValidate(t *testing.T) {
	ex := trainingSet(10)
	accs, err := CrossValidate(ex, 5, func(tr []Example) (Classifier, error) {
		return TrainNaiveBayes(tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 5 {
		t.Fatalf("want 5 folds, got %d", len(accs))
	}
	var mean float64
	for _, a := range accs {
		mean += a
	}
	mean /= 5
	if mean < 0.8 {
		t.Fatalf("mean CV accuracy = %v, want >= 0.8", mean)
	}
	if _, err := CrossValidate(ex, 1, nil); err == nil {
		t.Fatal("k=1 must error")
	}
	if _, err := CrossValidate(ex[:2], 5, nil); err == nil {
		t.Fatal("n < k must error")
	}
}

// Property: both classifiers always return a proper distribution over the
// trained labels for arbitrary input text.
func TestClassifierDistributionProperty(t *testing.T) {
	nb, err := TrainNaiveBayes(trainingSet(5))
	if err != nil {
		t.Fatal(err)
	}
	cen, err := TrainCentroid(trainingSet(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []Classifier{nb, cen} {
		f := func(text string) bool {
			dist := Classify(cl, text)
			if len(dist) != len(cl.Labels()) {
				return false
			}
			var sum float64
			for _, p := range dist {
				if p < 0 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			return math.Abs(sum-1) < 1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	}
}
