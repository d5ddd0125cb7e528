package classify_test

import (
	"math"
	"sort"
	"testing"

	"mass/internal/classify"
	"mass/internal/synth"
	"mass/internal/textutil"
)

// refNaiveBayes is the string-keyed reference naive Bayes, the oracle for
// the interned model: per-label maps from feature string to
// log-likelihood, features re-derived from the text, and a posterior map
// per call.
type refNaiveBayes struct {
	labels     []string
	prior      map[string]float64
	condLog    map[string]map[string]float64
	defaultLog map[string]float64
	bigrams    bool
}

func refFeatures(text string, bigrams bool) []string {
	terms := textutil.Terms(textutil.Tokenize(text))
	if !bigrams {
		return terms
	}
	out := append([]string(nil), terms...)
	for i := 1; i < len(terms); i++ {
		out = append(out, terms[i-1]+"_"+terms[i])
	}
	return out
}

func trainRef(examples []classify.Example, bigrams bool) *refNaiveBayes {
	docCount := map[string]int{}
	termCount := map[string]map[string]float64{}
	totalTerms := map[string]float64{}
	vocab := map[string]struct{}{}
	for _, ex := range examples {
		docCount[ex.Label]++
		if termCount[ex.Label] == nil {
			termCount[ex.Label] = map[string]float64{}
		}
		for _, t := range refFeatures(ex.Text, bigrams) {
			termCount[ex.Label][t]++
			totalTerms[ex.Label]++
			vocab[t] = struct{}{}
		}
	}
	nb := &refNaiveBayes{
		prior:      map[string]float64{},
		condLog:    map[string]map[string]float64{},
		defaultLog: map[string]float64{},
		bigrams:    bigrams,
	}
	v := float64(len(vocab))
	total := float64(len(examples))
	for label, dc := range docCount {
		nb.labels = append(nb.labels, label)
		nb.prior[label] = math.Log(float64(dc) / total)
		denom := totalTerms[label] + v
		cond := map[string]float64{}
		for t, c := range termCount[label] {
			cond[t] = math.Log((c + 1) / denom)
		}
		nb.condLog[label] = cond
		nb.defaultLog[label] = math.Log(1 / denom)
	}
	sort.Strings(nb.labels)
	return nb
}

func (nb *refNaiveBayes) classify(text string) map[string]float64 {
	terms := refFeatures(text, nb.bigrams)
	logp := make([]float64, len(nb.labels))
	maxLog := math.Inf(-1)
	for i, label := range nb.labels {
		lp := nb.prior[label]
		for _, t := range terms {
			if c, ok := nb.condLog[label][t]; ok {
				lp += c
			} else {
				lp += nb.defaultLog[label]
			}
		}
		logp[i] = lp
		maxLog = max(maxLog, lp)
	}
	out := map[string]float64{}
	var sum float64
	for i, label := range nb.labels {
		out[label] = math.Exp(logp[i] - maxLog)
		sum += out[label]
	}
	for l := range out {
		out[l] /= sum
	}
	return out
}

// TestNaiveBayesMatchesReferenceBits checks that on every post and
// profile of a synth corpus the interned model's posterior has exactly
// the reference's bits, for the unigram and the bigram model.
func TestNaiveBayesMatchesReferenceBits(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 11, Bloggers: 60, Posts: 400})
	if err != nil {
		t.Fatal(err)
	}
	snap := corpus.Snapshot()
	var texts []string
	for _, id := range snap.PostIDs() {
		p := snap.Post(id)
		texts = append(texts, p.Body, p.Title)
	}
	texts = append(texts, "", "zzz unknown words only", "the and of")
	examples := synth.TrainingExamples(nil, 30, 1)
	for _, bigrams := range []bool{false, true} {
		train := classify.TrainNaiveBayes
		if bigrams {
			train = classify.TrainNaiveBayesBigrams
		}
		nb, err := train(examples)
		if err != nil {
			t.Fatal(err)
		}
		ref := trainRef(examples, bigrams)
		var sc textutil.Scanner
		dst := make([]float64, len(nb.Labels()))
		for _, text := range texts {
			nb.Posterior(sc.Scan(text), dst)
			want := ref.classify(text)
			for i, label := range nb.Labels() {
				if math.Float64bits(dst[i]) != math.Float64bits(want[label]) {
					t.Fatalf("bigrams=%v: P(%s | %.40q) = %v, reference %v", bigrams, label, text, dst[i], want[label])
				}
			}
		}
	}
}
