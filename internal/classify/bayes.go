// Package classify implements the Post Analyzer of MASS: text classifiers
// that estimate iv(b,d,Ct), the probability that a post belongs to each
// interest domain. The paper uses a multinomial naive Bayes classifier [7];
// a TF-IDF nearest-centroid classifier is provided as the pluggable
// alternative the paper mentions ("other interests mining methods can also
// be plugged into our system").
package classify

import (
	"fmt"
	"math"
	"sort"

	"mass/internal/textutil"
)

// Classifier estimates a probability distribution over domain labels for
// a text from its tokens (textutil.Tokenize, or the Scanner of a worker
// that tokenized the text for its other facets), into the caller's
// buffer. Implementations must be safe for concurrent use; every
// classifier here is immutable after training.
type Classifier interface {
	// Labels returns the trained label set in sorted order, each once.
	Labels() []string
	// Posterior writes P(label | text) into dst, one slot per label in
	// Labels() order, summing to 1 (within floating-point error).
	Posterior(tokens []string, dst []float64)
}

// Classify returns cl's posterior for text keyed by label: the map form
// read by the callers that hold a text rather than its tokens (the API's
// classify route, recommendations, evaluation and the experiments).
func Classify(cl Classifier, text string) map[string]float64 {
	labels := cl.Labels()
	p := make([]float64, len(labels))
	cl.Posterior(textutil.Tokenize(text), p)
	out := make(map[string]float64, len(labels))
	for i, l := range labels {
		out[l] = p[i]
	}
	return out
}

// Example is one labeled training document.
type Example struct {
	Text  string
	Label string
}

// NaiveBayes is a multinomial naive Bayes text classifier with Laplace
// smoothing, trained over the stemmed-term analyzer chain, optionally
// augmented with bigram features. Its vocabulary is interned into dense
// term IDs, so the likelihood tables are one slice per label.
type NaiveBayes struct {
	labels []string
	prior  []float64 // log P(label), per label
	// condLog holds log P(term|label) per label and term ID, plus a last
	// slot (ID VocabularySize()) for every term outside the vocabulary.
	condLog [][]float64
	terms   map[string]int32 // feature (stemmed term or bigram) → ID
	bigrams bool
}

// TrainNaiveBayes fits the classifier on the examples with unigram
// features. It returns an error when there are no examples or an example
// has an empty label.
func TrainNaiveBayes(examples []Example) (*NaiveBayes, error) {
	return trainNB(examples, false)
}

// TrainNaiveBayesBigrams fits the classifier with unigram + bigram
// features. Bigrams capture collocations ("interest rate" vs "interest
// group") at the cost of a larger model; on short posts the gain is
// usually small (see ExperimentClassifier).
func TrainNaiveBayesBigrams(examples []Example) (*NaiveBayes, error) {
	return trainNB(examples, true)
}

func trainNB(examples []Example, bigrams bool) (*NaiveBayes, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("classify: no training examples")
	}
	nb := &NaiveBayes{terms: map[string]int32{}, bigrams: bigrams}
	docs := map[string]int{}
	counts := map[string][]float64{} // label → count per term ID, grown as terms are interned
	totals := map[string]float64{}
	var sc textutil.Scanner
	for i, ex := range examples {
		if ex.Label == "" {
			return nil, fmt.Errorf("classify: example %d has empty label", i)
		}
		if docs[ex.Label]++; docs[ex.Label] == 1 {
			nb.labels = append(nb.labels, ex.Label)
		}
		c := counts[ex.Label]
		for _, t := range features(textutil.Terms(sc.Scan(ex.Text)), bigrams) {
			id, ok := nb.terms[t]
			if !ok {
				id = int32(len(nb.terms))
				nb.terms[t] = id
			}
			c = append(c, make([]float64, max(0, int(id)+1-len(c)))...)
			c[id]++
			totals[ex.Label]++
		}
		counts[ex.Label] = c
	}
	sort.Strings(nb.labels)
	v := len(nb.terms)
	for _, l := range nb.labels {
		nb.prior = append(nb.prior, math.Log(float64(docs[l])/float64(len(examples))))
		denom := totals[l] + float64(v) // Laplace smoothing
		// A term the label never saw, known or not, gets log(1/denom).
		cond := append(counts[l], make([]float64, v+1-len(counts[l]))...)
		for id, c := range cond {
			cond[id] = math.Log((c + 1) / denom)
		}
		nb.condLog = append(nb.condLog, cond)
	}
	return nb, nil
}

// features appends to terms, when bigrams is set, each adjacent pair
// joined with '_' (terms never contain one).
func features(terms []string, bigrams bool) []string {
	for k, n := 1, len(terms); bigrams && k < n; k++ {
		terms = append(terms, terms[k-1]+"_"+terms[k])
	}
	return terms
}

// Labels returns the trained label set in sorted order.
func (nb *NaiveBayes) Labels() []string { return nb.labels }

// VocabularySize returns the number of distinct terms seen in training.
func (nb *NaiveBayes) VocabularySize() int { return len(nb.terms) }

// Posterior writes the posterior distribution over labels into dst. Every
// label sums its log-likelihoods over the text's features in training
// order — terms, then bigrams — and log-likelihoods are converted back to
// probabilities with the log-sum-exp trick so the result is a proper
// distribution even for long documents.
func (nb *NaiveBayes) Posterior(tokens []string, dst []float64) {
	copy(dst, nb.prior)
	add := func(term string) {
		id, ok := nb.terms[term]
		if !ok {
			id = int32(len(nb.terms))
		}
		for l, cond := range nb.condLog {
			dst[l] += cond[id]
		}
	}
	if nb.bigrams {
		for _, t := range features(textutil.Terms(tokens), true) {
			add(t)
		}
	} else { // the terms, without materializing them
		for _, tok := range tokens {
			if !textutil.IsStopword(tok) {
				add(textutil.Stem(tok))
			}
		}
	}
	softmaxLogs(dst)
}

// softmaxLogs converts log-probabilities to a normalized distribution in
// place.
func softmaxLogs(logp []float64) {
	maxLog := math.Inf(-1)
	for _, lp := range logp {
		if lp > maxLog {
			maxLog = lp
		}
	}
	var sum float64
	for i, lp := range logp {
		logp[i] = math.Exp(lp - maxLog)
		sum += logp[i]
	}
	for i := range logp {
		logp[i] /= sum
	}
}

// Top returns the label with the highest posterior (ties broken
// alphabetically) and its probability.
func Top(dist map[string]float64) (string, float64) {
	best, bestP := "", math.Inf(-1)
	labels := make([]string, 0, len(dist))
	for l := range dist {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if dist[l] > bestP {
			best, bestP = l, dist[l]
		}
	}
	if best == "" {
		return "", 0
	}
	return best, bestP
}
