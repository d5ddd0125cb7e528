package classify

import (
	"fmt"
	"math"
	"sort"

	"mass/internal/textutil"
)

// Centroid is a TF-IDF nearest-centroid (Rocchio) classifier: each label is
// represented by the IDF-weighted mean of its training documents, and a new
// document is scored by cosine similarity to each centroid, normalized to a
// distribution. It is the pluggable alternative to NaiveBayes.
type Centroid struct {
	labels    []string
	idf       map[string]float64
	centroids map[string]textutil.TermVector
}

// TrainCentroid fits the centroid classifier.
func TrainCentroid(examples []Example) (*Centroid, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("classify: no training examples")
	}
	df := map[string]int{}
	docs := make([]textutil.TermVector, len(examples))
	for i, ex := range examples {
		if ex.Label == "" {
			return nil, fmt.Errorf("classify: example %d has empty label", i)
		}
		v := textutil.NewTermVector(textutil.Tokenize(ex.Text))
		docs[i] = v
		for t := range v {
			df[t]++
		}
	}
	n := float64(len(examples))
	c := &Centroid{
		idf:       make(map[string]float64, len(df)),
		centroids: map[string]textutil.TermVector{},
	}
	for t, d := range df {
		c.idf[t] = math.Log(1 + n/float64(d))
	}
	counts := map[string]float64{}
	for i, ex := range examples {
		if c.centroids[ex.Label] == nil {
			c.centroids[ex.Label] = textutil.TermVector{}
			c.labels = append(c.labels, ex.Label)
		}
		cen := c.centroids[ex.Label]
		for t, tf := range docs[i] {
			cen[t] += tf * c.idf[t]
		}
		counts[ex.Label]++
	}
	for label, cen := range c.centroids {
		k := counts[label]
		for t := range cen {
			cen[t] /= k
		}
	}
	sort.Strings(c.labels)
	return c, nil
}

// Labels returns the trained label set in sorted order.
func (c *Centroid) Labels() []string { return c.labels }

// Posterior writes cosine similarities to each centroid, normalized into
// a distribution, into dst. A document with no overlap anywhere gets the
// uniform distribution.
func (c *Centroid) Posterior(tokens []string, dst []float64) {
	weighted := textutil.TermVector{}
	for t, tf := range textutil.NewTermVector(tokens) {
		if idf, ok := c.idf[t]; ok {
			weighted[t] = tf * idf
		}
	}
	var sum float64
	for i, label := range c.labels {
		dst[i] = weighted.Cosine(c.centroids[label])
		sum += dst[i]
	}
	for i := range dst {
		if sum == 0 {
			dst[i] = 1 / float64(len(dst))
		} else {
			dst[i] /= sum
		}
	}
}

// Accuracy evaluates a classifier on labeled test examples, returning the
// fraction whose top posterior matches the true label.
func Accuracy(cl Classifier, test []Example) float64 {
	if len(test) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range test {
		if top, _ := Top(Classify(cl, ex.Text)); top == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(test))
}

// CrossValidate runs k-fold cross-validation with the given trainer and
// returns per-fold accuracies. Examples are assigned to folds round-robin
// in input order (the caller shuffles if desired), so results are
// deterministic.
func CrossValidate(examples []Example, k int, train func([]Example) (Classifier, error)) ([]float64, error) {
	if k < 2 || len(examples) < k {
		return nil, fmt.Errorf("classify: need k >= 2 and at least k examples (k=%d, n=%d)", k, len(examples))
	}
	accs := make([]float64, k)
	for fold := 0; fold < k; fold++ {
		var trainSet, testSet []Example
		for i, ex := range examples {
			if i%k == fold {
				testSet = append(testSet, ex)
			} else {
				trainSet = append(trainSet, ex)
			}
		}
		cl, err := train(trainSet)
		if err != nil {
			return nil, fmt.Errorf("classify: fold %d: %w", fold, err)
		}
		accs[fold] = Accuracy(cl, testSet)
	}
	return accs, nil
}
