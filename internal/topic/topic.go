// Package topic implements automatic domain discovery, the alternative to
// predefined domains the paper mentions in §II: "The domains can be
// predefined by the business applications or automatically discovered
// using existing topic discovery techniques [6]."
//
// Discovery is spherical k-means over TF-IDF document vectors with
// deterministic k-means++-style seeding: documents cluster by cosine
// similarity, each cluster becomes a domain, and the cluster's top terms
// become its label. The discovered domains plug into the rest of MASS
// through the same Classifier interface as the predefined ones.
//
// The vocabulary is interned once, in sorted term order, and every
// similarity sums over term indices in ascending order. Floating-point
// sums therefore never depend on map iteration order, so equal seeds give
// bit-identical models.
package topic

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"mass/internal/classify"
	"mass/internal/textutil"
)

// Config tunes discovery.
type Config struct {
	// K is the number of topics to discover. Required, >= 2.
	K int
	// Seed drives centroid initialization; equal seeds give equal topics.
	Seed int64
	// MaxIter bounds Lloyd iterations. Default 50.
	MaxIter int
	// LabelTerms is how many top terms name each topic. Default 3.
	LabelTerms int
	// MinDocFreq prunes terms appearing in fewer documents. Default 2.
	MinDocFreq int
	// Restarts runs Lloyd from several seedings and keeps the clustering
	// with the highest within-cluster cohesion. Default 4.
	Restarts int
}

func (c Config) withDefaults() Config {
	if c.MaxIter == 0 {
		c.MaxIter = 50
	}
	if c.LabelTerms == 0 {
		c.LabelTerms = 3
	}
	if c.MinDocFreq == 0 {
		c.MinDocFreq = 2
	}
	if c.Restarts == 0 {
		c.Restarts = 4
	}
	return c
}

// Topic is one discovered domain.
type Topic struct {
	// Label is the topic's human-readable name: its top terms joined
	// with "/" (e.g. "basketball/stadium/coach").
	Label string
	// Terms are the highest-weight centroid terms.
	Terms []string
	// Size is the number of assigned documents.
	Size int
	// centroid is the TF-IDF mean of member documents.
	centroid centroid
}

// Model is a fitted topic model. It satisfies classify.Classifier so the
// discovered domains can replace the predefined ones anywhere in MASS.
type Model struct {
	Topics []Topic
	vocab  vocabulary
	// Assignments[i] is the topic index of input document i.
	Assignments []int
	// Iterations is how many Lloyd sweeps ran before convergence.
	Iterations int
}

var _ classify.Classifier = (*Model)(nil)

// vocabulary interns the terms that survived document-frequency pruning:
// terms[i] is term i, in sorted order, and idf[i] its inverse document
// frequency.
type vocabulary struct {
	index map[string]int
	terms []string
	idf   []float64
}

// vector is a text's sparse TF-IDF vector over the vocabulary.
func (voc vocabulary) vector(tokens []string) sparse {
	tf := textutil.NewTermVector(tokens)
	var v sparse
	for t := range tf {
		if i, ok := voc.index[t]; ok {
			v.idx = append(v.idx, i)
		}
	}
	slices.Sort(v.idx)
	v.val = make([]float64, len(v.idx))
	var s float64
	for j, i := range v.idx {
		v.val[j] = tf[voc.terms[i]] * voc.idf[i]
		s += v.val[j] * v.val[j]
	}
	v.norm = math.Sqrt(s)
	return v
}

// sparse is a document vector: ascending term indices, their weights, and
// the Euclidean norm.
type sparse struct {
	idx  []int
	val  []float64
	norm float64
}

// dense expands v into a centroid over n terms.
func (v sparse) dense(n int) centroid {
	w := make([]float64, n)
	for j, i := range v.idx {
		w[i] = v.val[j]
	}
	return newCentroid(w)
}

// centroid is a dense vector over the vocabulary and its norm.
type centroid struct {
	w    []float64
	norm float64
}

func newCentroid(w []float64) centroid {
	var s float64
	for _, x := range w {
		s += x * x
	}
	return centroid{w: w, norm: math.Sqrt(s)}
}

// cosine is the cosine similarity of v and c, or 0 when either is empty.
func cosine(v sparse, c centroid) float64 {
	if v.norm == 0 || c.norm == 0 {
		return 0
	}
	var dot float64
	for j, i := range v.idx {
		dot += v.val[j] * c.w[i]
	}
	return dot / (v.norm * c.norm)
}

// topTerms returns the n highest-weight terms of c in descending weight
// order, ties alphabetical.
func (voc vocabulary) topTerms(c centroid, n int) []string {
	var idx []int
	for i, w := range c.w {
		if w != 0 {
			idx = append(idx, i)
		}
	}
	// Indices ascend with the term, so a stable sort by weight breaks ties
	// alphabetically.
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(c.w[b], c.w[a]) })
	out := make([]string, min(n, len(idx)))
	for j := range out {
		out[j] = voc.terms[idx[j]]
	}
	return out
}

// Discover clusters the documents into cfg.K topics.
func Discover(docs []string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 2 {
		return nil, fmt.Errorf("topic: K must be >= 2, got %d", cfg.K)
	}
	if len(docs) < cfg.K {
		return nil, fmt.Errorf("topic: need at least K=%d documents, got %d", cfg.K, len(docs))
	}

	// TF-IDF vectors with document-frequency pruning.
	df := map[string]int{}
	for _, d := range docs {
		for t := range textutil.NewTermVector(textutil.Tokenize(d)) {
			df[t]++
		}
	}
	var voc vocabulary
	for t, d := range df {
		if d >= cfg.MinDocFreq {
			voc.terms = append(voc.terms, t)
		}
	}
	sort.Strings(voc.terms)
	voc.index = make(map[string]int, len(voc.terms))
	voc.idf = make([]float64, len(voc.terms))
	n := float64(len(docs))
	for i, t := range voc.terms {
		voc.index[t] = i
		voc.idf[i] = math.Log(1 + n/float64(df[t]))
	}
	vecs := make([]sparse, len(docs))
	for i, d := range docs {
		vecs[i] = voc.vector(textutil.Tokenize(d))
	}

	// Multi-restart Lloyd: each restart seeds differently (restart 0 uses
	// farthest-point from the longest document; later restarts start from
	// a random document), and the clustering with the best within-cluster
	// cohesion wins. Everything is driven by one seeded RNG, so results
	// are reproducible.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var bestAssign []int
	var bestCentroids []centroid
	bestObj := -1.0
	bestIters := 0
	for r := 0; r < cfg.Restarts; r++ {
		var first int
		if r == 0 {
			first = longestDoc(vecs)
		} else {
			first = rng.Intn(len(vecs))
		}
		seeds := seedCentroids(vecs, len(voc.terms), cfg.K, first, rng)
		assign, centroids, iters := lloyd(vecs, seeds, cfg.MaxIter)
		obj := cohesion(vecs, assign, centroids)
		if obj > bestObj {
			bestObj = obj
			bestAssign = assign
			bestCentroids = centroids
			bestIters = iters
		}
	}

	model := &Model{vocab: voc, Iterations: bestIters}
	assign, centroids := bestAssign, bestCentroids
	model.Assignments = assign
	model.Topics = make([]Topic, cfg.K)
	counts := make([]int, cfg.K)
	for _, a := range assign {
		counts[a]++
	}
	for c := range model.Topics {
		terms := voc.topTerms(centroids[c], cfg.LabelTerms)
		model.Topics[c] = Topic{
			Label:    strings.Join(terms, "/"),
			Terms:    terms,
			Size:     counts[c],
			centroid: centroids[c],
		}
	}
	return model, nil
}

// Labels implements classify.Classifier: the discovered topic labels in
// sorted order, each once.
func (m *Model) Labels() []string {
	out := make([]string, len(m.Topics))
	for i, t := range m.Topics {
		out[i] = t.Label
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// Posterior implements classify.Classifier: cosine similarities to topic
// centroids normalized into a distribution (uniform when no overlap).
// Topics sharing a label add into that label's slot.
func (m *Model) Posterior(tokens []string, dst []float64) {
	v := m.vocab.vector(tokens)
	labels := m.Labels()
	clear(dst)
	var sum float64
	for _, t := range m.Topics {
		s := cosine(v, t.centroid)
		dst[sort.SearchStrings(labels, t.Label)] += s
		sum += s
	}
	for i := range dst {
		if sum == 0 {
			dst[i] = 1 / float64(len(dst))
		} else {
			dst[i] /= sum
		}
	}
}

// Purity scores the clustering against known labels: the fraction of
// documents whose cluster's majority label matches their own. Labels and
// Assignments must align with the Discover input order.
func (m *Model) Purity(labels []string) (float64, error) {
	if len(labels) != len(m.Assignments) {
		return 0, fmt.Errorf("topic: %d labels for %d assignments", len(labels), len(m.Assignments))
	}
	if len(labels) == 0 {
		return 0, fmt.Errorf("topic: empty input")
	}
	majority := make([]map[string]int, len(m.Topics))
	for i := range majority {
		majority[i] = map[string]int{}
	}
	for i, a := range m.Assignments {
		majority[a][labels[i]]++
	}
	correct := 0
	for _, counts := range majority {
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(labels)), nil
}

// lloyd runs k-means assignment/update sweeps until stable (or maxIter),
// with empty clusters reseeded from the worst-fitting document.
func lloyd(vecs []sparse, centroids []centroid, maxIter int) (assign []int, outCentroids []centroid, iters int) {
	k := len(centroids)
	dim := len(centroids[0].w)
	assign = make([]int, len(vecs))
	for iter := 1; iter <= maxIter; iter++ {
		iters = iter
		changed := false
		for i, v := range vecs {
			best, bestSim := 0, -1.0
			for c, cen := range centroids {
				if sim := cosine(v, cen); sim > bestSim {
					best, bestSim = c, sim
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, v := range vecs {
			for j, t := range v.idx {
				sums[assign[i]][t] += v.val[j]
			}
			counts[assign[i]]++
		}
		next := make([]centroid, k)
		for c := range sums {
			if counts[c] == 0 {
				// Empty cluster: reseed with the document farthest from
				// its centroid (deterministic: lowest similarity wins).
				worstI, worstSim := -1, 2.0
				for i, v := range vecs {
					if sim := cosine(v, centroids[assign[i]]); sim < worstSim {
						worstI, worstSim = i, sim
					}
				}
				if worstI >= 0 {
					next[c] = vecs[worstI].dense(dim)
					assign[worstI] = c
					changed = true
				}
				continue
			}
			for t := range sums[c] {
				sums[c][t] /= float64(counts[c])
			}
			next[c] = newCentroid(sums[c])
		}
		centroids = next
		if !changed {
			break
		}
	}
	return assign, centroids, iters
}

// cohesion is the mean cosine similarity of documents to their centroids
// — the objective maximized across restarts.
func cohesion(vecs []sparse, assign []int, centroids []centroid) float64 {
	if len(vecs) == 0 {
		return 0
	}
	var total float64
	for i, v := range vecs {
		total += cosine(v, centroids[assign[i]])
	}
	return total / float64(len(vecs))
}

// longestDoc returns the index of the highest-norm vector.
func longestDoc(vecs []sparse) int {
	best, bestNorm := 0, -1.0
	for i, v := range vecs {
		if v.norm > bestNorm {
			best, bestNorm = i, v.norm
		}
	}
	return best
}

// seedCentroids picks K initial centroids over a vocabulary of dim terms:
// `first` first, then repeatedly the document least similar to every
// chosen centroid (farthest-point).
func seedCentroids(vecs []sparse, dim, k, first int, rng *rand.Rand) []centroid {
	chosen := []int{first}
	out := []centroid{vecs[first].dense(dim)}
	for len(chosen) < k {
		bestI, bestScore := -1, 2.0
		for i, v := range vecs {
			if slices.Contains(chosen, i) {
				continue
			}
			// Max similarity to any chosen centroid; minimize it.
			maxSim := -1.0
			for _, c := range out {
				if sim := cosine(v, c); sim > maxSim {
					maxSim = sim
				}
			}
			// Tiny deterministic jitter avoids systematic ties.
			maxSim += rng.Float64() * 1e-9
			if maxSim < bestScore {
				bestI, bestScore = i, maxSim
			}
		}
		if bestI < 0 {
			break
		}
		chosen = append(chosen, bestI)
		out = append(out, vecs[bestI].dense(dim))
	}
	return out
}
