package influence

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/lexicon"
)

// randomCorpus builds an arbitrary small but valid corpus from a seed.
func randomCorpus(seed int64) *blog.Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := blog.NewCorpus()
	n := rng.Intn(12) + 2
	ids := make([]blog.BloggerID, n)
	for i := range ids {
		ids[i] = blog.BloggerID(fmt.Sprintf("b%02d", i))
		if err := c.AddBlogger(&blog.Blogger{ID: ids[i]}); err != nil {
			panic(err)
		}
	}
	words := []string{"alpha", "beta", "gamma", "delta", "agree", "wrong",
		"stock", "code", "paint", "goal", "reposted", "from", "note"}
	nPosts := rng.Intn(20)
	for p := 0; p < nPosts; p++ {
		body := ""
		for w := 0; w < rng.Intn(20)+1; w++ {
			body += words[rng.Intn(len(words))] + " "
		}
		post := &blog.Post{
			ID:     blog.PostID(fmt.Sprintf("p%03d", p)),
			Author: ids[rng.Intn(n)],
			Body:   body,
		}
		for cm := 0; cm < rng.Intn(4); cm++ {
			post.Comments = append(post.Comments, blog.Comment{
				Commenter: ids[rng.Intn(n)],
				Text:      words[rng.Intn(len(words))],
			})
		}
		if err := c.AddPost(post); err != nil {
			panic(err)
		}
	}
	nLinks := rng.Intn(2 * n)
	for l := 0; l < nLinks; l++ {
		from, to := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if from != to {
			if _, err := c.AddLinkDedup(from, to); err != nil {
				panic(err)
			}
		}
	}
	return c
}

// Property: for arbitrary corpora and default parameters the solver
// converges, every score is finite and non-negative, and Σ_t Inf(b,Ct)
// equals AP(b) (because the classifier posterior sums to 1).
func TestSolverPropertyRandomCorpora(t *testing.T) {
	nb, err := classify.TrainNaiveBayes([]classify.Example{
		{Text: "stock market bank", Label: lexicon.Economics},
		{Text: "code compiler kernel", Label: lexicon.Computer},
		{Text: "paint gallery canvas", Label: lexicon.Art},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(Config{}, nb)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		c := randomCorpus(seed)
		res, err := a.Analyze(c)
		if err != nil || !res.Converged {
			return false
		}
		for _, s := range res.BloggerScores {
			if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return false
			}
		}
		for _, s := range postScores(res) {
			if s < 0 || math.IsNaN(s) {
				return false
			}
		}
		for b, ds := range res.DomainScoresMap() {
			var sum float64
			for _, s := range ds {
				sum += s
			}
			if math.Abs(sum-res.AP[b]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: warm start from any previous result reaches the same fixed
// point as a cold solve (uniqueness of the contraction fixed point).
func TestWarmStartPropertyUniqueness(t *testing.T) {
	a, err := NewAnalyzer(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seedA, seedB int64) bool {
		ca := randomCorpus(seedA)
		cb := randomCorpus(seedB)
		// Warm-start cb's solve from ca's result: garbage-in warm starts
		// must still land on cb's unique fixed point.
		resA, err := a.Analyze(ca)
		if err != nil {
			return false
		}
		cold, err := a.Analyze(cb)
		if err != nil {
			return false
		}
		warm, err := a.AnalyzeCached(cb.Snapshot(), resA, nil)
		if err != nil {
			return false
		}
		for b, s := range cold.BloggerScores {
			if math.Abs(warm.BloggerScores[b]-s) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
