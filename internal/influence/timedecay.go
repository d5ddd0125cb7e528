package influence

import (
	"math"
	"time"

	"mass/internal/blog"
)

// DecayConfig enables time-decayed influence: a post's contribution is
// scaled by exp(−λ · age), where age is measured from the analysis
// reference time. Business applications (the paper's motivating use case)
// care about who is influential *now*; an expert who stopped posting two
// years ago should fade.
type DecayConfig struct {
	// HalfLife is the age at which a post's weight halves. Zero disables
	// decay.
	HalfLife time.Duration
	// Now is the reference time; posts newer than Now are clamped to
	// weight 1. Zero value means "the newest post in the corpus", which
	// keeps results deterministic for stored corpora.
	Now time.Time
}

// decayWeights computes the per-post decay multipliers for a corpus, in
// the order of posts. Disabled (nil) when HalfLife is zero.
func decayWeights(c *blog.Frozen, posts []blog.PostID, dc DecayConfig) []float64 {
	if dc.HalfLife <= 0 {
		return nil
	}
	ref := dc.Now
	if ref.IsZero() {
		for _, pid := range posts {
			if t := c.Post(pid).Posted; t.After(ref) {
				ref = t
			}
		}
	}
	lambda := math.Ln2 / dc.HalfLife.Seconds()
	w := make([]float64, len(posts))
	for i, pid := range posts {
		age := ref.Sub(c.Post(pid).Posted).Seconds()
		if age <= 0 {
			w[i] = 1
			continue
		}
		w[i] = math.Exp(-lambda * age)
	}
	return w
}

// AnalyzeDecayed runs the analysis with time decay applied to every
// post's quality and comment contribution. With dc.HalfLife == 0 it is
// identical to Analyze. The decay multiplies Inf(b, d_k) as a whole, so
// the domain decomposition (Eq. 5) and AP aggregation see consistently
// faded posts.
func (a *Analyzer) AnalyzeDecayed(c *blog.Corpus, dc DecayConfig) (*Result, error) {
	f := c.Snapshot()
	res, err := a.analyze(f, nil, nil)
	if err != nil {
		return nil, err
	}
	w := decayWeights(f, res.posts, dc)
	if w == nil {
		return res, nil
	}
	// Re-weight post scores and rebuild the aggregates. Strictly, decay
	// inside the fixed point would also fade commenter influence; the
	// post-hoc application keeps the solved citation structure (who is a
	// trusted commenter changes slowly) while fading stale output, and is
	// exact when decay weights are uniform.
	for i := range res.postInf {
		res.postInf[i] *= w[i]
	}
	res.sumAP(res.bloggerAP)
	alpha := a.cfg.Alpha
	for bi, b := range res.bloggers {
		// Keep the maps consistent with the dense facet vectors.
		res.bloggerInf[bi] = alpha*res.bloggerAP[bi] + (1-alpha)*res.bloggerGL[bi]
		res.AP[b], res.BloggerScores[b] = res.bloggerAP[bi], res.bloggerInf[bi]
	}
	if res.hasDomains {
		// Re-aggregate Eq. 5 with the decayed post scores. This runs before
		// any query touches the result, so the lazily precomputed rankings
		// see the decayed scores.
		res.aggregateDomains()
	}
	return res, nil
}
