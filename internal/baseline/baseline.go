// Package baseline implements the comparison systems from the paper's
// evaluation (Table I):
//
//   - General: the MASS overall influence score Inf(b) without the domain
//     split — "top 3 influential bloggers mined from general domain".
//   - LiveIndex: Microsoft Live Index, "based on traditional link
//     analysis" — reproduced as PageRank over the blog hyperlink graph.
//   - IFinder: the model of Agarwal et al., WSDM'08 [1], the paper's
//     representative "existing system", which scores posts by inlinks,
//     outlinks, comment count and post length without commenter identity,
//     attitude, or domains.
//
// All baselines implement Ranker so the experiment harness treats every
// system uniformly.
package baseline

import (
	"math"

	"mass/internal/blog"
	"mass/internal/influence"
	"mass/internal/linkrank"
	"mass/internal/textutil"
)

// Ranker scores every blogger in a corpus generation; higher is more
// influential.
type Ranker interface {
	// Name identifies the system in experiment reports.
	Name() string
	// Rank returns a score for every blogger in c.
	Rank(c *blog.Frozen) (map[blog.BloggerID]float64, error)
}

// LiveIndex ranks bloggers purely by link authority (PageRank), the
// traditional link-analysis stand-in for Microsoft Live Index [10].
// The solve uses linkrank's default options.
type LiveIndex struct{}

// Name implements Ranker.
func (LiveIndex) Name() string { return "Live Index" }

// Rank implements Ranker. The solve runs on the generation's CSR view of
// the hyperlink graph, built once per generation (blog.Frozen.LinkCSR).
func (LiveIndex) Rank(c *blog.Frozen) (map[blog.BloggerID]float64, error) {
	csr := c.LinkCSR()
	pr := linkrank.PageRankCSR(csr, linkrank.Options{})
	out := make(map[blog.BloggerID]float64, len(pr.Scores))
	for i, id := range csr.IDs {
		out[blog.BloggerID(id)] = pr.Scores[i]
	}
	return out, nil
}

// General ranks bloggers by the full MASS overall influence Inf(b) with no
// domain decomposition, under the paper's default influence model. This
// is the "General" row of Table I.
type General struct{}

// Name implements Ranker.
func (General) Name() string { return "General" }

// Rank implements Ranker.
func (General) Rank(c *blog.Frozen) (map[blog.BloggerID]float64, error) {
	a, err := influence.NewAnalyzer(influence.Config{}, nil)
	if err != nil {
		return nil, err
	}
	res, err := a.AnalyzeCached(c, nil, nil)
	if err != nil {
		return nil, err
	}
	return res.BloggerScores, nil
}

// IFinder reproduces the WSDM'08 influential-blogger model [1]. A post's
// influence is
//
//	I(p) = w(λ_p) · (w_com·γ_p + w_in·ι_p − w_out·θ_p)
//
// where λ_p is the post length (weight = length normalized by the corpus
// max), γ_p the number of comments on p, ι_p the author's inlink count and
// θ_p the author's outlink count, counting distinct link edges (the corpus
// records links at blogger granularity; the WSDM model's post-level links
// are approximated by the author's). A blogger's iIndex is the maximum influence over their posts
// — "a blogger is influential if s/he has at least one influential post".
type IFinder struct{}

// The iFinder weights of comments, inlinks and outlinks: the WSDM'08
// defaults weigh incoming influence fully and outgoing influence as a leak.
const (
	iFinderWComment = 1
	iFinderWIn      = 1
	iFinderWOut     = 0.5
)

// Name implements Ranker.
func (IFinder) Name() string { return "iFinder" }

// Rank implements Ranker.
func (IFinder) Rank(c *blog.Frozen) (map[blog.BloggerID]float64, error) {
	maxLen := 0.0
	lengths := make(map[blog.PostID]float64, c.NumPosts())
	for pid, p := range c.Posts() {
		l := float64(textutil.WordCount(p.Body))
		lengths[pid] = l
		if l > maxLen {
			maxLen = l
		}
	}
	out := make(map[blog.BloggerID]float64, c.NumBloggers())
	for b := range c.Bloggers() {
		out[b] = 0
	}
	g := c.LinkCSR()
	for pid, p := range c.Posts() {
		i, _ := g.Index(string(p.Author))
		lw := 0.0
		if maxLen > 0 {
			lw = lengths[pid] / maxLen
		}
		flow := iFinderWComment*float64(len(p.Comments)) +
			iFinderWIn*float64(g.InDegree(i)) - iFinderWOut*float64(g.OutDegree(i))
		if score := lw * math.Max(flow, 0); score > out[p.Author] {
			out[p.Author] = score
		}
	}
	return out, nil
}
