// Package recommend ranks bloggers for both application scenarios of
// MASS. Scenario 1, advertisement targeting, mines an interest vector from
// an ad text or takes it from a domain dropdown (Fig. 3); Scenario 2,
// personalized recommendation, mines it from a new user's free-text
// profile or an existing member's stored one, or takes one chosen domain
// (paper §II and §IV). Either way a blogger's relevance is the dot product
// of their domain influence Inf(b, IV) with the interest vector, and
// ForInterest ranks it with one canned query (package query): the same
// executor the HTTP API and the CLIs run; one chosen domain d is the
// interest vector {d: 1}. A member can also restrict the recommendation to
// their friend network.
package recommend

import (
	"fmt"
	"slices"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/query"
	"mass/internal/rank"
)

// Recommender produces personalized blogger recommendations against a
// completed influence analysis of a corpus.
type Recommender struct {
	classifier classify.Classifier
	result     *influence.Result
	corpus     *blog.Frozen
}

// New builds a recommender over the analysis result of corpus.
func New(classifier classify.Classifier, result *influence.Result, corpus *blog.Frozen) (*Recommender, error) {
	if classifier == nil {
		return nil, fmt.Errorf("recommend: classifier required")
	}
	if result == nil || corpus == nil {
		return nil, fmt.Errorf("recommend: influence result and corpus required")
	}
	return &Recommender{classifier: classifier, result: result, corpus: corpus}, nil
}

// Recommendation is one recommended blogger with its domain-weighted score.
type Recommendation struct {
	Blogger blog.BloggerID
	Score   float64
}

// ForInterest recommends the top-k bloggers for an interest vector iv by
// Inf(b, iv) = Inf(b, IV) · iv, ties broken by ascending ID. It runs the
// canned query Bloggers().OrderBy(DescInterest(iv)).Limit(k), so k is
// capped at query.MaxLimit. An empty iv expresses no interest: the
// ranking falls back to overall influence Inf(b), as the demo does when
// no domain is selected. k <= 0, or a weight that is not finite, yields
// nil.
func (r *Recommender) ForInterest(iv map[string]float64, k int) []Recommendation {
	if k <= 0 {
		return nil
	}
	order := query.DescInterest(iv)
	if len(iv) == 0 {
		order = query.Desc(query.FieldInfluence)
	}
	res, err := query.Execute(r.corpus, r.result, query.Bloggers().OrderBy(order).Limit(k).Build())
	if err != nil {
		// With k > 0 and a non-empty iv, the query is invalid only for a
		// non-finite weight, which ranks no one.
		return nil
	}
	out := make([]Recommendation, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = Recommendation{Blogger: blog.BloggerID(row.ID), Score: row.Score}
	}
	return out
}

// ForProfile recommends top-k influential bloggers for a new user's
// free-text profile: the profile's domain distribution weights each
// blogger's domain influence vector.
func (r *Recommender) ForProfile(profile string, k int) []Recommendation {
	return r.ForInterest(classify.Classify(r.classifier, profile), k)
}

// ForBlogger recommends top-k bloggers for an existing member: interests
// are mined from their stored profile, and the member themselves is
// excluded from the results.
func (r *Recommender) ForBlogger(id blog.BloggerID, k int) ([]Recommendation, error) {
	b := r.corpus.Blogger(id)
	if b == nil {
		return nil, fmt.Errorf("recommend: unknown blogger %q", id)
	}
	if k <= 0 {
		return nil, nil
	}
	// One extra row covers the member, who is dropped wherever they rank.
	recs := r.ForInterest(classify.Classify(r.classifier, b.Profile), k+1)
	recs = slices.DeleteFunc(recs, func(rec Recommendation) bool { return rec.Blogger == id })
	return recs[:min(k, len(recs))], nil
}

// WithinFriends recommends top-k bloggers for a domain restricted to the
// member's friend network within the given radius ("the user can request
// MASS to find influential bloggers in her/his friend network, rather than
// the ones in the whole blogosphere", §IV).
func (r *Recommender) WithinFriends(id blog.BloggerID, domain string, radius, k int) ([]Recommendation, error) {
	if r.corpus.Blogger(id) == nil {
		return nil, fmt.Errorf("recommend: unknown blogger %q", id)
	}
	members := blog.Neighborhood(r.corpus, id, radius)
	scores := map[string]float64{}
	for b := range members {
		if b == id {
			continue
		}
		scores[string(b)] = r.result.DomainScore(b, domain)
	}
	return toRecommendations(rank.TopK(scores, k)), nil
}

func toRecommendations(entries []rank.Entry) []Recommendation {
	out := make([]Recommendation, len(entries))
	for i, e := range entries {
		out[i] = Recommendation{Blogger: blog.BloggerID(e.ID), Score: e.Score}
	}
	return out
}
