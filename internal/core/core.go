// Package core is the top-level MASS facade, wiring the paper's three
// modules (Fig. 2) into one pipeline: acquire a corpus (crawl, load, or
// generate), run the Analyzer Module (post classifier + influence solver),
// and serve the User Interface Module's operations (top-k queries,
// advertisement and personalized recommendation, network visualization).
//
// Every ranking a System answers runs through package query's executor,
// the one the HTTP API and the CLIs use: Query takes any query, and the
// scenario methods (AdvertiseText, AdvertiseDomains, RecommendForProfile,
// RecommendForBlogger) are thin builders of one canned interest query
// (recommend.Recommender.ForInterest).
//
// Typical use:
//
//	sys, err := core.FromCorpus(corpus, core.Options{})
//	...
//	top := sys.TopInfluential(3)
//	ad := sys.AdvertiseText("new basketball sneakers ...", 3)
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/query"
	"mass/internal/recommend"
	"mass/internal/synth"
	"mass/internal/trend"
	"mass/internal/viz"
	"mass/internal/xmlstore"
)

// Options configures a System.
type Options struct {
	// Influence tunes the scoring model (the demo's parameter toolbar).
	Influence influence.Config
	// Domains are the interest domains; default lexicon.Domains().
	Domains []string
	// Classifier plugs in a custom post classifier. When nil, a naive
	// Bayes model is trained on synthetic domain snippets
	// (TrainingPerDomain × len(Domains) examples, seed TrainingSeed).
	Classifier classify.Classifier
	// TrainingPerDomain is the per-domain training size for the default
	// classifier. Default 30.
	TrainingPerDomain int
	// TrainingSeed seeds the default classifier's training snippets.
	TrainingSeed int64
}

func (o Options) withDefaults() Options {
	if len(o.Domains) == 0 {
		o.Domains = lexicon.Domains()
	}
	if o.TrainingPerDomain == 0 {
		o.TrainingPerDomain = 30
	}
	if o.TrainingSeed == 0 {
		o.TrainingSeed = 1
	}
	return o
}

// System is an analyzed blogosphere ready to answer the demo's queries.
type System struct {
	opts       Options
	corpus     *blog.Frozen
	classifier classify.Classifier
	result     *influence.Result
	rec        *recommend.Recommender
	// execs counts the queries this generation has executed.
	execs QueryCount
	// trends memoizes this generation's trend reports. It lives and dies
	// with the System, so a reader of an older generation only ever
	// touches that generation's memo.
	trendMu sync.Mutex
	trends  map[trend.Config]*trend.Report
}

// QueryCount counts a generation's query executions.
type QueryCount struct{ n atomic.Int64 }

// Computes reports how many queries the generation has executed.
func (c *QueryCount) Computes() int64 { return c.n.Load() }

// buildClassifier resolves the classifier to use: the explicit one, or a
// naive Bayes model trained on synthetic domain snippets.
func (o Options) buildClassifier() (classify.Classifier, error) {
	if o.Classifier != nil {
		return o.Classifier, nil
	}
	nb, err := classify.TrainNaiveBayes(
		synth.TrainingExamples(o.Domains, o.TrainingPerDomain, o.TrainingSeed))
	if err != nil {
		return nil, fmt.Errorf("core: training classifier: %w", err)
	}
	return nb, nil
}

// newSystem runs the analysis pipeline over c — warm-started from prev and
// facet-cached through cache when non-nil — and assembles the query-side
// recommender. It is the shared build step behind FromCorpus (cold, once)
// and Engine (incremental, repeatedly).
func newSystem(c *blog.Frozen, opts Options, cl classify.Classifier, an *influence.Analyzer, prev *influence.Result, cache *influence.Cache) (*System, error) {
	res, err := an.AnalyzeCached(c, prev, cache)
	if err != nil {
		return nil, err
	}
	rec, err := recommend.New(cl, res, c)
	if err != nil {
		return nil, err
	}
	return &System{
		opts:       opts,
		corpus:     c,
		classifier: cl,
		result:     res,
		rec:        rec,
	}, nil
}

// FromCorpus analyzes an in-memory corpus once. It remains the one-shot
// path for batch tooling and examples; a serving process should wrap the
// corpus in an Engine instead.
func FromCorpus(c *blog.Corpus, opts Options) (*System, error) {
	opts = opts.withDefaults()
	cl, err := opts.buildClassifier()
	if err != nil {
		return nil, err
	}
	an, err := influence.NewAnalyzer(opts.Influence, cl)
	if err != nil {
		return nil, err
	}
	return newSystem(c.Snapshot(), opts, cl, an, nil, nil)
}

// LoadFile builds a System from an XML snapshot written by xmlstore.Save
// (mass-synth, mass-crawl).
func LoadFile(path string, opts Options) (*System, error) {
	c, err := xmlstore.Load(path)
	if err != nil {
		return nil, err
	}
	return FromCorpus(c, opts)
}

// Corpus exposes the analyzed generation of the corpus.
func (s *System) Corpus() *blog.Frozen { return s.corpus }

// Result exposes the raw influence analysis.
func (s *System) Result() *influence.Result { return s.result }

// Classifier exposes the post classifier in use.
func (s *System) Classifier() classify.Classifier { return s.classifier }

// Query executes a composable query (package query) against this
// analyzed generation — the canonical read path: filter, order, project,
// paginate and aggregate over the influence facets without touching the
// result's internals. Every call executes and returns a fresh result;
// serving processes memoize finished reads on the cluster view that pins
// the generation (cluster.View), which sees every shard at once.
func (s *System) Query(q *query.Query) (*query.Result, error) {
	s.execs.n.Add(1)
	return query.Execute(s.corpus, s.result, q)
}

// QueryCache reports the generation's query executions (observability and
// tests). The query memo itself lives on cluster.View; the accessor keeps
// its name because perfbench's tracer counts misses through it.
func (s *System) QueryCache() *QueryCount { return &s.execs }

// Trends returns the generation's trend report for cfg (package trend),
// computed on first use and memoized per config on the System. A failed
// analysis is not memoized. Concurrent first calls may compute twice;
// every caller gets the first report stored.
func (s *System) Trends(cfg trend.Config) (*trend.Report, error) {
	s.trendMu.Lock()
	rep, ok := s.trends[cfg]
	s.trendMu.Unlock()
	if ok {
		return rep, nil
	}
	// Analyze outside the lock: a slow report must not block cached polls
	// of other configs.
	rep, err := trend.Analyze(s.corpus, s.result, cfg)
	if err != nil {
		return nil, err
	}
	s.trendMu.Lock()
	defer s.trendMu.Unlock()
	if first, ok := s.trends[cfg]; ok {
		return first, nil
	}
	if s.trends == nil {
		s.trends = map[trend.Config]*trend.Report{}
	}
	s.trends[cfg] = rep
	return rep, nil
}

// TopInfluential returns the k most influential bloggers overall (the
// "General" ranking).
func (s *System) TopInfluential(k int) []blog.BloggerID {
	return s.result.TopKGeneral(k)
}

// TopInDomain returns the k most influential bloggers of one domain.
func (s *System) TopInDomain(domain string, k int) []blog.BloggerID {
	return s.result.TopKDomain(domain, k)
}

// AdvertiseText recommends top-k bloggers for an advertisement text
// (Scenario 1, Fig. 3 option 1): the ad's interest vector is the
// classifier posterior over its text.
func (s *System) AdvertiseText(adText string, k int) []recommend.Recommendation {
	return s.rec.ForInterest(classify.Classify(s.classifier, adText), k)
}

// AdvertiseDomains recommends top-k bloggers for explicitly selected
// domains (Fig. 3 option 2), each selection weighted equally
// (query.EqualWeights). No domains gives an empty vector, which falls back
// to the general ranking.
func (s *System) AdvertiseDomains(domains []string, k int) []recommend.Recommendation {
	return s.rec.ForInterest(query.EqualWeights(domains), k)
}

// RecommendForProfile recommends top-k bloggers for a new user's profile
// text (Scenario 2).
func (s *System) RecommendForProfile(profile string, k int) []recommend.Recommendation {
	return s.rec.ForProfile(profile, k)
}

// RecommendForBlogger recommends top-k bloggers to an existing member.
func (s *System) RecommendForBlogger(id blog.BloggerID, k int) ([]recommend.Recommendation, error) {
	return s.rec.ForBlogger(id, k)
}

// RecommendInFriends restricts a domain recommendation to the member's
// friend network of the given radius.
func (s *System) RecommendInFriends(id blog.BloggerID, domain string, radius, k int) ([]recommend.Recommendation, error) {
	return s.rec.WithinFriends(id, domain, radius, k)
}

// Network builds the laid-out post-reply network around a blogger (Fig. 4).
func (s *System) Network(center blog.BloggerID, radius int, layoutSeed int64) (*viz.Network, error) {
	n, err := viz.Build(s.corpus, center, radius, s.result.BloggerScores)
	if err != nil {
		return nil, err
	}
	n.Layout(layoutSeed, 0)
	return n, nil
}

// Stats summarizes the corpus.
func (s *System) Stats() blog.Stats {
	st := blog.ComputeStats(nil, nil, s.corpus)
	if st.Posts > 0 {
		st.AvgPostLenWords = float64(s.result.Words()) / float64(st.Posts)
	}
	return st
}
