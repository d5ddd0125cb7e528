package experiments

import (
	"fmt"
	"io"

	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/rank"
	"mass/internal/synth"
)

// rankingQuality scores a MASS configuration against the planted ground
// truth: the mean NDCG@10 over all ten domains, where each blogger's gain
// in a domain is their true (planted) domain influence.
func rankingQuality(res *influence.Result, gt *synth.GroundTruth) float64 {
	var total float64
	n := 0
	for _, domain := range lexicon.Domains() {
		gains := map[string]float64{}
		for id := range gt.Expertise {
			if s := gt.TrueScore(id, domain); s > 0 {
				gains[string(id)] = s
			}
		}
		if len(gains) == 0 {
			continue
		}
		ranking := make([]string, 0, 10)
		for _, id := range res.TopKDomain(domain, 10) {
			ranking = append(ranking, string(id))
		}
		total += rank.NDCGAtK(ranking, gains, 10)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// rankCorrelation is the discriminative companion to rankingQuality: the
// mean Spearman ρ between the full MASS domain ranking and the planted
// truth ordering, averaged over domains. Top-k NDCG saturates when the
// synthetic signals are redundant; full-ranking correlation still moves.
func rankCorrelation(res *influence.Result, gt *synth.GroundTruth) float64 {
	var total float64
	n := 0
	for _, domain := range lexicon.Domains() {
		truth := gt.TrueTopK(domain, len(gt.Expertise))
		if len(truth) < 2 {
			continue
		}
		truthIDs := make([]string, len(truth))
		for i, id := range truth {
			truthIDs[i] = string(id)
		}
		ranking := make([]string, 0, len(truth))
		for _, id := range res.TopKDomain(domain, len(gt.Expertise)) {
			ranking = append(ranking, string(id))
		}
		total += rank.SpearmanRho(truthIDs, ranking)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// SweepPoint is one parameter setting and its ranking quality.
type SweepPoint struct {
	Value    float64
	NDCG     float64
	Spearman float64
	Iters    int
}

// SweepResult is a one-parameter sweep (X1: alpha, X2: beta).
type SweepResult struct {
	Param  string
	Points []SweepPoint
}

// ExperimentAlphaSweep (X1) sweeps the AP-vs-GL mixing weight α of Eq. 1
// and reports ranking quality against planted truth at each setting. The
// paper fixes α = 0.5; the sweep shows how sensitive that choice is.
func ExperimentAlphaSweep(cfg Config) (*SweepResult, error) {
	return sweep(cfg, "alpha", []float64{0, 0.25, 0.5, 0.75, 1},
		func(v float64) influence.Config {
			c := influence.Config{Alpha: v}
			if v == 0 {
				c.Alpha = influence.ExplicitZero
			}
			return c
		})
}

// ExperimentBetaSweep (X2) sweeps the quality-vs-comments weight β of
// Eq. 2 (the paper sets 0.6 "according to empirical study").
func ExperimentBetaSweep(cfg Config) (*SweepResult, error) {
	return sweep(cfg, "beta", []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
		func(v float64) influence.Config {
			c := influence.Config{Beta: v}
			if v == 0 {
				c.Beta = influence.ExplicitZero
			}
			return c
		})
}

func sweep(cfg Config, param string, values []float64, build func(float64) influence.Config) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	corpus, gt, err := synth.Generate(synth.Config{
		Seed: cfg.Seed, Bloggers: cfg.Bloggers, Posts: cfg.Posts,
	})
	if err != nil {
		return nil, err
	}
	nb, err := classify.TrainNaiveBayes(
		synth.TrainingExamples(nil, cfg.TrainPerDomain, cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Param: param}
	for _, v := range values {
		an, err := influence.NewAnalyzer(build(v), nb)
		if err != nil {
			return nil, err
		}
		ir, err := an.Analyze(corpus)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, SweepPoint{
			Value:    v,
			NDCG:     rankingQuality(ir, gt),
			Spearman: rankCorrelation(ir, gt),
			Iters:    ir.Iterations,
		})
	}
	return res, nil
}

// Format renders the sweep as a table.
func (r *SweepResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Parameter sweep — %s (ranking quality vs planted truth)\n", r.Param)
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{f2(p.Value), f3(p.NDCG), f3(p.Spearman), fmt.Sprintf("%d", p.Iters)})
	}
	writeTable(w, []string{r.Param, "mean NDCG@10", "Spearman ρ", "solver iters"}, rows)
}

// AblationRow is one model variant and its quality.
type AblationRow struct {
	Variant  string
	NDCG     float64
	Spearman float64
	// Table1Style is the simulated-judge score of the variant's top-3 in
	// the Table I domains, averaged — connects the ablation back to the
	// paper's own metric.
	Table1Style float64
}

// AblationResult is the X3 facet ablation.
type AblationResult struct {
	Rows []AblationRow
}

// ExperimentFacetAblation (X3) removes each MASS facet in turn — the
// sentiment factor, the citation (commenter-influence) weighting, the
// novelty penalty, and the link-authority term — and measures how ranking
// quality degrades. This defends the multi-facet design: each facet should
// contribute.
func ExperimentFacetAblation(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	corpus, gt, err := synth.Generate(synth.Config{
		Seed: cfg.Seed, Bloggers: cfg.Bloggers, Posts: cfg.Posts,
	})
	if err != nil {
		return nil, err
	}
	nb, err := classify.TrainNaiveBayes(
		synth.TrainingExamples(nil, cfg.TrainPerDomain, cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		cfg  influence.Config
	}{
		{"full MASS", influence.Config{}},
		{"- sentiment", influence.Config{IgnoreSentiment: true}},
		{"- citation", influence.Config{IgnoreCitation: true}},
		{"- novelty", influence.Config{IgnoreNovelty: true}},
		{"- authority", influence.Config{IgnoreAuthority: true}},
	}
	out := &AblationResult{}
	for _, v := range variants {
		an, err := influence.NewAnalyzer(v.cfg, nb)
		if err != nil {
			return nil, err
		}
		ir, err := an.Analyze(corpus)
		if err != nil {
			return nil, err
		}
		t1, err := table1Style(ir, gt, cfg)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, AblationRow{
			Variant:     v.name,
			NDCG:        rankingQuality(ir, gt),
			Spearman:    rankCorrelation(ir, gt),
			Table1Style: t1,
		})
	}
	return out, nil
}

// table1Style averages the judge-panel score of the result's top-k over
// the Table I domains.
func table1Style(ir *influence.Result, gt *synth.GroundTruth, cfg Config) (float64, error) {
	panel := panelFor(cfg)
	var total float64
	for _, d := range Table1Domains {
		top := ir.TopKDomain(d, cfg.K)
		if len(top) == 0 {
			continue
		}
		s, err := panel.Score(top, d, gt)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total / float64(len(Table1Domains)), nil
}

// Format renders the ablation table.
func (r *AblationResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Facet ablation (X3) — drop one facet at a time")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Variant, f3(row.NDCG), f3(row.Spearman), f2(row.Table1Style)})
	}
	writeTable(w, []string{"variant", "mean NDCG@10", "Spearman ρ", "judge score (T1 domains)"}, rows)
}

// ClassifierResult is the X4 classifier comparison.
type ClassifierResult struct {
	// PostAccuracy is accuracy against the corpus posts' planted domains.
	PostAccuracy map[string]float64
	// CVAccuracy is mean 5-fold cross-validation accuracy on the training
	// snippets.
	CVAccuracy map[string]float64
}

// ExperimentClassifier (X4) compares the naive Bayes post analyzer with
// the pluggable TF-IDF centroid alternative, on both cross-validation and
// real (synthetic-corpus) posts.
func ExperimentClassifier(cfg Config) (*ClassifierResult, error) {
	cfg = cfg.withDefaults()
	corpus, _, err := synth.Generate(synth.Config{
		Seed: cfg.Seed, Bloggers: cfg.Bloggers, Posts: cfg.Posts,
	})
	if err != nil {
		return nil, err
	}
	train := synth.TrainingExamples(nil, cfg.TrainPerDomain, cfg.Seed+1)
	var test []classify.Example
	gen := corpus.Snapshot()
	for _, pid := range gen.PostIDs() {
		p := gen.Post(pid)
		test = append(test, classify.Example{Text: p.Body, Label: p.TrueDomain})
	}
	res := &ClassifierResult{
		PostAccuracy: map[string]float64{},
		CVAccuracy:   map[string]float64{},
	}
	models := map[string]func([]classify.Example) (classify.Classifier, error){
		"naive Bayes": func(ex []classify.Example) (classify.Classifier, error) {
			return classify.TrainNaiveBayes(ex)
		},
		"naive Bayes+bigrams": func(ex []classify.Example) (classify.Classifier, error) {
			return classify.TrainNaiveBayesBigrams(ex)
		},
		"TF-IDF centroid": func(ex []classify.Example) (classify.Classifier, error) {
			return classify.TrainCentroid(ex)
		},
	}
	for name, trainFn := range models {
		cl, err := trainFn(train)
		if err != nil {
			return nil, err
		}
		res.PostAccuracy[name] = classify.Accuracy(cl, test)
		accs, err := classify.CrossValidate(train, 5, trainFn)
		if err != nil {
			return nil, err
		}
		var mean float64
		for _, a := range accs {
			mean += a
		}
		res.CVAccuracy[name] = mean / float64(len(accs))
	}
	return res, nil
}

// Format renders the classifier comparison.
func (r *ClassifierResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Classifier comparison (X4)")
	var rows [][]string
	for _, name := range []string{"naive Bayes", "naive Bayes+bigrams", "TF-IDF centroid"} {
		rows = append(rows, []string{name, f3(r.PostAccuracy[name]), f3(r.CVAccuracy[name])})
	}
	writeTable(w, []string{"model", "post accuracy", "5-fold CV accuracy"}, rows)
}
