// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the extended ablation and performance studies listed in
// DESIGN.md. Each Experiment* function is deterministic for a fixed
// Config and returns a structured result with a Format method that prints
// the same rows the paper reports.
//
// Index (see DESIGN.md §4):
//
//	Table I   — ExperimentTable1       (user study: General vs Live Index vs Domain-Specific)
//	Figure 1  — ExperimentFigure1      (sample influence graph walkthrough)
//	Figure 2  — ExperimentFigure2      (crawler→analyzer→UI pipeline)
//	Figure 3  — ExperimentFigure3      (advertisement input function)
//	Figure 4  — ExperimentFigure4      (post-reply network visualization)
//	X1/X2     — ExperimentAlphaSweep, ExperimentBetaSweep
//	X3        — ExperimentFacetAblation
//	X4        — ExperimentClassifier
//	X5        — ExperimentConvergence
//	X6        — ExperimentScalability
//	X7        — (crawler worker scaling lives in bench_test.go)
package experiments

import (
	"fmt"
	"io"
	"strings"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/synth"
)

// Config sizes the synthetic workload. The paper crawled ~3000 spaces and
// ~40000 posts; the default here is a scaled-down corpus that preserves
// the distributional shape and runs in seconds. Use PaperScale for the
// full-size run.
type Config struct {
	// Seed drives corpus generation and the judge panel.
	Seed int64
	// Bloggers and Posts size the corpus. Defaults 300 / 3000.
	Bloggers, Posts int
	// Judges is the user-study panel size. Default 10 (as in the paper).
	Judges int
	// K is the ranking depth for the user study. Default 3 (as in the paper).
	K int
	// TrainPerDomain sizes classifier training. Default 30.
	TrainPerDomain int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2010 // ICDE 2010
	}
	if c.Bloggers == 0 {
		c.Bloggers = 300
	}
	if c.Posts == 0 {
		c.Posts = 3000
	}
	if c.Judges == 0 {
		c.Judges = 10
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.TrainPerDomain == 0 {
		c.TrainPerDomain = 30
	}
	return c
}

// PaperScale returns the full-size configuration matching the paper's
// crawl: ~3000 bloggers, ~40000 posts.
func PaperScale() Config {
	return Config{Bloggers: 3000, Posts: 40000}.withDefaults()
}

// workload bundles the shared setup: corpus, the generation of it that
// was analyzed, ground truth, classifier and a completed MASS analysis.
type workload struct {
	cfg    Config
	corpus *blog.Corpus
	gen    *blog.Frozen
	gt     *synth.GroundTruth
	nb     classify.Classifier
	res    *influence.Result
}

// buildWorkload generates and analyzes the standard corpus.
func buildWorkload(cfg Config) (*workload, error) {
	cfg = cfg.withDefaults()
	corpus, gt, err := synth.Generate(synth.Config{
		Seed:     cfg.Seed,
		Bloggers: cfg.Bloggers,
		Posts:    cfg.Posts,
	})
	if err != nil {
		return nil, err
	}
	nb, err := classify.TrainNaiveBayes(
		synth.TrainingExamples(nil, cfg.TrainPerDomain, cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	an, err := influence.NewAnalyzer(influence.Config{}, nb)
	if err != nil {
		return nil, err
	}
	gen := corpus.Snapshot()
	res, err := an.AnalyzeCached(gen, nil, nil)
	if err != nil {
		return nil, err
	}
	return &workload{cfg: cfg, corpus: corpus, gen: gen, gt: gt, nb: nb, res: res}, nil
}

// writeTable renders rows as a fixed-width table.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
