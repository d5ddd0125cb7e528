package experiments

import (
	"fmt"
	"io"
	"time"

	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/synth"
	"mass/internal/userstudy"
)

// panelFor builds the standard judge panel for a config.
func panelFor(cfg Config) userstudy.Panel {
	return userstudy.Panel{Judges: cfg.Judges, Seed: cfg.Seed + 7}
}

// ConvergencePoint records solver behaviour at one tolerance.
type ConvergencePoint struct {
	Epsilon    float64
	Iterations int
	Converged  bool
}

// ConvergenceResult is the X5 study.
type ConvergenceResult struct {
	Points []ConvergencePoint
}

// ExperimentConvergence (X5) measures how many Jacobi sweeps the influence
// fixed point needs as the tolerance tightens. The contraction argument in
// the influence package predicts geometric convergence — iterations should
// grow linearly in -log ε.
func ExperimentConvergence(cfg Config) (*ConvergenceResult, error) {
	cfg = cfg.withDefaults()
	corpus, _, err := synth.Generate(synth.Config{
		Seed: cfg.Seed, Bloggers: cfg.Bloggers, Posts: cfg.Posts,
	})
	if err != nil {
		return nil, err
	}
	out := &ConvergenceResult{}
	for _, eps := range []float64{1e-3, 1e-6, 1e-9, 1e-12} {
		an, err := influence.NewAnalyzer(influence.Config{Epsilon: eps, MaxIter: 1000}, nil)
		if err != nil {
			return nil, err
		}
		ir, err := an.Analyze(corpus)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, ConvergencePoint{
			Epsilon:    eps,
			Iterations: ir.Iterations,
			Converged:  ir.Converged,
		})
	}
	return out, nil
}

// Format renders the convergence table.
func (r *ConvergenceResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Solver convergence (X5)")
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", p.Epsilon),
			fmt.Sprintf("%d", p.Iterations),
			fmt.Sprintf("%v", p.Converged),
		})
	}
	writeTable(w, []string{"epsilon", "iterations", "converged"}, rows)
}

// ScalePoint is one corpus size and its analysis cost.
type ScalePoint struct {
	Bloggers, Posts int
	Comments        int
	AnalyzeTime     time.Duration
	Iterations      int
}

// ScalabilityResult is the X6 study.
type ScalabilityResult struct {
	Points []ScalePoint
}

// ExperimentScalability (X6) doubles the corpus size repeatedly and times
// the full analysis (classification + fixed point + domain aggregation).
// The solver is linear in posts+comments per sweep, so wall time should
// scale roughly linearly.
func ExperimentScalability(cfg Config, sizes []int) (*ScalabilityResult, error) {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{100, 200, 400, 800}
	}
	nb, err := classify.TrainNaiveBayes(
		synth.TrainingExamples(nil, cfg.TrainPerDomain, cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	out := &ScalabilityResult{}
	for _, n := range sizes {
		corpus, _, err := synth.Generate(synth.Config{
			Seed: cfg.Seed, Bloggers: n, Posts: n * 10,
		})
		if err != nil {
			return nil, err
		}
		comments := 0
		for _, p := range corpus.Posts {
			comments += len(p.Comments)
		}
		an, err := influence.NewAnalyzer(influence.Config{}, nb)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ir, err := an.Analyze(corpus)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, ScalePoint{
			Bloggers:    n,
			Posts:       len(corpus.Posts),
			Comments:    comments,
			AnalyzeTime: time.Since(t0),
			Iterations:  ir.Iterations,
		})
	}
	return out, nil
}

// Format renders the scalability table.
func (r *ScalabilityResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Analyzer scalability (X6)")
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Bloggers),
			fmt.Sprintf("%d", p.Posts),
			fmt.Sprintf("%d", p.Comments),
			p.AnalyzeTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", p.Iterations),
		})
	}
	writeTable(w, []string{"bloggers", "posts", "comments", "analyze time", "iters"}, rows)
}
