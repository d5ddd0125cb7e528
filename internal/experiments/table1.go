package experiments

import (
	"fmt"
	"io"
	"math"

	"mass/internal/baseline"
	"mass/internal/blog"
	"mass/internal/lexicon"
	"mass/internal/rank"
	"mass/internal/userstudy"
)

// Table1Domains are the three domains the paper reports in Table I.
var Table1Domains = []string{lexicon.Travel, lexicon.Art, lexicon.Sports}

// PaperTable1 holds the numbers printed in the paper, for side-by-side
// comparison in reports (rows: General, Live Index, Domain Specific;
// columns: Travel, Art, Sports).
var PaperTable1 = map[string]map[string]float64{
	"General":         {lexicon.Travel: 3.2, lexicon.Art: 3.2, lexicon.Sports: 3.2},
	"Live Index":      {lexicon.Travel: 3.0, lexicon.Art: 3.3, lexicon.Sports: 3.1},
	"Domain Specific": {lexicon.Travel: 4.3, lexicon.Art: 4.1, lexicon.Sports: 4.6},
}

// Table1Result is the regenerated Table I: average applicable scores per
// system and domain from the simulated user study.
type Table1Result struct {
	Config Config
	// Scores[system][domain] is the panel's average 1–5 score.
	Scores map[string]map[string]float64
	// StdErr[system][domain] is the standard error of that average across
	// resampled judge panels (the human study could not report this; the
	// simulation can).
	StdErr map[string]map[string]float64
	// TopK[system][domain] records which bloggers were judged.
	TopK map[string]map[string][]blog.BloggerID
}

// panelResamples is how many independently-seeded judge panels the score
// average is computed over.
const panelResamples = 20

// Systems in row order.
var table1Systems = []string{"General", "Live Index", "Domain Specific"}

// ExperimentTable1 reproduces the paper's Table I protocol: mine top-k
// bloggers with each system, submit each list to the judge panel for each
// of the three domains, and average the 1–5 scores.
func ExperimentTable1(cfg Config) (*Table1Result, error) {
	w, err := buildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	cfg = w.cfg

	// General and Live Index produce one global list each, judged against
	// every domain (that is the paper's point: they cannot adapt).
	generalScores, err := (baseline.General{}).Rank(w.gen)
	if err != nil {
		return nil, err
	}
	liveScores, err := (baseline.LiveIndex{}).Rank(w.gen)
	if err != nil {
		return nil, err
	}
	generalTop := topIDs(generalScores, cfg.K)
	liveTop := topIDs(liveScores, cfg.K)

	res := &Table1Result{
		Config: cfg,
		Scores: map[string]map[string]float64{},
		StdErr: map[string]map[string]float64{},
		TopK:   map[string]map[string][]blog.BloggerID{},
	}
	for _, sys := range table1Systems {
		res.Scores[sys] = map[string]float64{}
		res.StdErr[sys] = map[string]float64{}
		res.TopK[sys] = map[string][]blog.BloggerID{}
	}
	for _, domain := range Table1Domains {
		dsTop := w.res.TopKDomain(domain, cfg.K)
		lists := map[string][]blog.BloggerID{
			"General":         generalTop,
			"Live Index":      liveTop,
			"Domain Specific": dsTop,
		}
		for sys, list := range lists {
			// Resample the judge panel so the reported score carries an
			// uncertainty estimate instead of one panel's noise.
			var samples []float64
			for r := 0; r < panelResamples; r++ {
				panel := userstudy.Panel{Judges: cfg.Judges, Seed: cfg.Seed + 7 + int64(r)*101}
				s, err := panel.Score(list, domain, w.gt)
				if err != nil {
					return nil, fmt.Errorf("experiments: table1 %s/%s: %w", sys, domain, err)
				}
				samples = append(samples, s)
			}
			mean, se := meanStderr(samples)
			res.Scores[sys][domain] = mean
			res.StdErr[sys][domain] = se
			res.TopK[sys][domain] = list
		}
	}
	return res, nil
}

// meanStderr returns the sample mean and its standard error.
func meanStderr(xs []float64) (mean, se float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}

// ShapeHolds reports whether the paper's qualitative claim reproduces:
// Domain Specific is never significantly beaten by General or Live Index
// in any domain, and significantly wins in a majority of them.
// Significance is three combined standard errors of the resampled panel
// means. Statistical ties are tolerated because on small corpora a global
// list can legitimately coincide with one domain's expert list (the
// globally most influential bloggers may *be* that domain's experts).
func (r *Table1Result) ShapeHolds() bool {
	wins := 0
	for _, d := range Table1Domains {
		ds := r.Scores["Domain Specific"][d]
		dsSE := r.StdErr["Domain Specific"][d]
		bestSys := "General"
		if r.Scores["Live Index"][d] > r.Scores[bestSys][d] {
			bestSys = "Live Index"
		}
		best := r.Scores[bestSys][d]
		margin := 3 * (dsSE + r.StdErr[bestSys][d])
		if ds < best-margin {
			return false
		}
		if ds > best+margin {
			wins++
		}
	}
	return wins*2 > len(Table1Domains)
}

// Format renders the regenerated table next to the paper's numbers.
func (r *Table1Result) Format(w io.Writer) {
	fmt.Fprintln(w, "Table I — user evaluation of average applicable scores")
	fmt.Fprintf(w, "(simulated panel: %d judges, top-%d, corpus %d bloggers / %d posts, seed %d)\n\n",
		r.Config.Judges, r.Config.K, r.Config.Bloggers, r.Config.Posts, r.Config.Seed)
	header := []string{"Average Applicable Scores", "Travel", "Art", "Sports", "| paper: Travel", "Art", "Sports"}
	var rows [][]string
	for _, sys := range table1Systems {
		row := []string{sys}
		for _, d := range Table1Domains {
			row = append(row, fmt.Sprintf("%s±%.2f", f2(r.Scores[sys][d]), r.StdErr[sys][d]))
		}
		row = append(row, "| "+f2(PaperTable1[sys][lexicon.Travel]),
			f2(PaperTable1[sys][lexicon.Art]), f2(PaperTable1[sys][lexicon.Sports]))
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
	fmt.Fprintf(w, "\nshape holds (Domain Specific never significantly loses, significantly wins a majority): %v\n", r.ShapeHolds())
}

func topIDs(scores map[blog.BloggerID]float64, k int) []blog.BloggerID {
	m := make(map[string]float64, len(scores))
	for id, s := range scores {
		m[string(id)] = s
	}
	entries := rank.TopK(m, k)
	out := make([]blog.BloggerID, len(entries))
	for i, e := range entries {
		out[i] = blog.BloggerID(e.ID)
	}
	return out
}
