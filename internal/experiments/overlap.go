package experiments

import (
	"fmt"
	"io"

	"mass/internal/baseline"
	"mass/internal/blog"
	"mass/internal/lexicon"
	"mass/internal/rank"
)

// OverlapRow quantifies, for one domain, how different the MASS
// domain-specific top-k is from the global rankings — the paper's central
// argument made measurable: if the lists were similar, domain-specific
// mining would be pointless.
type OverlapRow struct {
	Domain string
	// VsGeneral and VsLive are overlap@k between the domain list and the
	// General / Live Index lists.
	VsGeneral, VsLive float64
	// RBOGeneral is the top-weighted rank-biased overlap (p = 0.9)
	// against the General list.
	RBOGeneral float64
	// TruthPrecision is precision@k of the domain list against the
	// planted true top-k of the domain.
	TruthPrecision float64
	// GeneralTruthPrecision is the same for the General list — what a
	// domain-blind system achieves on this domain.
	GeneralTruthPrecision float64
}

// OverlapResult is the X8 study.
type OverlapResult struct {
	K    int
	Rows []OverlapRow
}

// ExperimentSystemOverlap (X8) measures the divergence between the
// domain-specific rankings and the global baselines across all ten
// domains, plus each list's precision against planted truth.
func ExperimentSystemOverlap(cfg Config) (*OverlapResult, error) {
	w, err := buildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	cfg = w.cfg
	k := cfg.K

	generalScores, err := (baseline.General{}).Rank(w.gen)
	if err != nil {
		return nil, err
	}
	liveScores, err := (baseline.LiveIndex{}).Rank(w.gen)
	if err != nil {
		return nil, err
	}
	general := bloggerIDsToStrings(topIDs(generalScores, k))
	live := bloggerIDsToStrings(topIDs(liveScores, k))

	out := &OverlapResult{K: k}
	for _, domain := range lexicon.Domains() {
		ds := make([]string, 0, k)
		for _, id := range w.res.TopKDomain(domain, k) {
			ds = append(ds, string(id))
		}
		truth := map[string]bool{}
		for _, id := range w.gt.TrueTopK(domain, k) {
			truth[string(id)] = true
		}
		out.Rows = append(out.Rows, OverlapRow{
			Domain:                domain,
			VsGeneral:             rank.OverlapAtK(ds, general, k),
			VsLive:                rank.OverlapAtK(ds, live, k),
			RBOGeneral:            rank.RBO(ds, general, 0.9),
			TruthPrecision:        rank.PrecisionAtK(ds, truth, k),
			GeneralTruthPrecision: rank.PrecisionAtK(general, truth, k),
		})
	}
	return out, nil
}

// MeanTruthPrecision averages the domain lists' truth precision.
func (r *OverlapResult) MeanTruthPrecision() (ds, general float64) {
	for _, row := range r.Rows {
		ds += row.TruthPrecision
		general += row.GeneralTruthPrecision
	}
	n := float64(len(r.Rows))
	if n == 0 {
		return 0, 0
	}
	return ds / n, general / n
}

// Format renders the overlap table.
func (r *OverlapResult) Format(w io.Writer) {
	fmt.Fprintf(w, "System overlap (X8) — domain-specific top-%d vs global lists\n", r.K)
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Domain,
			f2(row.VsGeneral), f2(row.VsLive), f2(row.RBOGeneral),
			f2(row.TruthPrecision), f2(row.GeneralTruthPrecision),
		})
	}
	writeTable(w, []string{"domain", "overlap vs General", "vs Live", "RBO vs General",
		"P@k vs truth (DS)", "P@k vs truth (General)"}, rows)
	ds, gen := r.MeanTruthPrecision()
	fmt.Fprintf(w, "\nmean truth precision: Domain Specific %.2f vs General %.2f\n", ds, gen)
}

func bloggerIDsToStrings(ids []blog.BloggerID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}
