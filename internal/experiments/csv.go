package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"time"
)

// CSV writers: each figure-like result can dump its series as CSV for
// external plotting, so the repository's "regenerate every figure" story
// ends in data files, not just printed tables.

// WriteCSV emits rows system,domain,score,paperScore.
func (r *Table1Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"system", "domain", "score", "paper"}); err != nil {
		return err
	}
	for _, sys := range table1Systems {
		for _, d := range Table1Domains {
			err := cw.Write([]string{sys, d,
				f2(r.Scores[sys][d]), f2(PaperTable1[sys][d])})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits rows value,ndcg,spearman,iters for a parameter sweep.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{r.Param, "ndcg10", "spearman", "iters"}); err != nil {
		return err
	}
	for _, p := range r.Points {
		err := cw.Write([]string{f2(p.Value), f3(p.NDCG), f3(p.Spearman),
			fmt.Sprintf("%d", p.Iters)})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits rows bloggers,posts,comments,analyzeMillis,iters.
func (r *ScalabilityResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"bloggers", "posts", "comments", "analyzeMillis", "iters"}); err != nil {
		return err
	}
	for _, p := range r.Points {
		err := cw.Write([]string{
			fmt.Sprintf("%d", p.Bloggers),
			fmt.Sprintf("%d", p.Posts),
			fmt.Sprintf("%d", p.Comments),
			fmt.Sprintf("%d", p.AnalyzeTime/time.Millisecond),
			fmt.Sprintf("%d", p.Iterations),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the ablation rows.
func (r *AblationResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"variant", "ndcg10", "spearman", "judgeScore"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		err := cw.Write([]string{row.Variant, f3(row.NDCG), f3(row.Spearman), f2(row.Table1Style)})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the per-domain overlap rows.
func (r *OverlapResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"domain", "overlapGeneral", "overlapLive",
		"rboGeneral", "truthPrecisionDS", "truthPrecisionGeneral"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		err := cw.Write([]string{row.Domain, f2(row.VsGeneral), f2(row.VsLive),
			f2(row.RBOGeneral), f2(row.TruthPrecision), f2(row.GeneralTruthPrecision)})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
