// Command mass-rank runs the MASS Analyzer Module over a stored corpus and
// prints influence rankings: the general top-k, per-domain top-k, and the
// baseline comparisons (Live Index, iFinder). The model parameters α and β
// are the demo toolbar's "personalized parameters".
//
// Usage:
//
//	mass-rank -corpus crawl.xml -k 3
//	mass-rank -corpus crawl.xml -domain Sports -k 10 -alpha 0.7 -beta 0.5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"mass/internal/baseline"
	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/netstats"
	"mass/internal/query"
	"mass/internal/rank"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mass-rank: ")
	var (
		corpusPath = flag.String("corpus", "corpus.xml", "XML corpus snapshot")
		domain     = flag.String("domain", "", "rank within one domain (empty: all domains + general)")
		k          = flag.Int("k", 3, "list length")
		alpha      = flag.Float64("alpha", influence.DefaultAlpha, "AP vs GL weight (Eq. 1)")
		beta       = flag.Float64("beta", influence.DefaultBeta, "quality vs comments weight (Eq. 2)")
		baselines  = flag.Bool("baselines", false, "also print Live Index and iFinder rankings")
		nets       = flag.Bool("netstats", false, "also print link/post-reply network structure")
	)
	flag.Parse()

	sys, err := core.LoadFile(*corpusPath, core.Options{
		Influence: influence.Config{Alpha: *alpha, Beta: *beta},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %s\n", sys.Stats())
	if *nets {
		fmt.Printf("link graph:       %s\n", netstats.Analyze(sys.Corpus().LinkCSR()))
		fmt.Printf("post-reply graph: %s\n", netstats.Analyze(netstats.CommentGraph(sys.Corpus())))
	}
	res := sys.Result()
	fmt.Printf("solver: converged=%v iterations=%d\n\n", res.Converged, res.Iterations)

	// Rankings are canned queries against the composable engine: the
	// general list is the default blogger query, a domain list just swaps
	// the order key.
	topRows := func(q *query.Query) []query.Row {
		if *k <= 0 {
			// Historical behavior: non-positive k prints empty sections.
			return nil
		}
		r, err := sys.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		return r.Rows
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "GENERAL top-%d\tInf(b)\n", *k)
	for _, row := range topRows(query.Bloggers().Limit(*k).Build()) {
		fmt.Fprintf(tw, "%s\t%.4f\n", row.ID, row.Score)
	}
	tw.Flush()

	domains := lexicon.Domains()
	if *domain != "" {
		domains = []string{*domain}
	}
	for _, d := range domains {
		fmt.Fprintf(tw, "\n%s top-%d\tInf(b,Ct)\n", d, *k)
		q := query.Bloggers().OrderBy(query.Desc(query.DomainKey(d))).Limit(*k).Build()
		for _, row := range topRows(q) {
			fmt.Fprintf(tw, "%s\t%.4f\n", row.ID, row.Score)
		}
		tw.Flush()
	}

	if *baselines {
		for _, r := range []baseline.Ranker{baseline.LiveIndex{}, baseline.IFinder{}} {
			scores, err := r.Rank(sys.Corpus())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(tw, "\n%s top-%d\tscore\n", r.Name(), *k)
			for _, e := range rank.TopK(toStringScores(scores), *k) {
				fmt.Fprintf(tw, "%s\t%.6f\n", e.ID, e.Score)
			}
			tw.Flush()
		}
	}
}

func toStringScores(m map[blog.BloggerID]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[string(k)] = v
	}
	return out
}
