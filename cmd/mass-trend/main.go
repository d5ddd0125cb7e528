// Command mass-trend reports domain-interest trends and emerging bloggers
// over a stored corpus — the "new trends of customers' interest" analysis
// the paper's introduction motivates.
//
// Usage:
//
//	mass-trend -corpus crawl.xml -buckets 8 -emerging 5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"mass/internal/core"
	"mass/internal/trend"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mass-trend: ")
	var (
		corpusPath = flag.String("corpus", "corpus.xml", "XML corpus snapshot")
		buckets    = flag.Int("buckets", 8, "number of time windows")
		emerging   = flag.Int("emerging", 5, "emerging bloggers to list")
	)
	flag.Parse()

	sys, err := core.LoadFile(*corpusPath, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.Trends(trend.Config{
		Buckets:     *buckets,
		TopEmerging: *emerging,
	})
	if err != nil {
		log.Fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "domain\tslope\tseries")
	for _, d := range append(append([]string{}, rep.Rising...), rep.Falling...) {
		s := rep.DomainSeries[d]
		fmt.Fprintf(tw, "%s\t%+.3f\t", d, rep.Slopes[d])
		for _, v := range s.Values {
			fmt.Fprintf(tw, "%.1f ", v)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Printf("\nrising:  %v\nfalling: %v\n", rep.Rising, rep.Falling)
	fmt.Println("\nemerging bloggers (influence concentrated in the recent half):")
	for i, e := range rep.Emerging {
		fmt.Printf("  %d. %-14s recentShare=%.2f Inf=%.3f\n", i+1, e.ID, e.RecentShare, e.Influence)
	}
}
