// Quickstart: analyze the paper's Figure 1 sample influence graph.
//
// Amery writes two posts — post1 about computer science (commented on by
// Bob and Cary) and post2 about the economic depression (commented on by
// Cary) — inside a nine-blogger network. MASS scores every blogger's
// overall influence Inf(b) and decomposes Amery's influence by domain,
// demonstrating the paper's central point: influence is domain specific.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/lexicon"
)

func main() {
	corpus := blog.Figure1Corpus()
	sys, err := core.FromCorpus(corpus, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res := sys.Result()

	fmt.Println("=== MASS quickstart: the Figure 1 influence graph ===")
	fmt.Printf("corpus: %s\n", sys.Stats())
	fmt.Printf("solver: converged=%v in %d iterations\n\n", res.Converged, res.Iterations)

	fmt.Println("Overall influence Inf(b) (Eq. 1):")
	for _, b := range sys.TopInfluential(9) {
		fmt.Printf("  %-8s %.4f  (AP=%.4f GL=%.4f)\n",
			b, res.BloggerScores[b], res.AP[b], res.GL[b])
	}

	fmt.Println("\nPer-post influence Inf(b,d) (Eq. 4):")
	d := res.Dense()
	for i, pid := range d.Posts {
		fmt.Printf("  %-6s by %-8s %.4f  (quality=%.3f novelty=%.2f, %d comments)\n",
			pid, d.Bloggers[d.Author[i]], d.PostScore[i], d.Quality[i], d.Novelty[i], d.Comments[i])
	}

	fmt.Println("\nAmery's domain-specific influence Inf(Amery, Ct) (Eq. 5):")
	dv := res.DomainVector("Amery")
	for _, d := range []string{lexicon.Computer, lexicon.Economics} {
		fmt.Printf("  %-10s %.4f\n", d, dv[d])
	}
	fmt.Println("\nAmery's influence splits across Computer and Economics —")
	fmt.Println("a general ranking would hide that structure entirely.")

	fmt.Printf("\nTop Economics blogger: %v\n", sys.TopInDomain(lexicon.Economics, 1))
	fmt.Printf("Top Computer  blogger: %v\n", sys.TopInDomain(lexicon.Computer, 1))
}
