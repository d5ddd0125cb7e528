// Extensions tour: the optional mechanisms the paper mentions beyond the
// core pipeline — automatic topic discovery instead of predefined domains
// (§II, reference [6]), tag-based social interest discovery, time-decayed
// influence for "who matters now", and domain trend analysis.
//
// Run: go run ./examples/extensions
package main

import (
	"fmt"
	"log"
	"time"

	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/synth"
	"mass/internal/taginterest"
	"mass/internal/topic"
	"mass/internal/trend"
)

func main() {
	corpus, gt, err := synth.Generate(synth.Config{Seed: 2025, Bloggers: 150, Posts: 1200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== MASS extensions tour ===")

	// 1. Automatic topic discovery: no predefined domains needed.
	var docs []string
	var labels []string
	gen := corpus.Snapshot()
	for _, pid := range gen.PostIDs() {
		docs = append(docs, gen.Post(pid).Body)
		labels = append(labels, gen.Post(pid).TrueDomain)
	}
	model, err := topic.Discover(docs, topic.Config{K: 10, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	purity, _ := model.Purity(labels)
	fmt.Printf("\n1. topic discovery (spherical k-means, K=10): purity %.2f\n", purity)
	for i, tp := range model.Topics {
		if i == 3 {
			fmt.Printf("   ... and %d more\n", len(model.Topics)-3)
			break
		}
		fmt.Printf("   topic %q (%d posts)\n", tp.Label, tp.Size)
	}

	// 2. The discovered topics plug straight into the analyzer as the
	// classifier — domain-specific influence without predefined domains.
	an, err := influence.NewAnalyzer(influence.Config{}, model)
	if err != nil {
		log.Fatal(err)
	}
	res, err := an.Analyze(corpus)
	if err != nil {
		log.Fatal(err)
	}
	firstTopic := model.Topics[0].Label
	fmt.Printf("\n2. influence over discovered topics: top blogger of %q: %v\n",
		firstTopic, res.TopKDomain(firstTopic, 1))

	// 3. Tag-based social interest discovery (reference [6]).
	groups, err := taginterest.Discover(gen, taginterest.Config{MinSupport: 3, TopBloggers: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n3. tag interests: %d groups; largest: %v (community: ", len(groups), groups[0].Tags[:min(4, len(groups[0].Tags))])
	for i, m := range groups[0].Bloggers {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(m.ID)
	}
	fmt.Println(")")

	// 4. Time-decayed influence: who matters NOW.
	nbRes := res
	decayed, err := an.AnalyzeDecayed(corpus, influence.DecayConfig{HalfLife: 30 * 24 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n4. time decay (30-day half-life):\n")
	fmt.Printf("   all-time top-3: %v\n", nbRes.TopKGeneral(3))
	fmt.Printf("   current  top-3: %v\n", decayed.TopKGeneral(3))

	// 5. Trend analysis: rising domains and emerging bloggers.
	nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 20, 9))
	if err != nil {
		log.Fatal(err)
	}
	an2, err := influence.NewAnalyzer(influence.Config{}, nb)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := an2.Analyze(corpus)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := trend.Analyze(corpus.Snapshot(), res2, trend.Config{Buckets: 8, TopEmerging: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n5. trends: rising %v\n", rep.Rising)
	fmt.Println("   emerging bloggers:")
	for i, e := range rep.Emerging {
		fmt.Printf("     %d. %s (recent share %.2f, primary domain %s)\n",
			i+1, e.ID, e.RecentShare, gt.PrimaryDomain[e.ID])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
