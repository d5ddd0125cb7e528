// Command mass-synth generates a synthetic blogosphere with planted ground
// truth and stores it as XML — the stand-in for the paper's MSN Spaces
// crawl. The ground truth (per-blogger domain expertise) is written next to
// the corpus as JSON so experiments can score rankings against it.
//
// Usage:
//
//	mass-synth -seed 2010 -bloggers 3000 -posts 40000 -out corpus.xml
//	mass-synth -shards -out crawl-dir
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mass/internal/blog"
	"mass/internal/synth"
	"mass/internal/textutil"
	"mass/internal/xmlstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mass-synth: ")
	var (
		seed     = flag.Int64("seed", 2010, "random seed (same seed = same corpus)")
		bloggers = flag.Int("bloggers", 300, "number of bloggers")
		posts    = flag.Int("posts", 3000, "approximate number of posts")
		comments = flag.Float64("comments", 3, "mean comments per post")
		copyRate = flag.Float64("copyrate", 0.15, "base probability of reproduced posts")
		out      = flag.String("out", "corpus.xml", "output file (or directory with -shards)")
		shards   = flag.Bool("shards", false, "write one XML file per blogger instead of a snapshot")
		truthOut = flag.String("truth", "", "ground-truth JSON path (default: <out>.truth.json)")
	)
	flag.Parse()

	corpus, gt, err := synth.Generate(synth.Config{
		Seed:         *seed,
		Bloggers:     *bloggers,
		Posts:        *posts,
		MeanComments: *comments,
		CopyRate:     *copyRate,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *shards {
		err = xmlstore.SaveShards(*out, corpus)
	} else {
		err = xmlstore.Save(*out, corpus)
	}
	if err != nil {
		log.Fatal(err)
	}

	truthPath := *truthOut
	if truthPath == "" {
		truthPath = strings.TrimSuffix(*out, ".xml") + ".truth.json"
	}
	if err := saveTruth(truthPath, gt); err != nil {
		log.Fatal(err)
	}

	st := blog.ComputeStats(textutil.WordCount, nil, corpus.Snapshot())
	fmt.Printf("wrote %s (+ %s)\n%s\n", *out, truthPath, st)
}

// truthDoc is the JSON schema of the saved ground truth.
type truthDoc struct {
	Expertise     map[blog.BloggerID]map[string]float64 `json:"expertise"`
	PrimaryDomain map[blog.BloggerID]string             `json:"primaryDomain"`
	Activity      map[blog.BloggerID]float64            `json:"activity"`
}

func saveTruth(path string, gt *synth.GroundTruth) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(truthDoc{
		Expertise:     gt.Expertise,
		PrimaryDomain: gt.PrimaryDomain,
		Activity:      gt.Activity,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
