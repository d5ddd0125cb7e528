// Command mass-crawl runs the MASS Crawler Module against a blog service
// and stores the crawled blogosphere as XML. Without -url it spins up an
// in-process simulated blog service over a synthetic corpus and crawls
// that — the self-contained demo of the Fig. 2 pipeline's first stage.
//
// Usage:
//
//	mass-crawl -url http://blogs.example -seed-blogger alice -radius 2 -out crawl.xml
//	mass-crawl -selfserve -bloggers 500 -seed-blogger blogger0000 -out crawl.xml
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/crawler"
	"mass/internal/synth"
	"mass/internal/textutil"
	"mass/internal/xmlstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mass-crawl: ")
	var (
		url       = flag.String("url", "", "base URL of the blog service (empty: self-serve a synthetic one)")
		seedB     = flag.String("seed-blogger", "blogger0000", "blogger ID to start crawling from")
		radius    = flag.Int("radius", 2, "crawl radius (hops from the seed)")
		workers   = flag.Int("workers", 4, "concurrent fetchers")
		maxB      = flag.Int("max", 10000, "maximum spaces to fetch")
		rate      = flag.Int("rate", 0, "request rate limit per second (0 = unlimited)")
		out       = flag.String("out", "crawl.xml", "output XML snapshot")
		selfserve = flag.Bool("selfserve", false, "serve a synthetic blogosphere in-process and crawl it")
		seed      = flag.Int64("seed", 2010, "seed for -selfserve corpus")
		bloggers  = flag.Int("bloggers", 300, "bloggers for -selfserve corpus")
		posts     = flag.Int("posts", 3000, "posts for -selfserve corpus")
	)
	flag.Parse()

	base := *url
	if base == "" || *selfserve {
		corpus, _, err := synth.Generate(synth.Config{Seed: *seed, Bloggers: *bloggers, Posts: *posts})
		if err != nil {
			log.Fatal(err)
		}
		ts := httptest.NewServer(blogserver.New(corpus))
		defer ts.Close()
		base = ts.URL
		fmt.Printf("self-serving %d bloggers at %s\n", len(corpus.Bloggers), base)
	}

	cr := crawler.New(crawler.Config{
		Workers:     *workers,
		Radius:      *radius,
		MaxBloggers: *maxB,
		RateLimit:   *rate,
	}, nil)
	c, stats, err := cr.Crawl(context.Background(), base, blog.BloggerID(*seedB))
	if err != nil {
		log.Fatal(err)
	}
	if err := xmlstore.Save(*out, c); err != nil {
		log.Fatal(err)
	}
	st := blog.ComputeStats(textutil.WordCount, nil, c.Snapshot())
	fmt.Printf("crawl: fetched=%d failed=%d retries=%d depth=%d elapsed=%s truncated=%v\n",
		stats.Fetched, stats.Failed, stats.Retries, stats.Depth, stats.Elapsed, stats.Truncated)
	fmt.Printf("wrote %s\n%s\n", *out, st)
}
