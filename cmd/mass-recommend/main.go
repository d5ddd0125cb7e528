// Command mass-recommend answers the two application scenarios of MASS
// against a stored corpus: business advertisement (give it ad text or
// domains; Fig. 3) and personalized recommendation (give it a profile text
// or an existing member ID).
//
// Usage:
//
//	mass-recommend -corpus crawl.xml -ad "new basketball sneakers for athletes" -k 3
//	mass-recommend -corpus crawl.xml -domains Sports,Travel -k 3
//	mass-recommend -corpus crawl.xml -profile "I paint watercolor landscapes" -k 3
//	mass-recommend -corpus crawl.xml -member blogger0042 -k 3
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mass/internal/blog"
	"mass/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mass-recommend: ")
	var (
		corpusPath = flag.String("corpus", "corpus.xml", "XML corpus snapshot")
		adText     = flag.String("ad", "", "advertisement text (Scenario 1, text mode)")
		domainsCSV = flag.String("domains", "", "comma-separated domains (Scenario 1, dropdown mode)")
		profile    = flag.String("profile", "", "new-user profile text (Scenario 2)")
		member     = flag.String("member", "", "existing blogger ID (Scenario 2)")
		friendsOf  = flag.String("friends-of", "", "restrict to this member's friend network")
		friendDom  = flag.String("friend-domain", "Sports", "domain for -friends-of")
		radius     = flag.Int("radius", 2, "friend-network radius for -friends-of")
		k          = flag.Int("k", 3, "list length")
	)
	flag.Parse()

	sys, err := core.LoadFile(*corpusPath, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Every ranking below is the same canned query through the shared
	// executor: rank every blogger by the dot product of their domain
	// influence with an interest vector (the classifier posterior over the
	// text, or equal weights over the chosen domains).
	ran := false
	switch {
	case *adText != "":
		ran = true
		fmt.Printf("advertisement (text mode): %q\n", *adText)
		for i, r := range sys.AdvertiseText(*adText, *k) {
			fmt.Printf("  %d. %s  (Inf(b,a)=%.4f)\n", i+1, r.Blogger, r.Score)
		}
	case *domainsCSV != "":
		ran = true
		domains := strings.Split(*domainsCSV, ",")
		fmt.Printf("advertisement (dropdown mode): %v\n", domains)
		for i, r := range sys.AdvertiseDomains(domains, *k) {
			fmt.Printf("  %d. %s  (score=%.4f)\n", i+1, r.Blogger, r.Score)
		}
	}

	if *profile != "" {
		ran = true
		fmt.Printf("personalized (profile): %q\n", *profile)
		for i, r := range sys.RecommendForProfile(*profile, *k) {
			fmt.Printf("  %d. %s  (score=%.4f)\n", i+1, r.Blogger, r.Score)
		}
	}
	if *member != "" {
		ran = true
		recs, err := sys.RecommendForBlogger(blog.BloggerID(*member), *k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("personalized (member %s):\n", *member)
		for i, r := range recs {
			fmt.Printf("  %d. %s  (score=%.4f)\n", i+1, r.Blogger, r.Score)
		}
	}
	if *friendsOf != "" {
		ran = true
		recs, err := sys.RecommendInFriends(blog.BloggerID(*friendsOf), *friendDom, *radius, *k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("friend network of %s (radius %d, %s):\n", *friendsOf, *radius, *friendDom)
		for i, r := range recs {
			fmt.Printf("  %d. %s  (score=%.4f)\n", i+1, r.Blogger, r.Score)
		}
	}
	if !ran {
		log.Fatal("nothing to do: pass -ad, -domains, -profile, -member, or -friends-of")
	}
}
