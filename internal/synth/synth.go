// Package synth generates deterministic synthetic blogospheres with
// planted ground truth. It substitutes for the paper's crawl of ~3000 MSN
// Spaces / ~40000 posts (MSN Spaces shut down in 2011), reproducing the
// statistical features the MASS model keys on:
//
//   - each blogger has a preferred domain and a hidden expertise level;
//   - experts write more, longer and original posts; novices repost;
//   - comment arrival is preferential: expert posts attract more comments,
//     and attract them from more active commenters;
//   - comment attitude correlates with the author's expertise (experts
//     earn positive comments, weak posts draw negatives);
//   - hyperlinks preferentially attach to experts (authority).
//
// Because expertise is planted per domain, experiments can score any
// ranking against the true domain-specific influence ordering — something
// the original user study could only approximate with human judges.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/lexicon"
)

// Config controls generation. Zero fields take the defaults in
// (Config).withDefaults; all randomness flows from Seed.
type Config struct {
	// Seed drives every random choice; equal seeds give identical corpora.
	Seed int64
	// Bloggers is the community size. Default 300.
	Bloggers int
	// Posts is the approximate total post count. Default 10× Bloggers.
	Posts int
	// Domains are the interest domains. Default lexicon.Domains().
	Domains []string
	// MeanComments is the average number of comments per post. Default 3.
	MeanComments float64
	// CopyRate is the base probability that a low-expertise blogger's post
	// is reproduced content. Default 0.15.
	CopyRate float64
	// LinksPerBlogger is the mean number of outgoing hyperlinks. Default 2.
	LinksPerBlogger float64
	// FriendsPerBlogger is the mean friend-list size. Default 3.
	FriendsPerBlogger float64
	// PostLenMin and PostLenMax bound post length in words. Defaults 30/220.
	PostLenMin, PostLenMax int
}

func (c Config) withDefaults() Config {
	if c.Bloggers == 0 {
		c.Bloggers = 300
	}
	if c.Posts == 0 {
		c.Posts = 10 * c.Bloggers
	}
	if len(c.Domains) == 0 {
		c.Domains = lexicon.Domains()
	}
	if c.MeanComments == 0 {
		c.MeanComments = 3
	}
	if c.CopyRate == 0 {
		c.CopyRate = 0.15
	}
	if c.LinksPerBlogger == 0 {
		c.LinksPerBlogger = 2
	}
	if c.FriendsPerBlogger == 0 {
		c.FriendsPerBlogger = 3
	}
	if c.PostLenMin == 0 {
		c.PostLenMin = 30
	}
	if c.PostLenMax == 0 {
		c.PostLenMax = 220
	}
	return c
}

// GroundTruth records the planted structure of a generated corpus.
type GroundTruth struct {
	// Expertise is the hidden per-domain expertise in [0,1]; a blogger has
	// entries only for domains they write in.
	Expertise map[blog.BloggerID]map[string]float64
	// PrimaryDomain is each blogger's main interest.
	PrimaryDomain map[blog.BloggerID]string
	// Activity is each blogger's overall posting/commenting propensity.
	Activity map[blog.BloggerID]float64
}

// TrueTopK returns the k bloggers with the highest planted domain
// influence (expertise × activity) for the domain, descending, ties broken
// by ID.
func (g *GroundTruth) TrueTopK(domain string, k int) []blog.BloggerID {
	type cand struct {
		id    blog.BloggerID
		score float64
	}
	var cands []cand
	for id, exp := range g.Expertise {
		if e, ok := exp[domain]; ok && e > 0 {
			cands = append(cands, cand{id, e * g.Activity[id]})
		}
	}
	// Deterministic sort.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if b.score > a.score || (b.score == a.score && b.id < a.id) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]blog.BloggerID, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].id
	}
	return out
}

// TrueScore returns the planted domain influence of one blogger.
func (g *GroundTruth) TrueScore(id blog.BloggerID, domain string) float64 {
	return g.Expertise[id][domain] * g.Activity[id]
}

// Generate builds a corpus and its ground truth from cfg.
func Generate(cfg Config) (*blog.Corpus, *GroundTruth, error) {
	cfg = cfg.withDefaults()
	if cfg.Bloggers < 2 {
		return nil, nil, fmt.Errorf("synth: need at least 2 bloggers")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := blog.NewCorpus()
	gt := &GroundTruth{
		Expertise:     map[blog.BloggerID]map[string]float64{},
		PrimaryDomain: map[blog.BloggerID]string{},
		Activity:      map[blog.BloggerID]float64{},
	}

	ids := make([]blog.BloggerID, cfg.Bloggers)
	for i := range ids {
		ids[i] = blog.BloggerID(fmt.Sprintf("blogger%04d", i))
	}

	// --- Plant expertise, primary domains and activity. ---
	for i, id := range ids {
		// Primary domains are assigned round-robin so every domain has a
		// population even in small corpora (stratified coverage; with
		// uniform random assignment a 10-domain corpus of a few hundred
		// bloggers can end up with a domain that has no real expert).
		primary := cfg.Domains[i%len(cfg.Domains)]
		// Skewed expertise: most bloggers are novices, a few experts.
		expertise := math.Pow(rng.Float64(), 2)
		// Activity (posting propensity) is heavy-tailed too, correlated
		// with expertise so experts are visible.
		activity := 0.3*expertise + 0.7*math.Pow(rng.Float64(), 2)
		exp := map[string]float64{primary: expertise}
		// A third of bloggers have a secondary domain with diluted skill.
		if rng.Float64() < 1.0/3 {
			secondary := cfg.Domains[rng.Intn(len(cfg.Domains))]
			if secondary != primary {
				exp[secondary] = expertise * rng.Float64() * 0.6
			}
		}
		gt.Expertise[id] = exp
		gt.PrimaryDomain[id] = primary
		gt.Activity[id] = activity

		profile := buildProfile(rng, primary)
		if err := c.AddBlogger(&blog.Blogger{ID: id, Name: string(id), Profile: profile}); err != nil {
			return nil, nil, err
		}
	}

	// --- Friend lists (undirected-ish small sets). ---
	for _, id := range ids {
		n := poisson(rng, cfg.FriendsPerBlogger)
		seen := map[blog.BloggerID]bool{id: true}
		var friends []blog.BloggerID
		for len(friends) < n && len(friends) < cfg.Bloggers-1 {
			f := ids[rng.Intn(len(ids))]
			if !seen[f] {
				seen[f] = true
				friends = append(friends, f)
			}
		}
		c.Bloggers[id].Friends = friends
	}

	// --- Posts: allocate to bloggers ∝ activity. ---
	weights := make([]float64, len(ids))
	var totalW float64
	for i, id := range ids {
		weights[i] = 0.05 + gt.Activity[id]
		totalW += weights[i]
	}
	t0 := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)
	postNum := 0
	// Keep a pool of earlier post bodies so copies can be true duplicates.
	var bodyPool []string
	commenterWeights := weights // comment propensity follows activity too

	for i, id := range ids {
		nPosts := int(float64(cfg.Posts) * weights[i] / totalW)
		if nPosts == 0 && rng.Float64() < 0.5 {
			nPosts = 1
		}
		exp := gt.Expertise[id]
		for p := 0; p < nPosts; p++ {
			domain := pickDomain(rng, exp)
			e := exp[domain]
			// Length grows with expertise.
			length := cfg.PostLenMin +
				int(float64(cfg.PostLenMax-cfg.PostLenMin)*(0.25*rng.Float64()+0.75*e))
			var body string
			isCopy := rng.Float64() < cfg.CopyRate*(1-e)
			if isCopy && len(bodyPool) > 0 && rng.Float64() < 0.5 {
				// Verbatim near-duplicate of an earlier post.
				body = bodyPool[rng.Intn(len(bodyPool))]
			} else if isCopy {
				body = "reposted from another site: " + buildBody(rng, domain, length)
			} else {
				body = buildBody(rng, domain, length)
			}
			post := &blog.Post{
				ID:         blog.PostID(fmt.Sprintf("post%06d", postNum)),
				Author:     id,
				Title:      buildTitle(rng, domain),
				Body:       body,
				Posted:     t0.Add(time.Duration(postNum) * time.Hour),
				TrueDomain: domain,
				Tags:       buildTags(rng, domain),
			}
			postNum++
			if !isCopy {
				bodyPool = append(bodyPool, body)
			}

			// Comments: experts attract more; attitude tracks expertise.
			meanC := cfg.MeanComments * (0.4 + 1.6*e)
			nComments := poisson(rng, meanC)
			for cm := 0; cm < nComments; cm++ {
				commenter := weightedPick(rng, ids, commenterWeights, totalW)
				if commenter == id {
					continue // skip self-comments most of the time
				}
				text := buildComment(rng, e)
				post.Comments = append(post.Comments, blog.Comment{
					Commenter: commenter,
					Text:      text,
					Posted:    post.Posted.Add(time.Duration(cm+1) * time.Minute),
				})
			}
			if err := c.AddPost(post); err != nil {
				return nil, nil, err
			}
		}
	}

	// --- Hyperlinks: preferential attachment to overall prominence
	// (expertise × activity) — readers link to bloggers they actually see,
	// so link authority tracks general influence, as with real link
	// indexes. ---
	linkW := make([]float64, len(ids))
	var linkTotal float64
	for i, id := range ids {
		best := 0.0
		for _, e := range gt.Expertise[id] {
			if e > best {
				best = e
			}
		}
		g := best * gt.Activity[id]
		linkW[i] = 0.02 + g*g
		linkTotal += linkW[i]
	}
	for _, id := range ids {
		n := poisson(rng, cfg.LinksPerBlogger)
		for l := 0; l < n; l++ {
			target := weightedPick(rng, ids, linkW, linkTotal)
			if target == id {
				continue
			}
			// A repeated pick of the same target adds no second link.
			if _, err := c.AddLinkDedup(id, target); err != nil {
				return nil, nil, err
			}
		}
	}
	return c, gt, nil
}

// TrainingExamples yields labeled snippets for classifier training, drawn
// from the same vocabularies the generator uses but from an independent
// random stream, so the classifier learns the domains without ever seeing
// the corpus under analysis.
func TrainingExamples(domains []string, perDomain int, seed int64) []classify.Example {
	if len(domains) == 0 {
		domains = lexicon.Domains()
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]classify.Example, 0, len(domains)*perDomain)
	for _, d := range domains {
		for i := 0; i < perDomain; i++ {
			out = append(out, classify.Example{
				Text:  buildBody(rng, d, 40),
				Label: d,
			})
		}
	}
	return out
}

func buildProfile(rng *rand.Rand, domain string) string {
	vocab := lexicon.Vocabulary(domain)
	words := make([]string, 0, 14)
	words = append(words, "interested", "in")
	for i := 0; i < 12; i++ {
		words = append(words, vocab[rng.Intn(len(vocab))])
	}
	return strings.Join(words, " ")
}

// filler is shared across domains so documents are not pure vocabulary.
var filler = strings.Fields(`today yesterday week month people friend life
	time thing work home city world story idea note update reading writing
	thought question answer start end good long short new old small big`)

func buildBody(rng *rand.Rand, domain string, length int) string {
	vocab := lexicon.Vocabulary(domain)
	words := make([]string, 0, length)
	for len(words) < length {
		if rng.Float64() < 0.55 {
			words = append(words, vocab[rng.Intn(len(vocab))])
		} else {
			words = append(words, filler[rng.Intn(len(filler))])
		}
	}
	return strings.Join(words, " ")
}

func buildTitle(rng *rand.Rand, domain string) string {
	vocab := lexicon.Vocabulary(domain)
	return "about " + vocab[rng.Intn(len(vocab))] + " and " + vocab[rng.Intn(len(vocab))]
}

// buildTags labels a post with 2–4 folksonomy tags: mostly domain
// vocabulary, with an occasional generic tag shared across domains (the
// noise that makes tag-based interest discovery non-trivial).
func buildTags(rng *rand.Rand, domain string) []string {
	vocab := lexicon.Vocabulary(domain)
	n := 2 + rng.Intn(3)
	tags := make([]string, 0, n)
	seen := map[string]bool{}
	for len(tags) < n {
		var tag string
		if rng.Float64() < 0.85 {
			tag = vocab[rng.Intn(len(vocab))]
		} else {
			tag = filler[rng.Intn(len(filler))]
		}
		if !seen[tag] {
			seen[tag] = true
			tags = append(tags, tag)
		}
	}
	return tags
}

// buildComment writes a comment whose attitude depends on the post
// author's expertise: experts earn praise, novices draw criticism.
func buildComment(rng *rand.Rand, expertise float64) string {
	pPos := 0.20 + 0.55*expertise
	pNeg := 0.35 * (1 - expertise)
	r := rng.Float64()
	switch {
	case r < pPos:
		pos := lexicon.PositiveWords()
		return "I " + pos[rng.Intn(len(pos))] + " with this, " + pos[rng.Intn(len(pos))] + " post"
	case r < pPos+pNeg:
		neg := lexicon.NegativeWords()
		return "I " + neg[rng.Intn(len(neg))] + ", this looks " + neg[rng.Intn(len(neg))]
	default:
		return "read this " + filler[rng.Intn(len(filler))] + " " + filler[rng.Intn(len(filler))]
	}
}

// pickDomain selects a domain proportional to the blogger's expertise map.
func pickDomain(rng *rand.Rand, exp map[string]float64) string {
	// Deterministic iteration: collect and sort keys.
	keys := make([]string, 0, len(exp))
	for d := range exp {
		keys = append(keys, d)
	}
	if len(keys) == 1 {
		return keys[0]
	}
	sortStrings(keys)
	var total float64
	for _, d := range keys {
		total += exp[d] + 0.05
	}
	r := rng.Float64() * total
	for _, d := range keys {
		r -= exp[d] + 0.05
		if r <= 0 {
			return d
		}
	}
	return keys[len(keys)-1]
}

func weightedPick(rng *rand.Rand, ids []blog.BloggerID, w []float64, total float64) blog.BloggerID {
	r := rng.Float64() * total
	for i, id := range ids {
		r -= w[i]
		if r <= 0 {
			return id
		}
	}
	return ids[len(ids)-1]
}

// poisson samples a Poisson variate by inversion (mean < ~30 expected).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
