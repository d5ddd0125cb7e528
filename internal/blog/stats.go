package blog

import "fmt"

// Stats summarizes a corpus: sizes, degree distributions and comment
// activity. Used by the CLI tools and the experiment harness to report
// workload shape alongside results.
type Stats struct {
	Bloggers        int
	Posts           int
	Comments        int
	Links           int
	MaxPostsPerUser int
	MaxCommentsMade int
	MaxInLinks      int
	AvgPostLenWords float64
}

// ComputeStats summarizes the generations as one blogosphere in a single scan
// of their posts, comments and links, plus extra links held outside any of
// them (a sharded cluster's cross-shard edges). Each blogger's posts,
// comments made and in-links are summed across corpora before taking the
// maxima. Bloggers is the sum of the corpora's blogger counts, which a
// caller whose corpora share bloggers replaces with its own count.
// wordCount is the token counter to use for post lengths (injected to keep
// this package free of text-processing dependencies); with a nil wordCount
// the bodies are not tokenized and AvgPostLenWords is left 0 for a caller
// that already holds the word totals.
func ComputeStats(wordCount func(string) int, extra []Link, corpora ...*Frozen) Stats {
	s := Stats{Links: len(extra)}
	postsBy := map[BloggerID]int{}
	commentsBy := map[BloggerID]int{}
	inLinks := map[BloggerID]int{}
	totalLen := 0
	for _, c := range corpora {
		s.Bloggers += c.NumBloggers()
		s.Posts += c.NumPosts()
		s.Links += len(c.Links())
		for _, p := range c.Posts() {
			postsBy[p.Author]++
			s.Comments += len(p.Comments)
			for _, cm := range p.Comments {
				commentsBy[cm.Commenter]++
			}
			if wordCount != nil {
				totalLen += wordCount(p.Body)
			}
		}
		for _, l := range c.Links() {
			inLinks[l.To]++
		}
	}
	for _, l := range extra {
		inLinks[l.To]++
	}
	for _, n := range postsBy {
		s.MaxPostsPerUser = max(s.MaxPostsPerUser, n)
	}
	for _, n := range commentsBy {
		s.MaxCommentsMade = max(s.MaxCommentsMade, n)
	}
	for _, n := range inLinks {
		s.MaxInLinks = max(s.MaxInLinks, n)
	}
	if s.Posts > 0 {
		s.AvgPostLenWords = float64(totalLen) / float64(s.Posts)
	}
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("bloggers=%d posts=%d comments=%d links=%d maxPosts=%d maxComments=%d maxInLinks=%d avgPostLen=%.1f",
		s.Bloggers, s.Posts, s.Comments, s.Links,
		s.MaxPostsPerUser, s.MaxCommentsMade, s.MaxInLinks, s.AvgPostLenWords)
}

// Neighborhood returns the bloggers within the given radius of seed in the
// undirected post-reply ∪ friendship ∪ hyperlink network, each with its
// hop distance, seed itself at 0. This implements the demo's "radius of
// network where the crawling is performed" option. The network is one
// CSR of comment (commenter → author), link and friend edges, and the
// walk follows its out-rows and in-rows together, so every edge counts in
// both directions.
func Neighborhood(c *Frozen, seed BloggerID, radius int) map[BloggerID]int {
	dist := map[BloggerID]int{}
	if c.Blogger(seed) == nil {
		return dist
	}
	g := c.BloggerGraph(func(add func(a, b BloggerID)) {
		for _, p := range c.Posts() {
			for _, cm := range p.Comments {
				add(cm.Commenter, p.Author)
			}
		}
		for _, l := range c.Links() {
			add(l.From, l.To)
		}
		for id, b := range c.Bloggers() {
			for _, f := range b.Friends {
				add(id, f)
			}
		}
	})
	s, _ := g.Index(string(seed))
	for i, d := range g.Reach(s, radius) {
		if d >= 0 {
			dist[BloggerID(g.IDs[i])] = d
		}
	}
	return dist
}
