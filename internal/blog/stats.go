package blog

import (
	"fmt"
	"sort"
)

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

// ComputeStats scans the corpus once and returns its summary. wordCount is
// the token counter to use for post lengths (injected to keep this package
// free of text-processing dependencies); with a nil wordCount the bodies
// are not tokenized and AvgPostLenWords is left 0 for a caller that
// already holds the word totals.
func ComputeStats(c *Corpus, wordCount func(string) int) Stats {
	s := Stats{
		Bloggers: len(c.Bloggers),
		Posts:    len(c.Posts),
		Links:    len(c.Links),
	}
	totalLen := 0
	for _, p := range c.Posts {
		s.Comments += len(p.Comments)
		if wordCount != nil {
			totalLen += wordCount(p.Body)
		}
	}
	for b := range c.Bloggers {
		if n := len(c.PostsBy(b)); n > s.MaxPostsPerUser {
			s.MaxPostsPerUser = n
		}
		if n := c.TotalComments(b); n > s.MaxCommentsMade {
			s.MaxCommentsMade = n
		}
		if n := len(c.InLinks(b)); n > s.MaxInLinks {
			s.MaxInLinks = n
		}
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

// CommentEdge is an aggregated post-reply edge: Commenter left Count
// comments on posts by Author. This is exactly the edge the demo UI draws
// ("the number on the line records the total number comments of one blogger
// on the other blogger's posts", Fig 4).
type CommentEdge struct {
	Commenter BloggerID
	Author    BloggerID
	Count     int
}

// CommentEdges aggregates all comments into blogger-to-blogger edges,
// sorted by (Commenter, Author) for determinism. Self-comments are kept:
// they exist in real blogs, and downstream consumers filter if needed.
func CommentEdges(c *Corpus) []CommentEdge {
	counts := map[[2]BloggerID]int{}
	for _, p := range c.Posts {
		for _, cm := range p.Comments {
			counts[[2]BloggerID{cm.Commenter, p.Author}]++
		}
	}
	edges := make([]CommentEdge, 0, len(counts))
	for k, n := range counts {
		edges = append(edges, CommentEdge{Commenter: k[0], Author: k[1], Count: n})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Commenter != edges[j].Commenter {
			return edges[i].Commenter < edges[j].Commenter
		}
		return edges[i].Author < edges[j].Author
	})
	return edges
}

// Neighborhood returns the bloggers within the given radius of seed in the
// undirected post-reply ∪ friendship ∪ hyperlink network, each with its
// hop distance, seed itself at 0. This implements the demo's "radius of
// network where the crawling is performed" option. The network is one
// CSR of comment (commenter → author), link and friend edges, and the
// walk follows its out-rows and in-rows together, so every edge counts in
// both directions.
func Neighborhood(c *Corpus, seed BloggerID, radius int) map[BloggerID]int {
	dist := map[BloggerID]int{}
	if _, ok := c.Bloggers[seed]; !ok {
		return dist
	}
	g := c.BloggerGraph(func(add func(a, b BloggerID)) {
		for _, p := range c.Posts {
			for _, cm := range p.Comments {
				add(cm.Commenter, p.Author)
			}
		}
		for _, l := range c.Links {
			add(l.From, l.To)
		}
		for id, b := range c.Bloggers {
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
