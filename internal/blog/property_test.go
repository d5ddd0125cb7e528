package blog

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// arbCorpus builds a random but structurally valid corpus from a seed.
func arbCorpus(seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := NewCorpus()
	n := rng.Intn(10) + 2
	ids := make([]BloggerID, n)
	for i := range ids {
		ids[i] = BloggerID(fmt.Sprintf("u%02d", i))
		b := &Blogger{ID: ids[i]}
		// Friends wired later so all targets exist.
		if err := c.AddBlogger(b); err != nil {
			panic(err)
		}
	}
	for _, id := range ids {
		for f := 0; f < rng.Intn(3); f++ {
			fr := ids[rng.Intn(n)]
			if fr != id {
				c.Bloggers[id].Friends = append(c.Bloggers[id].Friends, fr)
			}
		}
	}
	for p := 0; p < rng.Intn(15); p++ {
		post := &Post{
			ID:     PostID(fmt.Sprintf("p%03d", p)),
			Author: ids[rng.Intn(n)],
			Body:   fmt.Sprintf("body %d with a few words", p),
		}
		for cm := 0; cm < rng.Intn(4); cm++ {
			post.Comments = append(post.Comments, Comment{
				Commenter: ids[rng.Intn(n)],
				Text:      "a comment",
			})
		}
		if err := c.AddPost(post); err != nil {
			panic(err)
		}
	}
	for l := 0; l < rng.Intn(2*n); l++ {
		from, to := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if from == to {
			continue
		}
		if _, err := c.AddLinkDedup(from, to); err != nil {
			panic(err)
		}
	}
	return c
}

// Property: every generated corpus validates, and a Reindexed copy
// (rebuilt from its entities, as a loaded corpus is) summarizes to the
// same stats, holds the journal's posts in sorted order, and still
// rejects every link the incremental corpus holds as a duplicate.
func TestCorpusReindexIdempotentProperty(t *testing.T) {
	wc := func(s string) int { return len(s) }
	f := func(seed int64) bool {
		c := arbCorpus(seed)
		if c.Snapshot().Validate() != nil {
			return false
		}
		bloggers := make([]*Blogger, 0, len(c.Bloggers))
		for _, id := range c.BloggerIDs() {
			bloggers = append(bloggers, c.Bloggers[id])
		}
		posts := make([]*Post, 0, len(c.Posts))
		for _, id := range c.Journal().Posts {
			posts = append(posts, c.Posts[id])
		}
		r, err := FromParts(bloggers, posts, c.Links)
		if err != nil || ComputeStats(wc, nil, c.Snapshot()) != ComputeStats(wc, nil, r.Snapshot()) {
			return false
		}
		if !slices.Equal(r.Journal().Posts, slices.Sorted(maps.Keys(c.Posts))) {
			return false
		}
		for _, l := range c.Links {
			if added, err := r.AddLinkDedup(l.From, l.To); added || err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
