package blog

import (
	"fmt"
	"math/rand"
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
		dup := false
		for _, t := range c.OutLinks(from) {
			if t == to {
				dup = true
			}
		}
		if !dup {
			if err := c.AddLink(from, to); err != nil {
				panic(err)
			}
		}
	}
	return c
}

// Property: every generated corpus validates, and Reindex is idempotent —
// indexes after Reindex match the incrementally-maintained ones.
func TestCorpusReindexIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := arbCorpus(seed)
		if c.Validate() != nil {
			return false
		}
		type snapshot struct {
			posts map[BloggerID]int
			tc    map[BloggerID]int
			in    map[BloggerID]int
		}
		take := func() snapshot {
			s := snapshot{map[BloggerID]int{}, map[BloggerID]int{}, map[BloggerID]int{}}
			for _, id := range c.BloggerIDs() {
				s.posts[id] = len(c.PostsBy(id))
				s.tc[id] = c.TotalComments(id)
				s.in[id] = len(c.InLinks(id))
			}
			return s
		}
		before := take()
		c.Reindex()
		after := take()
		for _, id := range c.BloggerIDs() {
			if before.posts[id] != after.posts[id] ||
				before.tc[id] != after.tc[id] ||
				before.in[id] != after.in[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
