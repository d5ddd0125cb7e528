package taginterest

import (
	"testing"

	"mass/internal/blog"
	"mass/internal/lexicon"
	"mass/internal/synth"
)

// taggedCorpus plants two clean interests: {go, code, test} used by dev
// bloggers and {paint, canvas, brush} used by artists, plus a loner tag.
func taggedCorpus(t *testing.T) *blog.Corpus {
	t.Helper()
	c := blog.NewCorpus()
	for _, id := range []string{"dev1", "dev2", "artist"} {
		if err := c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)}); err != nil {
			t.Fatal(err)
		}
	}
	posts := []struct {
		id     string
		author string
		tags   []string
	}{
		{"p1", "dev1", []string{"go", "code"}},
		{"p2", "dev1", []string{"go", "test"}},
		{"p3", "dev2", []string{"code", "test"}},
		{"p4", "dev2", []string{"go", "code", "test"}},
		{"p5", "artist", []string{"paint", "canvas"}},
		{"p6", "artist", []string{"paint", "brush"}},
		{"p7", "artist", []string{"canvas", "brush", "paint"}},
		{"p8", "dev1", []string{"loner"}},
	}
	for _, p := range posts {
		if err := c.AddPost(&blog.Post{ID: blog.PostID(p.id), Author: blog.BloggerID(p.author),
			Body: "body", Tags: p.tags}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestDiscoverTwoInterests(t *testing.T) {
	groups, err := Discover(taggedCorpus(t).Snapshot(), Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("want 2 interest groups, got %d: %+v", len(groups), groups)
	}
	byTop := map[string]Group{}
	for _, g := range groups {
		byTop[g.Tags[0]] = g
	}
	devGroup, ok := byTop["go"]
	if !ok {
		// "code" or "go" could lead depending on counts; find by member.
		for _, g := range groups {
			for _, tag := range g.Tags {
				if tag == "go" {
					devGroup, ok = g, true
				}
			}
		}
	}
	if !ok {
		t.Fatalf("dev group missing: %+v", groups)
	}
	if len(devGroup.Tags) != 3 {
		t.Fatalf("dev group tags = %v", devGroup.Tags)
	}
	// dev1 and dev2 lead the dev community; artist is absent.
	for _, m := range devGroup.Bloggers {
		if m.ID == "artist" {
			t.Fatal("artist must not be in the dev interest group")
		}
	}
	// The loner tag forms no group (below MinGroupTags).
	for _, g := range groups {
		for _, tag := range g.Tags {
			if tag == "loner" {
				t.Fatal("loner tag must not form a group")
			}
		}
	}
}

func TestDiscoverSupportThreshold(t *testing.T) {
	// With a high threshold nothing qualifies.
	if _, err := Discover(taggedCorpus(t).Snapshot(), Config{MinSupport: 10}); err == nil {
		t.Fatal("unreachable support must error")
	}
}

func TestDiscoverNoTags(t *testing.T) {
	c := blog.NewCorpus()
	_ = c.AddBlogger(&blog.Blogger{ID: "a"})
	_ = c.AddPost(&blog.Post{ID: "p", Author: "a", Body: "untagged"})
	if _, err := Discover(c.Snapshot(), Config{}); err == nil {
		t.Fatal("tagless corpus must error")
	}
}

func TestDiscoverOnSyntheticCorpus(t *testing.T) {
	corpus, gt, err := synth.Generate(synth.Config{Seed: 91, Bloggers: 80, Posts: 600})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := Discover(corpus.Snapshot(), Config{MinSupport: 3, TopBloggers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no interests discovered")
	}
	// The dominant group's top community member should actually write in
	// a domain whose vocabulary contains the group's top tag.
	top := groups[0]
	if len(top.Bloggers) == 0 {
		t.Fatal("top group has no community")
	}
	leader := top.Bloggers[0].ID
	primary := gt.PrimaryDomain[leader]
	vocab := map[string]bool{}
	for _, w := range lexicon.Vocabulary(primary) {
		vocab[w] = true
	}
	matched := false
	for _, tag := range top.Tags {
		if vocab[tag] {
			matched = true
			break
		}
	}
	// Generic filler tags can also glue groups; accept either the leader
	// matching or the group containing many tags (merged communities).
	if !matched && len(top.Tags) < 5 {
		t.Fatalf("group %v has no tag from its leader's domain %s", top.Tags[:min(5, len(top.Tags))], primary)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
