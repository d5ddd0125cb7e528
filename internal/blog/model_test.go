package blog

import (
	"strings"
	"testing"
	"time"
)

func twoBloggerCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus()
	if err := c.AddBlogger(&Blogger{ID: "a", Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlogger(&Blogger{ID: "b", Name: "B"}); err != nil {
		t.Fatal(err)
	}
	return c
}

// postsOf, commentsBy and inLinks scan the corpus for one blogger's posts
// (in journal order), comments made and in-link records.
func postsOf(c *Corpus, id BloggerID) []PostID {
	var out []PostID
	for _, pid := range c.Journal().Posts {
		if c.Posts[pid].Author == id {
			out = append(out, pid)
		}
	}
	return out
}

func commentsBy(c *Corpus, id BloggerID) int {
	n := 0
	for _, p := range c.Posts {
		for _, cm := range p.Comments {
			if cm.Commenter == id {
				n++
			}
		}
	}
	return n
}

func inLinks(c *Corpus, id BloggerID) int {
	n := 0
	for _, l := range c.Links {
		if l.To == id {
			n++
		}
	}
	return n
}

func TestAddBloggerValidation(t *testing.T) {
	c := NewCorpus()
	if err := c.AddBlogger(&Blogger{ID: ""}); err == nil {
		t.Fatal("empty ID must be rejected")
	}
	if err := c.AddBlogger(nil); err == nil {
		t.Fatal("nil blogger must be rejected")
	}
	if err := c.AddBlogger(&Blogger{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlogger(&Blogger{ID: "a"}); err == nil {
		t.Fatal("duplicate ID must be rejected")
	}
}

func TestAddPostIndexes(t *testing.T) {
	c := twoBloggerCorpus(t)
	p := &Post{ID: "p1", Author: "a", Body: "hello world",
		Comments: []Comment{{Commenter: "b", Text: "nice"}, {Commenter: "b", Text: "again"}}}
	if err := c.AddPost(p); err != nil {
		t.Fatal(err)
	}
	if got := c.Journal().Posts; len(got) != 1 || got[0] != "p1" {
		t.Fatalf("journal posts = %v", got)
	}
	st := ComputeStats(nil, nil, c.Snapshot())
	if st.Posts != 1 || st.Comments != 2 || st.MaxPostsPerUser != 1 || st.MaxCommentsMade != 2 {
		t.Fatalf("stats = %+v, want 1 post with 2 comments, both by b", st)
	}
	if got := commentsBy(c, "a"); got != 0 {
		t.Fatalf("comments by a = %d, want 0", got)
	}
}

func TestAddPostValidation(t *testing.T) {
	c := twoBloggerCorpus(t)
	if err := c.AddPost(&Post{ID: "", Author: "a"}); err == nil {
		t.Fatal("empty post ID must be rejected")
	}
	if err := c.AddPost(&Post{ID: "p", Author: "ghost"}); err == nil {
		t.Fatal("unknown author must be rejected")
	}
	if err := c.AddPost(&Post{ID: "p", Author: "a",
		Comments: []Comment{{Commenter: "ghost"}}}); err == nil {
		t.Fatal("unknown commenter must be rejected")
	}
	if err := c.AddPost(&Post{ID: "p", Author: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPost(&Post{ID: "p", Author: "b"}); err == nil {
		t.Fatal("duplicate post ID must be rejected")
	}
}

func TestAddLink(t *testing.T) {
	c := twoBloggerCorpus(t)
	if err := c.AddLink("a", "a"); err == nil {
		t.Fatal("self-link must be rejected")
	}
	if err := c.AddLink("a", "ghost"); err == nil {
		t.Fatal("link to unknown blogger must be rejected")
	}
	if err := c.AddLink("ghost", "a"); err == nil {
		t.Fatal("link from unknown blogger must be rejected")
	}
	if err := c.AddLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	if len(c.Links) != 1 || c.Links[0] != (Link{From: "a", To: "b"}) {
		t.Fatalf("Links = %v", c.Links)
	}
	// A repeated edge is kept as a record but is no new edge.
	epoch := c.LinkEpoch()
	if err := c.AddLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	if len(c.Links) != 2 || c.LinkEpoch() != epoch {
		t.Fatalf("duplicate link: %d records, epoch %d → %d", len(c.Links), epoch, c.LinkEpoch())
	}
	if added, err := c.AddLinkDedup("a", "b"); added || err != nil {
		t.Fatalf("AddLinkDedup of an existing edge = %v, %v", added, err)
	}
}

func TestReindexMatchesIncremental(t *testing.T) {
	c := twoBloggerCorpus(t)
	if err := c.AddPost(&Post{ID: "p1", Author: "a",
		Comments: []Comment{{Commenter: "b", Text: "x"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	before := ComputeStats(nil, nil, c.Snapshot())
	c.Reindex()
	if got := ComputeStats(nil, nil, c.Snapshot()); got != before {
		t.Fatalf("Reindex changed stats: %+v vs %+v", got, before)
	}
	if got := postsOf(c, "a"); len(got) != 1 || got[0] != "p1" {
		t.Fatalf("Reindex lost the journal's posts: %v", got)
	}
	// The duplicate check survives the rebuild of the link set.
	if added, err := c.AddLinkDedup("a", "b"); added || err != nil {
		t.Fatalf("AddLinkDedup after Reindex = %v, %v", added, err)
	}
}

func TestSortedIDs(t *testing.T) {
	c := NewCorpus()
	for _, id := range []string{"zed", "alpha", "mid"} {
		if err := c.AddBlogger(&Blogger{ID: BloggerID(id)}); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.BloggerIDs()
	if ids[0] != "alpha" || ids[2] != "zed" {
		t.Fatalf("BloggerIDs not sorted: %v", ids)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := Figure1Corpus()
	// Each corruption below is written around the API, so each check
	// freezes a fresh clone rather than extending an earlier generation.
	validate := func() error { return c.Clone().Snapshot().Validate() }
	if err := validate(); err != nil {
		t.Fatalf("Figure1Corpus must validate: %v", err)
	}
	// Corrupt: friend pointing nowhere.
	c.Bloggers["Amery"].Friends = []BloggerID{"nobody"}
	if err := validate(); err == nil || !strings.Contains(err.Error(), "friend") {
		t.Fatalf("expected friend validation error, got %v", err)
	}
	c.Bloggers["Amery"].Friends = nil

	// Corrupt: dangling link.
	c.Links = append(c.Links, Link{From: "Amery", To: "nobody"})
	if err := validate(); err == nil {
		t.Fatal("expected link validation error")
	}
	c.Links = c.Links[:len(c.Links)-1]

	// Corrupt: post with unknown author.
	c.Posts["bad"] = &Post{ID: "bad", Author: "nobody"}
	if err := validate(); err == nil {
		t.Fatal("expected author validation error")
	}
	delete(c.Posts, "bad")

	// Corrupt: mismatched map key.
	c.Posts["post9"] = &Post{ID: "postX", Author: "Amery"}
	if err := validate(); err == nil {
		t.Fatal("expected map-key mismatch error")
	}
}

func TestFigure1Shape(t *testing.T) {
	c := Figure1Corpus()
	if len(c.Bloggers) != 9 {
		t.Fatalf("Figure 1 has 9 bloggers, got %d", len(c.Bloggers))
	}
	if len(c.Posts) != 4 {
		t.Fatalf("Figure 1 has 4 posts, got %d", len(c.Posts))
	}
	// Amery has post1 (2 comments: Bob, Cary) and post2 (1 comment: Cary).
	ps := postsOf(c, "Amery")
	if len(ps) != 2 {
		t.Fatalf("Amery must have 2 posts, got %v", ps)
	}
	if got := commentsBy(c, "Cary"); got != 2 {
		t.Fatalf("TC(Cary) = %d, want 2", got)
	}
	if got := commentsBy(c, "Bob"); got != 1 {
		t.Fatalf("TC(Bob) = %d, want 1", got)
	}
	if got := inLinks(c, "Amery"); got != 5 {
		t.Fatalf("Amery in-links = %d, want 5", got)
	}
	if c.Posts["post1"].TrueDomain != "Computer" || c.Posts["post2"].TrueDomain != "Economics" {
		t.Fatal("Figure 1 planted domains wrong")
	}
}

func TestNeighborhoodRadius(t *testing.T) {
	c := Figure1Corpus()
	n0 := Neighborhood(c.Snapshot(), "Amery", 0)
	if len(n0) != 1 || n0["Amery"] != 0 {
		t.Fatalf("radius 0 = %v", n0)
	}
	n1 := Neighborhood(c.Snapshot(), "Amery", 1)
	// Direct: commenters Bob, Cary; linkers Bob, Cary, Dolly, Helen, Michael.
	for _, id := range []BloggerID{"Bob", "Cary", "Dolly", "Helen", "Michael"} {
		if n1[id] != 1 {
			t.Fatalf("expected %s at distance 1, got %v", id, n1)
		}
	}
	if _, in := n1["Jane"]; in {
		t.Fatal("Jane is 2 hops away, must not be in radius 1")
	}
	n2 := Neighborhood(c.Snapshot(), "Amery", 2)
	if n2["Jane"] != 2 || n2["Eddie"] != 2 || n2["Leo"] != 2 {
		t.Fatalf("radius 2 = %v", n2)
	}
	if got := Neighborhood(c.Snapshot(), "ghost", 3); len(got) != 0 {
		t.Fatalf("unknown seed must return empty, got %v", got)
	}
}

func TestComputeStats(t *testing.T) {
	c := Figure1Corpus()
	wc := func(s string) int { return len(strings.Fields(s)) }
	st := ComputeStats(wc, nil, c.Snapshot())
	if st.Bloggers != 9 || st.Posts != 4 || st.Comments != 7 || st.Links != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxPostsPerUser != 2 {
		t.Fatalf("MaxPostsPerUser = %d, want 2 (Amery)", st.MaxPostsPerUser)
	}
	if st.MaxCommentsMade != 2 {
		t.Fatalf("MaxCommentsMade = %d, want 2 (Cary)", st.MaxCommentsMade)
	}
	if st.MaxInLinks != 5 {
		t.Fatalf("MaxInLinks = %d, want 5 (Amery)", st.MaxInLinks)
	}
	if st.AvgPostLenWords <= 0 {
		t.Fatal("AvgPostLenWords must be positive")
	}
	if !strings.Contains(st.String(), "bloggers=9") {
		t.Fatalf("Stats.String() = %q", st.String())
	}
}

func TestStatsEmptyCorpus(t *testing.T) {
	st := ComputeStats(func(string) int { return 0 }, nil, NewCorpus().Snapshot())
	if st.Posts != 0 || st.AvgPostLenWords != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestCommentTimestampsPreserved(t *testing.T) {
	c := Figure1Corpus()
	p := c.Posts["post1"]
	if p.Comments[0].Posted.IsZero() || !p.Comments[1].Posted.After(p.Comments[0].Posted) {
		t.Fatal("comment timestamps must be set and ordered")
	}
	if p.Posted.Equal(time.Time{}) {
		t.Fatal("post timestamp must be set")
	}
}
