package baseline

import (
	"math"
	"testing"

	"mass/internal/blog"
	"mass/internal/linkrank"
)

func TestNames(t *testing.T) {
	if (LiveIndex{}).Name() != "Live Index" ||
		(General{}).Name() != "General" ||
		(IFinder{}).Name() != "iFinder" {
		t.Fatal("ranker names changed; Table I headers depend on them")
	}
}

func TestLiveIndexIsPageRank(t *testing.T) {
	c := blog.Figure1Corpus()
	scores, err := LiveIndex{}.Rank(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := linkrank.CheckStochastic(toStringMap(scores), 1e-8); err != nil {
		t.Fatal(err)
	}
	// Amery receives 5 of the 8 links; she must top the list.
	for b, s := range scores {
		if b != "Amery" && s >= scores["Amery"] {
			t.Fatalf("Amery must top Live Index, but %s=%v >= %v", b, s, scores["Amery"])
		}
	}
}

func TestLiveIndexIgnoresPosts(t *testing.T) {
	// Two corpora with identical links but different posts must rank the
	// same under Live Index.
	c1 := blog.NewCorpus()
	c2 := blog.NewCorpus()
	for _, c := range []*blog.Corpus{c1, c2} {
		for _, id := range []string{"a", "b"} {
			_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
		}
		_ = c.AddLink("a", "b")
	}
	_ = c1.AddPost(&blog.Post{ID: "p", Author: "a", Body: "many words in this long post"})
	s1, err := LiveIndex{}.Rank(c1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := LiveIndex{}.Rank(c2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for b := range s1 {
		if math.Abs(s1[b]-s2[b]) > 1e-12 {
			t.Fatalf("Live Index must ignore posts: %s %v vs %v", b, s1[b], s2[b])
		}
	}
}

func TestGeneralMatchesInfluence(t *testing.T) {
	c := blog.Figure1Corpus()
	scores, err := General{}.Rank(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 9 {
		t.Fatalf("want 9 scores, got %d", len(scores))
	}
	// Amery dominates: 2 substantial posts, 3 comments, 5 in-links.
	for b, s := range scores {
		if b != "Amery" && s >= scores["Amery"] {
			t.Fatalf("Amery must top General: %s=%v", b, s)
		}
	}
}

func TestIFinderBasics(t *testing.T) {
	c := blog.Figure1Corpus()
	scores, err := IFinder{}.Rank(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for b, s := range scores {
		if s < 0 {
			t.Fatalf("iFinder score for %s negative: %v", b, s)
		}
	}
	// Bloggers without posts have iIndex 0.
	if scores["Bob"] != 0 {
		t.Fatalf("Bob has no posts, iIndex = %v, want 0", scores["Bob"])
	}
	if scores["Amery"] <= 0 {
		t.Fatal("Amery must have positive iIndex")
	}
}

func TestIFinderCommentCountMatters(t *testing.T) {
	c := blog.NewCorpus()
	for _, id := range []string{"a", "b", "r1", "r2"} {
		_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
	}
	_ = c.AddPost(&blog.Post{ID: "pa", Author: "a", Body: "one two three four",
		Comments: []blog.Comment{
			{Commenter: "r1", Text: "x"}, {Commenter: "r2", Text: "y"},
		}})
	_ = c.AddPost(&blog.Post{ID: "pb", Author: "b", Body: "aa bb cc dd"})
	scores, err := IFinder{}.Rank(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if scores["a"] <= scores["b"] {
		t.Fatalf("more comments must score higher: a=%v b=%v", scores["a"], scores["b"])
	}
}

func TestIFinderOutlinksLeak(t *testing.T) {
	// Same posts/comments; the blogger with more outlinks scores lower.
	c := blog.NewCorpus()
	for _, id := range []string{"a", "b", "t1", "t2"} {
		_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
	}
	_ = c.AddPost(&blog.Post{ID: "pa", Author: "a", Body: "one two three four"})
	_ = c.AddPost(&blog.Post{ID: "pb", Author: "b", Body: "aa bb cc dd"})
	// Both need an inlink so the flow is positive before the leak.
	_ = c.AddLink("t1", "a")
	_ = c.AddLink("t2", "b")
	_ = c.AddLink("a", "t1") // a leaks influence outward
	scores, err := IFinder{}.Rank(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if scores["a"] >= scores["b"] {
		t.Fatalf("outlink leak violated: a=%v b=%v", scores["a"], scores["b"])
	}
}

func TestIFinderFlowClampedAtZero(t *testing.T) {
	c := blog.NewCorpus()
	for _, id := range []string{"a", "b"} {
		_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
	}
	_ = c.AddPost(&blog.Post{ID: "p", Author: "a", Body: "w1 w2 w3"})
	_ = c.AddLink("a", "b") // only outlinks, no comments: flow would be negative
	scores, err := IFinder{}.Rank(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if scores["a"] != 0 {
		t.Fatalf("negative flow must clamp to 0, got %v", scores["a"])
	}
}

func TestIFinderMaxOverPosts(t *testing.T) {
	// iIndex takes the best post, not the sum: one great post beats two
	// mediocre ones of the same combined weight.
	c := blog.NewCorpus()
	for _, id := range []string{"one", "two", "r"} {
		_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
	}
	_ = c.AddPost(&blog.Post{ID: "big", Author: "one",
		Body: "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10",
		Comments: []blog.Comment{
			{Commenter: "r", Text: "c1"}, {Commenter: "r", Text: "c2"},
		}})
	_ = c.AddPost(&blog.Post{ID: "small1", Author: "two", Body: "w1 w2 w3 w4 w5",
		Comments: []blog.Comment{{Commenter: "r", Text: "c3"}}})
	_ = c.AddPost(&blog.Post{ID: "small2", Author: "two", Body: "v1 v2 v3 v4 v5",
		Comments: []blog.Comment{{Commenter: "r", Text: "c4"}}})
	scores, err := IFinder{}.Rank(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// one: 1.0 * 2 = 2; two: max(0.5*1, 0.5*1) = 0.5.
	if math.Abs(scores["one"]-2) > 1e-9 || math.Abs(scores["two"]-0.5) > 1e-9 {
		t.Fatalf("iIndex = %v, want one=2 two=0.5", scores)
	}
}

func TestRankersOnEmptyCorpus(t *testing.T) {
	c := blog.NewCorpus()
	for _, r := range []Ranker{LiveIndex{}, General{}, IFinder{}} {
		scores, err := r.Rank(c.Snapshot())
		if err != nil {
			t.Fatalf("%s on empty corpus: %v", r.Name(), err)
		}
		if len(scores) != 0 {
			t.Fatalf("%s must return empty scores", r.Name())
		}
	}
}

func toStringMap(m map[blog.BloggerID]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[string(k)] = v
	}
	return out
}
