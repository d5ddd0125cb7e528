package core

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/crawler"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/synth"
	"mass/internal/xmlstore"
)

func TestFromCorpusFigure1(t *testing.T) {
	sys, err := FromCorpus(blog.Figure1Corpus(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := sys.TopInfluential(3)
	if len(top) != 3 || top[0] != "Amery" {
		t.Fatalf("top = %v, want Amery first", top)
	}
	econ := sys.TopInDomain(lexicon.Economics, 1)
	if len(econ) != 1 || econ[0] != "Amery" {
		t.Fatalf("Economics top = %v", econ)
	}
	st := sys.Stats()
	if st.Bloggers != 9 || st.Posts != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	// Fig. 2 end-to-end: synth blogosphere → HTTP service → crawl →
	// analyze → recommend → visualize → save/load.
	orig, gt, err := synth.Generate(synth.Config{Seed: 51, Bloggers: 40, Posts: 250})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(blogserver.New(orig))
	defer ts.Close()

	seed := orig.BloggerIDs()[0]
	crawled, stats, err := crawler.New(crawler.Config{Workers: 4, Radius: 30}, nil).
		Crawl(context.Background(), ts.URL, seed)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := FromCorpus(crawled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fetched == 0 {
		t.Fatal("crawl fetched nothing")
	}

	// Advertisement flow.
	recs := sys.AdvertiseText("basketball playoffs and marathon training for athletes", 3)
	if len(recs) == 0 {
		t.Fatal("no ad recommendations")
	}
	if gt.Expertise[recs[0].Blogger] == nil {
		t.Fatalf("recommended unknown blogger %s", recs[0].Blogger)
	}

	// Personalized flow.
	profRecs := sys.RecommendForProfile("I follow hospital medicine and vaccine research", 3)
	if len(profRecs) == 0 {
		t.Fatal("no profile recommendations")
	}

	// Member-based flow with self-exclusion.
	member := sys.TopInfluential(1)[0]
	memberRecs, err := sys.RecommendForBlogger(member, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range memberRecs {
		if r.Blogger == member {
			t.Fatal("self-recommendation")
		}
	}

	// Friend-network restriction.
	frRecs, err := sys.RecommendInFriends(member, lexicon.Sports, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	_ = frRecs

	// Visualization with XML round trip.
	net, err := sys.Network(member, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) == 0 {
		t.Fatal("empty network")
	}

	// Persistence round trip.
	path := filepath.Join(t.TempDir(), "crawl.xml")
	if err := xmlstore.Save(path, crawled); err != nil {
		t.Fatal(err)
	}
	sys2, err := LoadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := sys.TopInfluential(5), sys2.TopInfluential(5)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("reloaded system ranks differently: %v vs %v", t1, t2)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.xml"), Options{}); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestCustomClassifierPluggable(t *testing.T) {
	// The paper: "Other interests mining methods can also be plugged into
	// our system."
	fixed := fixedClassifier{label: lexicon.Travel}
	sys, err := FromCorpus(blog.Figure1Corpus(), Options{Classifier: fixed})
	if err != nil {
		t.Fatal(err)
	}
	// Every post now counts toward Travel; Economics must be empty-ish.
	top := sys.TopInDomain(lexicon.Travel, 1)
	if len(top) != 1 {
		t.Fatal("no travel ranking")
	}
	if sys.Result().DomainScore(top[0], lexicon.Economics) != 0 {
		t.Fatal("fixed classifier must put zero weight on Economics")
	}
}

type fixedClassifier struct{ label string }

func (f fixedClassifier) Posterior(_ []string, dst []float64) { dst[0] = 1 }
func (f fixedClassifier) Labels() []string                    { return []string{f.label} }

func TestBadInfluenceConfigRejected(t *testing.T) {
	_, err := FromCorpus(blog.Figure1Corpus(), Options{
		Influence: influence.Config{Alpha: 5},
	})
	if err == nil {
		t.Fatal("invalid influence config must be rejected")
	}
}
