package recommend

import (
	"math"
	"strings"
	"testing"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/synth"
)

type fixture struct {
	rec    *Recommender
	corpus *blog.Frozen
	gt     *synth.GroundTruth
	res    *influence.Result
}

func setup(t *testing.T) *fixture {
	t.Helper()
	c, gt, err := synth.Generate(synth.Config{Seed: 31, Bloggers: 80, Posts: 500})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 20, 78))
	if err != nil {
		t.Fatal(err)
	}
	an, err := influence.NewAnalyzer(influence.Config{}, nb)
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := New(nb, res, c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{rec: rec, corpus: c.Snapshot(), gt: gt, res: res}
}

func TestNewValidation(t *testing.T) {
	f := setup(t)
	if _, err := New(nil, f.res, f.corpus); err == nil {
		t.Fatal("nil classifier rejected")
	}
	if _, err := New(f.rec.classifier, nil, f.corpus); err == nil {
		t.Fatal("nil result rejected")
	}
	if _, err := New(f.rec.classifier, f.res, nil); err == nil {
		t.Fatal("nil corpus rejected")
	}
}

func TestForProfile(t *testing.T) {
	f := setup(t)
	profile := "I love painting and sculpture, spend weekends at the gallery " +
		"sketching portraits and studying watercolor composition"
	recs := f.rec.ForProfile(profile, 3)
	if len(recs) != 3 {
		t.Fatalf("want 3, got %d", len(recs))
	}
	// Top recommendation must be an Art-capable blogger.
	if f.gt.Expertise[recs[0].Blogger][lexicon.Art] == 0 {
		t.Fatalf("top rec %s has no Art expertise (primary %s)",
			recs[0].Blogger, f.gt.PrimaryDomain[recs[0].Blogger])
	}
}

func TestForInterestEdgeCases(t *testing.T) {
	f := setup(t)
	// No interest falls back to the general ranking, scores included.
	got, want := f.rec.ForInterest(nil, 4), f.res.TopGeneral(4)
	if len(got) != len(want) {
		t.Fatalf("general fallback: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].Blogger) != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("general fallback row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := f.rec.ForInterest(map[string]float64{lexicon.Art: math.NaN()}, 3); got != nil {
		t.Fatalf("non-finite weight ranked %v", got)
	}
	if got := f.rec.ForInterest(map[string]float64{lexicon.Art: 1}, 0); got != nil {
		t.Fatalf("k = 0 ranked %v", got)
	}
}

func TestForDomainMatchesResultTopK(t *testing.T) {
	f := setup(t)
	recs := f.rec.ForInterest(map[string]float64{lexicon.Travel: 1}, 5)
	want := f.res.TopKDomain(lexicon.Travel, 5)
	if len(recs) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(recs), len(want))
	}
	for i := range recs {
		if recs[i].Blogger != want[i] {
			t.Fatalf("one-domain ForInterest diverges from TopKDomain at %d: %v vs %v",
				i, recs[i].Blogger, want[i])
		}
	}
}

func TestForBloggerExcludesSelf(t *testing.T) {
	f := setup(t)
	// Pick the overall top blogger — likely to top their own domain too.
	top := f.res.TopKGeneral(1)[0]
	recs, err := f.rec.ForBlogger(top, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Blogger == top {
			t.Fatal("self must be excluded from personalized recs")
		}
	}
	if _, err := f.rec.ForBlogger("nobody", 3); err == nil {
		t.Fatal("unknown blogger must error")
	}
}

func TestForBloggerUsesProfileDomain(t *testing.T) {
	f := setup(t)
	// Find a blogger whose profile clearly names their primary domain.
	var id blog.BloggerID
	for _, b := range f.corpus.BloggerIDs() {
		if f.gt.PrimaryDomain[b] == lexicon.Medicine &&
			strings.Contains(f.corpus.Blogger(b).Profile, "interested in") {
			id = b
			break
		}
	}
	if id == "" {
		t.Skip("no Medicine blogger in this seed")
	}
	recs, err := f.rec.ForBlogger(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	// The top recommendation should have Medicine influence.
	if f.res.DomainScore(recs[0].Blogger, lexicon.Medicine) == 0 {
		t.Fatalf("top rec %s has zero Medicine influence", recs[0].Blogger)
	}
}

func TestWithinFriendsRestricts(t *testing.T) {
	f := setup(t)
	seed := f.corpus.BloggerIDs()[0]
	radius := 1
	recs, err := f.rec.WithinFriends(seed, lexicon.Sports, radius, 50)
	if err != nil {
		t.Fatal(err)
	}
	members := blog.Neighborhood(f.corpus, seed, radius)
	for _, r := range recs {
		if _, in := members[r.Blogger]; !in {
			t.Fatalf("rec %s outside the radius-%d network", r.Blogger, radius)
		}
		if r.Blogger == seed {
			t.Fatal("seed must not recommend itself")
		}
	}
	if _, err := f.rec.WithinFriends("nobody", lexicon.Sports, 1, 3); err == nil {
		t.Fatal("unknown blogger must error")
	}
}

func TestWithinFriendsWiderRadiusFindsMore(t *testing.T) {
	f := setup(t)
	seed := f.corpus.BloggerIDs()[0]
	r1, err := f.rec.WithinFriends(seed, lexicon.Computer, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := f.rec.WithinFriends(seed, lexicon.Computer, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3) < len(r1) {
		t.Fatalf("wider radius returned fewer candidates: %d vs %d", len(r3), len(r1))
	}
}
