package core

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/recommend"
	"mass/internal/synth"
)

// scenarioFixture is one analyzed synthetic corpus with its planted
// ground truth, shared by the scenario tests.
type scenarioFixture struct {
	sys *System
	gt  *synth.GroundTruth
}

var (
	scenarioOnce sync.Once
	scenarioFix  scenarioFixture
)

func scenarioSystem(t *testing.T) scenarioFixture {
	t.Helper()
	scenarioOnce.Do(func() {
		c, gt, err := synth.Generate(synth.Config{Seed: 21, Bloggers: 80, Posts: 500})
		if err != nil {
			panic(err)
		}
		sys, err := FromCorpus(c, Options{TrainingPerDomain: 20, TrainingSeed: 77})
		if err != nil {
			panic(err)
		}
		scenarioFix = scenarioFixture{sys: sys, gt: gt}
	})
	return scenarioFix
}

const sportsAd = "New basketball sneakers for marathon training and the " +
	"olympics season, built for every athlete and coach in the league"

// interestReference ranks every blogger except skip by the dot product of
// its dense domain row with iv, summed in slot order, score descending
// then ID ascending, and keeps the first k: the test-local oracle for the
// scenario rankings.
func interestReference(res *influence.Result, iv map[string]float64, k int, skip blog.BloggerID) []recommend.Recommendation {
	d := res.Dense()
	nd := len(d.Domains)
	var out []recommend.Recommendation
	for i, b := range d.Bloggers {
		if b == skip {
			continue
		}
		var dot float64
		for di, name := range d.Domains {
			dot += d.DomainScores[i*nd+di] * iv[name]
		}
		out = append(out, recommend.Recommendation{Blogger: b, Score: dot})
	}
	slices.SortFunc(out, func(a, b recommend.Recommendation) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(string(a.Blogger), string(b.Blogger))
	})
	return out[:max(0, min(k, len(out)))]
}

// sameRanking requires identical bloggers, order and scores, bit for bit.
func sameRanking(t *testing.T, what string, got, want []recommend.Recommendation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func TestAdvertClassifiedAsSports(t *testing.T) {
	f := scenarioSystem(t)
	if top, p := classify.Top(classify.Classify(f.sys.Classifier(), sportsAd)); top != lexicon.Sports {
		t.Fatalf("ad classified as %s (p=%.2f), want Sports", top, p)
	}
}

func TestAdvertiseTextRanksSportsBloggers(t *testing.T) {
	f := scenarioSystem(t)
	recs := f.sys.AdvertiseText(sportsAd, 5)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatalf("scores not descending: %v", recs)
		}
	}
	// The top target must actually write Sports (planted expertise).
	if top := recs[0].Blogger; f.gt.Expertise[top][lexicon.Sports] == 0 {
		t.Fatalf("top ad target %s has no planted Sports expertise (primary=%s)",
			top, f.gt.PrimaryDomain[top])
	}
}

func TestAdvertiseTextScoreIsDotProduct(t *testing.T) {
	f := scenarioSystem(t)
	top := f.sys.AdvertiseText(sportsAd, 1)[0]
	var dot float64
	for d, w := range classify.Classify(f.sys.Classifier(), sportsAd) {
		dot += f.sys.Result().DomainScore(top.Blogger, d) * w
	}
	if diff := math.Abs(dot - top.Score); diff > 1e-12 {
		t.Fatalf("Inf(b, a) = %v, AdvertiseText said %v", dot, top.Score)
	}
}

func TestAdvertiseDomainsExplicit(t *testing.T) {
	f := scenarioSystem(t)
	recs := f.sys.AdvertiseDomains([]string{lexicon.Sports}, 3)
	want := f.sys.TopInDomain(lexicon.Sports, 3)
	if len(recs) != 3 || len(want) != 3 {
		t.Fatalf("want 3 recs, got %d (domain ranking %d)", len(recs), len(want))
	}
	for i := range recs {
		if recs[i].Blogger != want[i] {
			t.Fatalf("dropdown ranking %v differs from the domain ranking %v", recs, want)
		}
	}
}

func TestAdvertiseDomainsEmptyFallsBackToGeneral(t *testing.T) {
	f := scenarioSystem(t)
	recs := f.sys.AdvertiseDomains(nil, 3)
	want := f.sys.Result().TopGeneral(3)
	if len(recs) != 3 {
		t.Fatalf("want 3 general recs, got %d", len(recs))
	}
	for i := range recs {
		if string(recs[i].Blogger) != want[i].ID || recs[i].Score != want[i].Score {
			t.Fatalf("general fallback mismatch: %v vs %v", recs, want)
		}
	}
}

func TestAdvertiseDomainsSplitsWeight(t *testing.T) {
	f := scenarioSystem(t)
	both := f.sys.AdvertiseDomains([]string{lexicon.Sports, lexicon.Art}, 10)
	if len(both) == 0 {
		t.Fatal("no recs")
	}
	for _, r := range both {
		dv := f.sys.Result().DomainVector(r.Blogger)
		want := (dv[lexicon.Sports] + dv[lexicon.Art]) / 2
		if diff := math.Abs(r.Score - want); diff > 1e-12 {
			t.Fatalf("multi-domain score %v != %v", r.Score, want)
		}
	}
}

func TestAdvertiseDomainsDuplicateAccumulates(t *testing.T) {
	f := scenarioSystem(t)
	recs := f.sys.AdvertiseDomains([]string{lexicon.Sports, lexicon.Art, lexicon.Sports}, 10)
	if len(recs) == 0 {
		t.Fatal("no recs")
	}
	for _, r := range recs {
		dv := f.sys.Result().DomainVector(r.Blogger)
		want := dv[lexicon.Sports]*2/3 + dv[lexicon.Art]/3
		if diff := math.Abs(r.Score - want); diff > 1e-12 {
			t.Fatalf("duplicate-domain score %v != %v", r.Score, want)
		}
	}
}

// TestScenarioMethodsMatchReference is the differential check on the
// four scenario methods: every one equals the dense reference bit for bit
// across empty and unknown-word texts, duplicate, unknown and blank
// domains, and list lengths from none to past the corpus size; and a
// member never appears in their own recommendations.
func TestScenarioMethodsMatchReference(t *testing.T) {
	f := scenarioSystem(t)
	res := f.sys.Result()
	mine := func(text string) map[string]float64 { return classify.Classify(f.sys.Classifier(), text) }
	texts := []string{sportsAd, "", "zzqx blorptastic unknownword",
		"the stock market and bank interest rates", "I love painting and sculpture at the gallery"}
	domainLists := [][]string{{lexicon.Sports}, {lexicon.Sports, lexicon.Art},
		{lexicon.Sports, lexicon.Sports}, {"no-such-domain"}, {""}}
	ids := f.sys.Corpus().BloggerIDs()
	members := []blog.BloggerID{ids[0], ids[len(ids)/2], ids[len(ids)-1], f.sys.TopInfluential(1)[0]}
	for _, k := range []int{1, 3, 10, 100, 1200, 5000, 0, -1} {
		for _, text := range texts {
			want := interestReference(res, mine(text), k, "")
			sameRanking(t, "AdvertiseText", f.sys.AdvertiseText(text, k), want)
			sameRanking(t, "RecommendForProfile", f.sys.RecommendForProfile(text, k), want)
		}
		for _, domains := range domainLists {
			iv := map[string]float64{}
			for _, d := range domains {
				iv[d] += 1 / float64(len(domains))
			}
			sameRanking(t, "AdvertiseDomains "+strings.Join(domains, ","),
				f.sys.AdvertiseDomains(domains, k), interestReference(res, iv, k, ""))
		}
		for _, m := range members {
			got, err := f.sys.RecommendForBlogger(m, k)
			if err != nil {
				t.Fatal(err)
			}
			want := interestReference(res, mine(f.sys.Corpus().Blogger(m).Profile), k, m)
			sameRanking(t, "RecommendForBlogger "+string(m), got, want)
			for _, r := range got {
				if r.Blogger == m {
					t.Fatalf("member %s recommended to themselves", m)
				}
			}
		}
	}
}
