package trend

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/synth"
)

// risingCorpus plants a clear trend: Sports posting accelerates over the
// year, Economics fades; "latecomer" only posts in the second half.
func risingCorpus(t *testing.T) *blog.Corpus {
	t.Helper()
	c := blog.NewCorpus()
	for _, id := range []string{"sporty", "econ", "latecomer"} {
		if err := c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)}); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)
	sports := lexicon.Vocabulary(lexicon.Sports)
	econ := lexicon.Vocabulary(lexicon.Economics)
	mkBody := func(vocab []string, i int) string {
		out := ""
		for j := 0; j < 12; j++ {
			out += vocab[(i*5+j)%len(vocab)] + " "
		}
		return out
	}
	n := 0
	addPost := func(author string, vocab []string, ts time.Time) {
		t.Helper()
		n++
		if err := c.AddPost(&blog.Post{
			ID: blog.PostID(fmt.Sprintf("p%03d", n)), Author: blog.BloggerID(author),
			Body: mkBody(vocab, n), Posted: ts,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Month m (0..11): sports posts = m/3, econ posts = (11-m)/3.
	for m := 0; m < 12; m++ {
		ts := t0.AddDate(0, m, 1)
		for i := 0; i < m/3+1; i++ {
			addPost("sporty", sports, ts)
		}
		for i := 0; i < (11-m)/3+1; i++ {
			addPost("econ", econ, ts)
		}
		if m >= 6 {
			addPost("latecomer", sports, ts)
		}
	}
	return c
}

func analyzed(t *testing.T, c *blog.Corpus) *influence.Result {
	t.Helper()
	nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 15, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Novelty is disabled: the fixture's stride-sampled bodies repeat
	// vocabulary windows, and near-duplicate penalties are not what these
	// tests measure.
	an, err := influence.NewAnalyzer(influence.Config{IgnoreNovelty: true}, nb)
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTrendDetectsRisingAndFalling(t *testing.T) {
	c := risingCorpus(t)
	res := analyzed(t, c)
	rep, err := Analyze(c.Snapshot(), res, Config{Buckets: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slopes[lexicon.Sports] <= 0 {
		t.Fatalf("Sports slope = %v, want positive", rep.Slopes[lexicon.Sports])
	}
	if rep.Slopes[lexicon.Economics] >= 0 {
		t.Fatalf("Economics slope = %v, want negative", rep.Slopes[lexicon.Economics])
	}
	if len(rep.Rising) == 0 || rep.Rising[0] != lexicon.Sports {
		t.Fatalf("Rising = %v, want Sports first", rep.Rising)
	}
	found := false
	for _, d := range rep.Falling {
		if d == lexicon.Economics {
			found = true
		}
	}
	if !found {
		t.Fatalf("Economics missing from Falling: %v", rep.Falling)
	}
}

func TestTrendSeriesShape(t *testing.T) {
	c := risingCorpus(t)
	res := analyzed(t, c)
	rep, err := Analyze(c.Snapshot(), res, Config{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := rep.DomainSeries[lexicon.Sports]
	if !ok {
		t.Fatal("no Sports series")
	}
	if len(s.Values) != 4 || s.Width <= 0 {
		t.Fatalf("series = %+v", s)
	}
	var total float64
	for _, v := range s.Values {
		if v < 0 {
			t.Fatal("negative bucket value")
		}
		total += v
	}
	if total <= 0 {
		t.Fatal("empty Sports series")
	}
}

func TestEmergingBlogger(t *testing.T) {
	c := risingCorpus(t)
	res := analyzed(t, c)
	rep, err := Analyze(c.Snapshot(), res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Emerging) == 0 {
		t.Fatal("no emerging bloggers")
	}
	if rep.Emerging[0].ID != "latecomer" {
		t.Fatalf("top emerging = %v, want latecomer", rep.Emerging[0])
	}
	if math.Abs(rep.Emerging[0].RecentShare-1) > 1e-9 {
		t.Fatalf("latecomer recent share = %v, want 1", rep.Emerging[0].RecentShare)
	}
}

func TestTrendErrors(t *testing.T) {
	c := blog.NewCorpus()
	res := &influence.Result{}
	if _, err := Analyze(c.Snapshot(), res, Config{}); err == nil {
		t.Fatal("empty corpus must error")
	}
	if _, err := Analyze(risingCorpus(t).Snapshot(), analyzed(t, risingCorpus(t)), Config{Buckets: 1}); err == nil {
		t.Fatal("1 bucket must error")
	}
	// A negative emerging bound is an error, not a panic slicing the list.
	if _, err := Analyze(risingCorpus(t).Snapshot(), analyzed(t, risingCorpus(t)), Config{TopEmerging: -1}); err == nil {
		t.Fatal("negative TopEmerging must error")
	}
	// Zero time span.
	c2 := blog.NewCorpus()
	_ = c2.AddBlogger(&blog.Blogger{ID: "a"})
	ts := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)
	_ = c2.AddPost(&blog.Post{ID: "p1", Author: "a", Body: "x", Posted: ts})
	_ = c2.AddPost(&blog.Post{ID: "p2", Author: "a", Body: "y", Posted: ts})
	an, _ := influence.NewAnalyzer(influence.Config{}, nil)
	res2, err := an.Analyze(c2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(c2.Snapshot(), res2, Config{}); err == nil {
		t.Fatal("zero span must error")
	}
}

func TestSlope(t *testing.T) {
	if s := slope([]float64{1, 2, 3, 4}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("slope = %v, want 1", s)
	}
	if s := slope([]float64{4, 3, 2, 1}); math.Abs(s+1) > 1e-12 {
		t.Fatalf("slope = %v, want -1", s)
	}
	if s := slope([]float64{2, 2, 2}); s != 0 {
		t.Fatalf("flat slope = %v", s)
	}
	if s := slope([]float64{5}); s != 0 {
		t.Fatalf("single-point slope = %v", s)
	}
}

func TestTrendOnSyntheticCorpus(t *testing.T) {
	// Smoke: the synthetic generator's timeline buckets cleanly.
	corpus, _, err := synth.Generate(synth.Config{Seed: 81, Bloggers: 50, Posts: 300})
	if err != nil {
		t.Fatal(err)
	}
	res := analyzed(t, corpus)
	rep, err := Analyze(corpus.Snapshot(), res, Config{Buckets: 8, TopEmerging: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DomainSeries) == 0 {
		t.Fatal("no domain series")
	}
	if len(rep.Emerging) != 3 {
		t.Fatalf("want 3 emerging, got %d", len(rep.Emerging))
	}
}
