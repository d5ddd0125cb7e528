package synth

import (
	"math"
	"testing"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/lexicon"
	"mass/internal/sentiment"
	"mass/internal/textutil"
)

func small(t *testing.T, seed int64) (*blog.Corpus, *GroundTruth) {
	t.Helper()
	c, gt, err := Generate(Config{Seed: seed, Bloggers: 60, Posts: 400})
	if err != nil {
		t.Fatal(err)
	}
	return c, gt
}

func TestGenerateValidCorpus(t *testing.T) {
	c, gt := small(t, 1)
	if err := c.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Bloggers) != 60 {
		t.Fatalf("bloggers = %d, want 60", len(c.Bloggers))
	}
	if len(c.Posts) < 200 {
		t.Fatalf("posts = %d, want a few hundred", len(c.Posts))
	}
	if len(gt.Expertise) != 60 || len(gt.PrimaryDomain) != 60 {
		t.Fatal("ground truth incomplete")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c1, gt1 := small(t, 42)
	c2, gt2 := small(t, 42)
	if len(c1.Posts) != len(c2.Posts) || len(c1.Links) != len(c2.Links) {
		t.Fatal("same seed must give identical sizes")
	}
	for _, pid := range c1.Snapshot().PostIDs() {
		if c1.Posts[pid].Body != c2.Posts[pid].Body {
			t.Fatalf("post %s body differs between runs", pid)
		}
	}
	for id, pd := range gt1.PrimaryDomain {
		if gt2.PrimaryDomain[id] != pd {
			t.Fatal("ground truth differs between runs")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	c1, _ := small(t, 1)
	c2, _ := small(t, 2)
	same := true
	ids1, ids2 := c1.Snapshot().PostIDs(), c2.Snapshot().PostIDs()
	if len(ids1) != len(ids2) {
		same = false
	} else {
		for i := range ids1 {
			if c1.Posts[ids1[i]].Body != c2.Posts[ids2[i]].Body {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds must give different corpora")
	}
}

func TestGenerateRejectsTiny(t *testing.T) {
	if _, _, err := Generate(Config{Bloggers: 1}); err == nil {
		t.Fatal("1 blogger must be rejected")
	}
}

func TestPostsCarryTrueDomain(t *testing.T) {
	c, _ := small(t, 3)
	domains := map[string]bool{}
	for _, d := range lexicon.Domains() {
		domains[d] = true
	}
	for _, pid := range c.Snapshot().PostIDs() {
		if !domains[c.Posts[pid].TrueDomain] {
			t.Fatalf("post %s has invalid TrueDomain %q", pid, c.Posts[pid].TrueDomain)
		}
	}
}

func TestDomainTextIsClassifiable(t *testing.T) {
	// A classifier trained on TrainingExamples must recover the planted
	// domain of original posts far above chance.
	c, _ := small(t, 4)
	nb, err := classify.TrainNaiveBayes(TrainingExamples(nil, 20, 99))
	if err != nil {
		t.Fatal(err)
	}
	total, correct := 0, 0
	for _, pid := range c.Snapshot().PostIDs() {
		p := c.Posts[pid]
		top, _ := classify.Top(classify.Classify(nb, p.Body))
		total++
		if top == p.TrueDomain {
			correct++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.7 {
		t.Fatalf("classifier accuracy on synthetic posts = %.2f, want >= 0.7", acc)
	}
}

func TestExpertsEarnPositiveComments(t *testing.T) {
	c, gt := small(t, 5)
	an := sentiment.NewAnalyzer()
	var expPos, expTotal, novPos, novTotal float64
	for _, pid := range c.Snapshot().PostIDs() {
		p := c.Posts[pid]
		e := gt.Expertise[p.Author][p.TrueDomain]
		for _, cm := range p.Comments {
			isPos := an.Score(cm.Text) == sentiment.Positive
			if e > 0.6 {
				expTotal++
				if isPos {
					expPos++
				}
			} else if e < 0.2 {
				novTotal++
				if isPos {
					novPos++
				}
			}
		}
	}
	if expTotal < 10 || novTotal < 10 {
		t.Skipf("not enough comments to compare (exp=%v nov=%v)", expTotal, novTotal)
	}
	if expPos/expTotal <= novPos/novTotal {
		t.Fatalf("experts must earn more praise: expert %.2f vs novice %.2f",
			expPos/expTotal, novPos/novTotal)
	}
}

func TestExpertsAttractLinksAndComments(t *testing.T) {
	c, gt := small(t, 6)
	// Average in-links of the top-expertise quartile vs the bottom.
	type bucket struct{ links, comments, n float64 }
	var hi, lo bucket
	inLinks := map[blog.BloggerID]int{}  // link records pointing at each blogger
	comments := map[blog.BloggerID]int{} // comments received on each author's posts
	for _, l := range c.Links {
		inLinks[l.To]++
	}
	for _, p := range c.Posts {
		comments[p.Author] += len(p.Comments)
	}
	for _, id := range c.BloggerIDs() {
		best := 0.0
		for _, e := range gt.Expertise[id] {
			if e > best {
				best = e
			}
		}
		nl, nc := float64(inLinks[id]), float64(comments[id])
		if best > 0.5 {
			hi.links += nl
			hi.comments += nc
			hi.n++
		} else if best < 0.1 {
			lo.links += nl
			lo.comments += nc
			lo.n++
		}
	}
	if hi.n == 0 || lo.n == 0 {
		t.Skip("quartiles empty for this seed")
	}
	if hi.links/hi.n <= lo.links/lo.n {
		t.Fatalf("experts must attract more links: %.2f vs %.2f", hi.links/hi.n, lo.links/lo.n)
	}
	if hi.comments/hi.n <= lo.comments/lo.n {
		t.Fatalf("experts must attract more comments: %.2f vs %.2f", hi.comments/hi.n, lo.comments/lo.n)
	}
}

func TestCopyRateInjectsCopies(t *testing.T) {
	c, _, err := Generate(Config{Seed: 7, Bloggers: 60, Posts: 500, CopyRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, pid := range c.Snapshot().PostIDs() {
		body := c.Posts[pid].Body
		if len(body) >= len("reposted from") && body[:13] == "reposted from" {
			copies++
		}
	}
	if copies == 0 {
		t.Fatal("CopyRate=0.5 must inject credit-line copies")
	}
}

func TestTrueTopK(t *testing.T) {
	_, gt := small(t, 8)
	for _, d := range lexicon.Domains() {
		top := gt.TrueTopK(d, 5)
		for i := 1; i < len(top); i++ {
			if gt.TrueScore(top[i-1], d) < gt.TrueScore(top[i], d) {
				t.Fatalf("TrueTopK(%s) not descending: %v", d, top)
			}
		}
	}
	if len(gt.TrueTopK("NoSuchDomain", 5)) != 0 {
		t.Fatal("unknown domain must give empty top-k")
	}
}

func TestProfilesMentionPrimaryDomain(t *testing.T) {
	c, gt := small(t, 9)
	matched := 0
	for _, id := range c.BloggerIDs() {
		vocab := map[string]bool{}
		for _, w := range lexicon.Vocabulary(gt.PrimaryDomain[id]) {
			vocab[w] = true
		}
		for _, tok := range textutil.Tokenize(c.Bloggers[id].Profile) {
			if vocab[tok] {
				matched++
				break
			}
		}
	}
	if float64(matched) < 0.9*float64(len(c.Bloggers)) {
		t.Fatalf("only %d/%d profiles mention their primary domain", matched, len(c.Bloggers))
	}
}

func TestPostLengthTracksExpertise(t *testing.T) {
	c, gt := small(t, 10)
	var hiLen, hiN, loLen, loN float64
	for _, pid := range c.Snapshot().PostIDs() {
		p := c.Posts[pid]
		e := gt.Expertise[p.Author][p.TrueDomain]
		l := float64(textutil.WordCount(p.Body))
		if e > 0.6 {
			hiLen += l
			hiN++
		} else if e < 0.1 {
			loLen += l
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("no posts in quartiles for this seed")
	}
	if hiLen/hiN <= loLen/loN {
		t.Fatalf("experts must write longer posts: %.1f vs %.1f", hiLen/hiN, loLen/loN)
	}
}

func TestTrainingExamplesShape(t *testing.T) {
	ex := TrainingExamples([]string{lexicon.Art, lexicon.Sports}, 7, 1)
	if len(ex) != 14 {
		t.Fatalf("len = %d, want 14", len(ex))
	}
	ex2 := TrainingExamples([]string{lexicon.Art, lexicon.Sports}, 7, 1)
	for i := range ex {
		if ex[i] != ex2[i] {
			t.Fatal("TrainingExamples must be deterministic")
		}
	}
	if len(TrainingExamples(nil, 1, 1)) != len(lexicon.Domains()) {
		t.Fatal("nil domains must default to all ten")
	}
}

func TestPoissonMean(t *testing.T) {
	c, _, err := Generate(Config{Seed: 11, Bloggers: 80, Posts: 600, MeanComments: 5})
	if err != nil {
		t.Fatal(err)
	}
	var total, n float64
	for _, pid := range c.Snapshot().PostIDs() {
		total += float64(len(c.Posts[pid].Comments))
		n++
	}
	mean := total / n
	// The effective mean is MeanComments scaled by (0.4 + 1.6·e) with a
	// mostly-novice population and some dropped self-comments, so just
	// check it is in a sane band.
	if mean < 1 || mean > 12 {
		t.Fatalf("mean comments per post = %.2f, outside sanity band", mean)
	}
}

func TestActivityBounds(t *testing.T) {
	_, gt := small(t, 12)
	for id, a := range gt.Activity {
		if a < 0 || a > 1 {
			t.Fatalf("activity[%s] = %v out of [0,1]", id, a)
		}
		for d, e := range gt.Expertise[id] {
			if e < 0 || e > 1 || math.IsNaN(e) {
				t.Fatalf("expertise[%s][%s] = %v", id, d, e)
			}
		}
	}
}
