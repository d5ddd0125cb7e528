package influence

import (
	"math"
	"testing"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/lexicon"
	"strings"
)

// handCorpus is a two-blogger corpus small enough to solve Eqs. 1–5 by
// hand. Blogger a writes post P (10 words) with one neutral comment from b;
// blogger b writes post Q (5 words) with no comments. No hyperlinks, so
// PageRank is uniform (GL = 0.5 each).
//
// Solving with α=0.5, β=0.6, SF_neutral=0.5:
//
//	postInf(Q) = 0.6·(5/10)            = 0.30
//	Inf(b)     = 0.5·0.30 + 0.5·0.5    = 0.40
//	postInf(P) = 0.6·1 + 0.4·(0.40·0.5/1) = 0.68
//	Inf(a)     = 0.5·0.68 + 0.5·0.5    = 0.59
func handCorpus(t *testing.T) *blog.Corpus {
	t.Helper()
	c := blog.NewCorpus()
	for _, id := range []string{"a", "b"} {
		if err := c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddPost(&blog.Post{
		ID: "P", Author: "a",
		Body: "alpha beta gamma delta epsilon zeta eta theta iota kappa",
		Comments: []blog.Comment{
			{Commenter: "b", Text: "okay then"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPost(&blog.Post{
		ID: "Q", Author: "b",
		Body: "one two three four five",
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustAnalyzer(t *testing.T, cfg Config, cl classify.Classifier) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// postScores maps every post to its Inf(b, d_k), read off the dense rows.
func postScores(res *Result) map[blog.PostID]float64 {
	d := res.Dense()
	m := make(map[blog.PostID]float64, len(d.Posts))
	for i, p := range d.Posts {
		m[p] = d.PostScore[i]
	}
	return m
}

func TestHandComputedFixedPoint(t *testing.T) {
	a := mustAnalyzer(t, Config{}, nil)
	res, err := a.Analyze(handCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("must converge")
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"postInf(Q)", res.PostScore("Q"), 0.30},
		{"postInf(P)", res.PostScore("P"), 0.68},
		{"Inf(b)", res.BloggerScores["b"], 0.40},
		{"Inf(a)", res.BloggerScores["a"], 0.59},
		{"GL(a)", res.GL["a"], 0.5},
		{"Quality(P)", res.PostQuality("P"), 1.0},
		{"Quality(Q)", res.PostQuality("Q"), 0.5},
		{"Novelty(P)", res.PostNovelty("P"), 1.0},
	}
	for _, ck := range checks {
		if math.Abs(ck.got-ck.want) > 1e-6 {
			t.Errorf("%s = %v, want %v", ck.name, ck.got, ck.want)
		}
	}
	if math.Abs(res.AP["a"]-0.68) > 1e-6 {
		t.Errorf("AP(a) = %v, want 0.68", res.AP["a"])
	}
}

func TestSentimentFactorsMatter(t *testing.T) {
	// A positive comment must raise the post's score above a negative one.
	build := func(commentText string) *blog.Corpus {
		c := blog.NewCorpus()
		for _, id := range []string{"a", "b"} {
			_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
		}
		_ = c.AddPost(&blog.Post{ID: "P", Author: "a", Body: "w1 w2 w3 w4 w5",
			Comments: []blog.Comment{{Commenter: "b", Text: commentText}}})
		return c
	}
	a := mustAnalyzer(t, Config{}, nil)
	pos, err := a.Analyze(build("I agree, great post"))
	if err != nil {
		t.Fatal(err)
	}
	neg, err := a.Analyze(build("I disagree, this is wrong"))
	if err != nil {
		t.Fatal(err)
	}
	neu, err := a.Analyze(build("see you tomorrow"))
	if err != nil {
		t.Fatal(err)
	}
	if !(pos.PostScore("P") > neu.PostScore("P") && neu.PostScore("P") > neg.PostScore("P")) {
		t.Fatalf("SF ordering violated: pos=%v neu=%v neg=%v",
			pos.PostScore("P"), neu.PostScore("P"), neg.PostScore("P"))
	}
	// SF ratios: comment contribution scales exactly by SF.
	posC := pos.PostScore("P") - 0.6 // β·quality = 0.6·1
	negC := neg.PostScore("P") - 0.6
	if math.Abs(posC/negC-10) > 1e-6 { // 1.0 / 0.1
		t.Fatalf("pos/neg comment contribution ratio = %v, want 10", posC/negC)
	}
}

func TestNoveltyPenalty(t *testing.T) {
	c := blog.NewCorpus()
	_ = c.AddBlogger(&blog.Blogger{ID: "a"})
	_ = c.AddPost(&blog.Post{ID: "orig", Author: "a",
		Body: "my own view on markets and trade balances this quarter"})
	_ = c.AddPost(&blog.Post{ID: "copy", Author: "a",
		Body: "reposted from another site: markets were mixed again today yes"})
	a := mustAnalyzer(t, Config{}, nil)
	res, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.PostNovelty("orig") != 1 {
		t.Fatalf("orig novelty = %v, want 1", res.PostNovelty("orig"))
	}
	if res.PostNovelty("copy") > 0.1 {
		t.Fatalf("copy novelty = %v, want <= 0.1", res.PostNovelty("copy"))
	}
	if res.PostScore("copy") >= res.PostScore("orig") {
		t.Fatal("copied post must score below original of equal length")
	}

	// With IgnoreNovelty both posts (same length) have equal quality.
	a2 := mustAnalyzer(t, Config{IgnoreNovelty: true}, nil)
	res2, err := a2.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PostNovelty("copy") != 1 {
		t.Fatalf("IgnoreNovelty must report 1, got %v", res2.PostNovelty("copy"))
	}
	if math.Abs(res2.PostQuality("copy")-res2.PostQuality("orig")) > 1e-12 {
		t.Fatal("IgnoreNovelty must equalize equal-length posts")
	}
}

func TestAuthorityFacet(t *testing.T) {
	// Two bloggers with identical posts; only links differ. The linked-to
	// blogger must win on GL and hence on Inf.
	c := blog.NewCorpus()
	for _, id := range []string{"a", "b", "c"} {
		_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
	}
	_ = c.AddPost(&blog.Post{ID: "pa", Author: "a", Body: "same words here"})
	_ = c.AddPost(&blog.Post{ID: "pb", Author: "b", Body: "same words here"})
	_ = c.AddLink("c", "a")
	_ = c.AddLink("b", "a")
	a := mustAnalyzer(t, Config{}, nil)
	res, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.GL["a"] <= res.GL["b"] {
		t.Fatalf("GL(a)=%v must exceed GL(b)=%v", res.GL["a"], res.GL["b"])
	}
	if res.BloggerScores["a"] <= res.BloggerScores["b"] {
		t.Fatal("linked-to blogger must have higher Inf")
	}
	// IgnoreAuthority removes the difference entirely.
	a2 := mustAnalyzer(t, Config{IgnoreAuthority: true}, nil)
	res2, err := a2.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.BloggerScores["a"]-res2.BloggerScores["b"]) > 1e-12 {
		t.Fatalf("IgnoreAuthority must equalize: %v vs %v",
			res2.BloggerScores["a"], res2.BloggerScores["b"])
	}
	if res2.GL["a"] != 0 {
		t.Fatal("IgnoreAuthority must zero GL")
	}
}

func TestCitationFacet(t *testing.T) {
	// Same comment from a heavyweight vs a lightweight commenter. With
	// citation on, the heavyweight's comment is worth more.
	build := func() *blog.Corpus {
		c := blog.NewCorpus()
		for _, id := range []string{"author1", "author2", "heavy", "light"} {
			_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
		}
		// heavy gets lots of link authority.
		_ = c.AddLink("author1", "heavy")
		_ = c.AddLink("author2", "heavy")
		_ = c.AddLink("light", "heavy")
		// Equal length, distinct content (the novelty detector must not
		// flag p2 as a near-duplicate of p1).
		_ = c.AddPost(&blog.Post{ID: "p1", Author: "author1", Body: "five words in this post",
			Comments: []blog.Comment{{Commenter: "heavy", Text: "noted"}}})
		_ = c.AddPost(&blog.Post{ID: "p2", Author: "author2", Body: "some other text right here",
			Comments: []blog.Comment{{Commenter: "light", Text: "noted"}}})
		return c
	}
	a := mustAnalyzer(t, Config{}, nil)
	res, err := a.Analyze(build())
	if err != nil {
		t.Fatal(err)
	}
	if res.PostScore("p1") <= res.PostScore("p2") {
		t.Fatalf("comment from influential blogger must be worth more: p1=%v p2=%v",
			res.PostScore("p1"), res.PostScore("p2"))
	}
	// IgnoreCitation equalizes the two posts.
	a2 := mustAnalyzer(t, Config{IgnoreCitation: true}, nil)
	res2, err := a2.Analyze(build())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.PostScore("p1")-res2.PostScore("p2")) > 1e-12 {
		t.Fatal("IgnoreCitation must equalize equal comment counts")
	}
}

func TestTCNormalization(t *testing.T) {
	// A commenter spreading comments over many posts contributes less per
	// comment: TC(b_j) normalization (Eq. 3).
	c := blog.NewCorpus()
	for _, id := range []string{"x", "y", "spread", "focused"} {
		_ = c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
	}
	_ = c.AddPost(&blog.Post{ID: "px", Author: "x", Body: "a b c d e",
		Comments: []blog.Comment{{Commenter: "focused", Text: "hm"}}})
	_ = c.AddPost(&blog.Post{ID: "py", Author: "y", Body: "v w x y z",
		Comments: []blog.Comment{{Commenter: "spread", Text: "hm"}}})
	// spread also comments twice elsewhere (on x's second post).
	_ = c.AddPost(&blog.Post{ID: "px2", Author: "x", Body: "f g h i j",
		Comments: []blog.Comment{
			{Commenter: "spread", Text: "hm"},
			{Commenter: "spread", Text: "hm again"},
		}})
	a := mustAnalyzer(t, Config{}, nil)
	res, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// TC(spread)=3, TC(focused)=1; identical GL for spread/focused (no links)
	// so py's comment term is weaker than px's.
	if res.PostScore("px") <= res.PostScore("py") {
		t.Fatalf("TC normalization violated: px=%v py=%v",
			res.PostScore("px"), res.PostScore("py"))
	}
}

func TestFigure1Analysis(t *testing.T) {
	c := blog.Figure1Corpus()
	cl := trainDomainClassifier(t)
	a := mustAnalyzer(t, Config{}, cl)
	res, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("Figure 1 corpus must converge")
	}
	top := res.TopKGeneral(3)
	if top[0] != "Amery" {
		t.Fatalf("Figure 1 top blogger = %v, want Amery (hub with 2 posts)", top)
	}
	// Domain separation: post2 (Economics) belongs overwhelmingly to
	// Economics per the classifier.
	pi, _ := res.PostIndex("post2")
	nd := res.domains.Len()
	iv := map[string]float64{}
	for di, p := range res.postDomains[pi*nd : (pi+1)*nd] {
		iv[res.domains.names[di]] = p
	}
	if top2, _ := classify.Top(iv); top2 != lexicon.Economics {
		t.Fatalf("post2 classified as %v, want Economics (iv=%v)", top2, iv)
	}
	// Only Amery has Economics influence among post authors.
	econTop := res.TopKDomain(lexicon.Economics, 1)
	if econTop[0] != "Amery" {
		t.Fatalf("Economics top = %v, want Amery", econTop)
	}
	// Sum over domains of Inf(b,Ct) equals AP(b) because Σ_t iv = 1.
	for b, ds := range res.DomainScoresMap() {
		var sum float64
		for _, s := range ds {
			sum += s
		}
		if math.Abs(sum-res.AP[b]) > 1e-9 {
			t.Fatalf("Σ_t Inf(%s,Ct) = %v != AP = %v", b, sum, res.AP[b])
		}
	}
}

// trainDomainClassifier builds a naive Bayes model over all ten domain
// vocabularies with synthetic snippets.
func trainDomainClassifier(t *testing.T) classify.Classifier {
	t.Helper()
	var ex []classify.Example
	for _, d := range lexicon.Domains() {
		vocab := lexicon.Vocabulary(d)
		for i := 0; i < 8; i++ {
			words := make([]string, 0, 10)
			for j := 0; j < 10; j++ {
				words = append(words, vocab[(i*5+j)%len(vocab)])
			}
			ex = append(ex, classify.Example{Text: strings.Join(words, " "), Label: d})
		}
	}
	nb, err := classify.TrainNaiveBayes(ex)
	if err != nil {
		t.Fatal(err)
	}
	return nb
}

func TestParallelMatchesSerial(t *testing.T) {
	c := blog.Figure1Corpus()
	cl := trainDomainClassifier(t)
	serial := mustAnalyzer(t, Config{}, cl)
	parallel := mustAnalyzer(t, Config{Workers: 4}, cl)
	r1, err := serial.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := parallel.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	for b, s := range r1.BloggerScores {
		if r2.BloggerScores[b] != s {
			t.Fatalf("parallel mismatch for %s: %v vs %v", b, s, r2.BloggerScores[b])
		}
	}
	for b, ds := range r1.DomainScoresMap() {
		for dom, s := range ds {
			if r2.DomainScore(b, dom) != s {
				t.Fatalf("parallel domain mismatch for %s/%s", b, dom)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{}, nil)
	r1, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	for b := range r1.BloggerScores {
		if r1.BloggerScores[b] != r2.BloggerScores[b] {
			t.Fatalf("non-deterministic score for %s", b)
		}
	}
}

// invalidCorpus has a post by an author the corpus does not hold, written
// straight into the map.
func invalidCorpus() *blog.Corpus {
	c := blog.NewCorpus()
	_ = c.AddBlogger(&blog.Blogger{ID: "a"})
	c.Posts["ghostpost"] = &blog.Post{ID: "ghostpost", Author: "nobody"}
	return c
}

func TestAnalyzeRejectsInvalidCorpus(t *testing.T) {
	a := mustAnalyzer(t, Config{}, nil)
	if _, err := a.Analyze(invalidCorpus()); err == nil {
		t.Fatal("invalid corpus must be rejected")
	}
	// A warm cache validates too: the corpus is of another lineage and its
	// journal disagrees with its maps, so the cache resets and validates.
	cache := NewCache()
	if _, err := a.AnalyzeCached(blog.Figure1Corpus().Snapshot(), nil, cache); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AnalyzeCached(invalidCorpus().Snapshot(), nil, cache); err == nil {
		t.Fatal("invalid corpus must be rejected by a warm cache")
	}
}

func TestEmptyCorpus(t *testing.T) {
	a := mustAnalyzer(t, Config{}, nil)
	res, err := a.Analyze(blog.NewCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BloggerScores) != 0 || !res.Converged {
		t.Fatalf("empty corpus result = %+v", res)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Alpha: 2},
		{Beta: -3},
		{SFPositive: 1.5},
		{Epsilon: -1},
		{MaxIter: -5},
	}
	for i, cfg := range bad {
		if _, err := NewAnalyzer(cfg, nil); err == nil {
			t.Errorf("config %d must be rejected: %+v", i, cfg)
		}
	}
	// ExplicitZero is legal.
	if _, err := NewAnalyzer(Config{Alpha: ExplicitZero}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitZeroAlpha(t *testing.T) {
	// Alpha=ExplicitZero means pure GL: blogger scores equal PageRank.
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{Alpha: ExplicitZero}, nil)
	res, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	for b, s := range res.BloggerScores {
		if math.Abs(s-res.GL[b]) > 1e-12 {
			t.Fatalf("alpha=0 must equal GL for %s: %v vs %v", b, s, res.GL[b])
		}
	}
}

func TestScoresNonNegative(t *testing.T) {
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{}, nil)
	res, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	for b, s := range res.BloggerScores {
		if s < 0 {
			t.Fatalf("negative Inf(%s) = %v", b, s)
		}
	}
	for p, s := range postScores(res) {
		if s < 0 {
			t.Fatalf("negative postInf(%s) = %v", p, s)
		}
	}
}

func TestIgnoreSentimentUpperBound(t *testing.T) {
	// With sentiment ignored every SF becomes 1, so comment contributions
	// can only grow: every post score is >= the sentiment-aware score.
	c := blog.Figure1Corpus()
	with := mustAnalyzer(t, Config{}, nil)
	without := mustAnalyzer(t, Config{IgnoreSentiment: true}, nil)
	rw, err := with.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := without.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	for p := range postScores(rw) {
		if ro.PostScore(p) < rw.PostScore(p)-1e-9 {
			t.Fatalf("IgnoreSentiment lowered post %s: %v < %v",
				p, ro.PostScore(p), rw.PostScore(p))
		}
	}
}

func TestMaxIterRespected(t *testing.T) {
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{MaxIter: 2, Epsilon: 1e-300}, nil)
	res, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 2 {
		t.Fatalf("MaxIter=2: iters=%d converged=%v", res.Iterations, res.Converged)
	}
}

func TestDomainVectorCopy(t *testing.T) {
	c := blog.Figure1Corpus()
	a := mustAnalyzer(t, Config{}, trainDomainClassifier(t))
	res, err := a.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	v := res.DomainVector("Amery")
	if len(v) == 0 {
		t.Fatal("Amery must have a domain vector")
	}
	v[lexicon.Sports] = 999
	if res.DomainScore("Amery", lexicon.Sports) == 999 {
		t.Fatal("DomainVector must return a copy")
	}
}
