package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mass/internal/lexicon"
)

// testConfig is small enough to run all experiments quickly in CI.
func testConfig() Config {
	return Config{Seed: 2010, Bloggers: 120, Posts: 900}
}

func TestTable1ShapeHolds(t *testing.T) {
	r, err := ExperimentTable1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.ShapeHolds() {
		var buf bytes.Buffer
		r.Format(&buf)
		t.Fatalf("Table I shape did not reproduce:\n%s", buf.String())
	}
	// Scores are on the 1–5 scale.
	for sys, ds := range r.Scores {
		for d, s := range ds {
			if s < 1 || s > 5 {
				t.Fatalf("%s/%s score %v outside 1..5", sys, d, s)
			}
		}
	}
	// Domain-specific should be clearly better, not marginally (the paper
	// reports gaps of ~1 point).
	for _, d := range Table1Domains {
		gap := r.Scores["Domain Specific"][d] - r.Scores["General"][d]
		if gap < 0.3 {
			t.Fatalf("Domain Specific advantage in %s only %.2f, want >= 0.3", d, gap)
		}
	}
}

func TestTable1Deterministic(t *testing.T) {
	r1, err := ExperimentTable1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExperimentTable1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for sys, ds := range r1.Scores {
		for d, s := range ds {
			if r2.Scores[sys][d] != s {
				t.Fatalf("Table I not deterministic at %s/%s", sys, d)
			}
		}
	}
}

func TestTable1Format(t *testing.T) {
	r, err := ExperimentTable1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	out := buf.String()
	for _, want := range []string{"Table I", "General", "Live Index", "Domain Specific", "Travel", "Sports"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1(t *testing.T) {
	r, err := ExperimentFigure1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("Figure 1 analysis must converge")
	}
	if r.Top3[0] != "Amery" {
		t.Fatalf("top blogger = %v, want Amery", r.Top3)
	}
	// Amery's influence decomposes into both Computer and Economics.
	if r.AmeryDomains[lexicon.Computer] <= 0 || r.AmeryDomains[lexicon.Economics] <= 0 {
		t.Fatalf("Amery domain split missing: %v", r.AmeryDomains)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "Amery") {
		t.Fatal("Format output incomplete")
	}
}

func TestFigure2Pipeline(t *testing.T) {
	cfg := testConfig()
	cfg.Bloggers, cfg.Posts = 50, 300 // crawl over HTTP: keep it snappy
	r, err := ExperimentFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CrawlStats.Fetched == 0 || r.Posts == 0 {
		t.Fatalf("pipeline fetched nothing: %+v", r)
	}
	if !r.ReloadConsistent {
		t.Fatal("XML reload changed the analysis")
	}
	if r.XMLBytes == 0 {
		t.Fatal("snapshot empty")
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "reload consistency") {
		t.Fatal("Format output incomplete")
	}
}

func TestFigure3Advertisement(t *testing.T) {
	r, err := ExperimentFigure3(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MinedDomains) == 0 || r.MinedDomains[0] != lexicon.Sports {
		t.Fatalf("ad must mine Sports first, got %v", r.MinedDomains)
	}
	if len(r.TextTop) != 3 || len(r.DropdownTop) != 3 {
		t.Fatalf("want 3 recommendations per mode: %d/%d", len(r.TextTop), len(r.DropdownTop))
	}
	if r.TargetsOnPoint == 0 {
		t.Fatal("no text-mode target has true Sports expertise")
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "dropdown") {
		t.Fatal("Format output incomplete")
	}
}

func TestFigure4Visualization(t *testing.T) {
	r, err := ExperimentFigure4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes == 0 || r.Edges == 0 {
		t.Fatalf("empty network: %+v", r)
	}
	if !r.XMLRoundTripOK {
		t.Fatal("XML round trip failed")
	}
	if r.SVGBytes == 0 || r.DOTBytes == 0 {
		t.Fatal("exports empty")
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "post-reply") {
		t.Fatal("Format output incomplete")
	}
}

func TestAlphaSweep(t *testing.T) {
	r, err := ExperimentAlphaSweep(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("want 5 sweep points, got %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.NDCG < 0 || p.NDCG > 1 {
			t.Fatalf("NDCG out of range at alpha=%v: %v", p.Value, p.NDCG)
		}
	}
	// Mixing facets (alpha in the middle) must beat pure link authority
	// (alpha=0) — the paper's core claim that posts+comments matter.
	mid := r.Points[2].NDCG // alpha = 0.5
	pureGL := r.Points[0].NDCG
	if mid <= pureGL {
		t.Fatalf("alpha=0.5 (%.3f) must beat pure GL (%.3f)", mid, pureGL)
	}
}

func TestBetaSweep(t *testing.T) {
	r, err := ExperimentBetaSweep(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("want 6 sweep points, got %d", len(r.Points))
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "beta") {
		t.Fatal("Format output incomplete")
	}
}

func TestFacetAblation(t *testing.T) {
	r, err := ExperimentFacetAblation(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("want 5 variants, got %d", len(r.Rows))
	}
	if r.Rows[0].Variant != "full MASS" {
		t.Fatalf("first row must be the full model: %v", r.Rows[0])
	}
	full := r.Rows[0].NDCG
	if full <= 0 {
		t.Fatal("full model NDCG must be positive")
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "sentiment") {
		t.Fatal("Format output incomplete")
	}
}

func TestClassifierExperiment(t *testing.T) {
	r, err := ExperimentClassifier(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"naive Bayes", "TF-IDF centroid"} {
		if r.PostAccuracy[m] < 0.5 {
			t.Fatalf("%s post accuracy %.2f too low", m, r.PostAccuracy[m])
		}
		if r.CVAccuracy[m] < 0.5 {
			t.Fatalf("%s CV accuracy %.2f too low", m, r.CVAccuracy[m])
		}
	}
}

func TestConvergenceExperiment(t *testing.T) {
	r, err := ExperimentConvergence(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("want 4 tolerance points, got %d", len(r.Points))
	}
	// Tighter tolerance needs at least as many iterations.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Iterations < r.Points[i-1].Iterations {
			t.Fatalf("iterations must not decrease as eps tightens: %+v", r.Points)
		}
		if !r.Points[i].Converged {
			t.Fatalf("solver must converge at eps=%v", r.Points[i].Epsilon)
		}
	}
}

func TestSystemOverlap(t *testing.T) {
	r, err := ExperimentSystemOverlap(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("want 10 domains, got %d", len(r.Rows))
	}
	ds, gen := r.MeanTruthPrecision()
	if ds <= gen {
		t.Fatalf("domain-specific truth precision (%.2f) must beat General (%.2f)", ds, gen)
	}
	// The global lists can match a domain list in at most a couple of
	// domains; on average the overlap must be small.
	var overlapSum float64
	for _, row := range r.Rows {
		overlapSum += row.VsGeneral
	}
	if overlapSum/10 > 0.5 {
		t.Fatalf("mean overlap vs General = %.2f, domain lists should diverge", overlapSum/10)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "System overlap") {
		t.Fatal("Format output incomplete")
	}
}

func TestCSVWriters(t *testing.T) {
	cfg := testConfig()
	t1, err := ExperimentTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := ExperimentAlphaSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := ExperimentScalability(cfg, []int{40})
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := ExperimentSystemOverlap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ablation, err := ExperimentFacetAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		write    func(*bytes.Buffer) error
		header   string
		wantRows int
	}{
		{"table1", func(b *bytes.Buffer) error { return t1.WriteCSV(b) }, "system,domain,score,paper", 9},
		{"sweep", func(b *bytes.Buffer) error { return sweep.WriteCSV(b) }, "alpha,ndcg10,spearman,iters", 5},
		{"scale", func(b *bytes.Buffer) error { return scale.WriteCSV(b) }, "bloggers,posts,comments,analyzeMillis,iters", 1},
		{"overlap", func(b *bytes.Buffer) error { return overlap.WriteCSV(b) }, "domain,overlapGeneral", 10},
		{"ablation", func(b *bytes.Buffer) error { return ablation.WriteCSV(b) }, "variant,ndcg10,spearman,judgeScore", 5},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if !strings.HasPrefix(lines[0], c.header) {
			t.Fatalf("%s header = %q, want prefix %q", c.name, lines[0], c.header)
		}
		if len(lines)-1 != c.wantRows {
			t.Fatalf("%s rows = %d, want %d", c.name, len(lines)-1, c.wantRows)
		}
	}
}

func TestExtensionsExperiment(t *testing.T) {
	r, err := ExperimentExtensions(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.TopicPurity < 0.4 {
		t.Fatalf("topic purity = %.2f, want >= 0.4", r.TopicPurity)
	}
	if r.TagGroups == 0 {
		t.Fatal("no tag interest groups discovered")
	}
	if r.DecayMassRetained <= 0 || r.DecayMassRetained >= 1 {
		t.Fatalf("decay mass retained = %v, want in (0,1)", r.DecayMassRetained)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "topic discovery") {
		t.Fatal("Format output incomplete")
	}
}

func TestScalabilityExperiment(t *testing.T) {
	r, err := ExperimentScalability(testConfig(), []int{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("want 2 scale points, got %d", len(r.Points))
	}
	if r.Points[1].Posts <= r.Points[0].Posts {
		t.Fatal("larger corpus must have more posts")
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "bloggers") {
		t.Fatal("Format output incomplete")
	}
}

func TestShardingExperiment(t *testing.T) {
	r, err := ExperimentSharding(testConfig(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("want 2 shard points, got %d", len(r.Points))
	}
	if r.Points[0].BoundaryEdges != 0 {
		t.Fatal("one shard cannot have boundary edges")
	}
	if r.Points[1].BoundaryEdges == 0 {
		t.Fatal("3-way split of a linked corpus must cross shards")
	}
	// The sharded global solve must agree with the single-engine solve to
	// solver tolerance (the property test in internal/cluster pins 1e-12
	// at the default epsilon; the experiment just sanity-checks the wire).
	if r.Points[1].PageRankDiff > 1e-9 {
		t.Fatalf("sharded PageRank drifted %g from the single-engine solve", r.Points[1].PageRankDiff)
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "boundary") {
		t.Fatal("Format output incomplete")
	}
	buf.Reset()
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pagerank_maxdiff") {
		t.Fatal("CSV output incomplete")
	}
}
