package experiments

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/classify"
	"mass/internal/core"
	"mass/internal/crawler"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/query"
	"mass/internal/recommend"
	"mass/internal/synth"
	"mass/internal/viz"
	"mass/internal/xmlstore"
)

// ---------------------------------------------------------------- Figure 1

// Figure1Result is the walkthrough of the paper's sample influence graph.
type Figure1Result struct {
	BloggerScores map[blog.BloggerID]float64
	Top3          []blog.BloggerID
	AmeryDomains  map[string]float64
	Converged     bool
	Iterations    int
}

// ExperimentFigure1 analyzes the exact Figure 1 corpus (Amery, Bob, Cary,
// …) and reports the scores the model assigns, demonstrating the
// domain-specific decomposition of Amery's influence into CS and Econ.
func ExperimentFigure1(cfg Config) (*Figure1Result, error) {
	cfg = cfg.withDefaults()
	c := blog.Figure1Corpus()
	nb, err := classify.TrainNaiveBayes(
		synth.TrainingExamples(nil, cfg.TrainPerDomain, cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	an, err := influence.NewAnalyzer(influence.Config{}, nb)
	if err != nil {
		return nil, err
	}
	res, err := an.Analyze(c)
	if err != nil {
		return nil, err
	}
	return &Figure1Result{
		BloggerScores: res.BloggerScores,
		Top3:          res.TopKGeneral(3),
		AmeryDomains:  res.DomainVector("Amery"),
		Converged:     res.Converged,
		Iterations:    res.Iterations,
	}, nil
}

// Format renders the walkthrough.
func (r *Figure1Result) Format(w io.Writer) {
	fmt.Fprintln(w, "Figure 1 — sample influence graph walkthrough")
	fmt.Fprintf(w, "(converged=%v after %d iterations)\n\n", r.Converged, r.Iterations)
	var rows [][]string
	for _, id := range []blog.BloggerID{"Amery", "Bob", "Cary", "Dolly", "Eddie", "Helen", "Jane", "Leo", "Michael"} {
		rows = append(rows, []string{string(id), f3(r.BloggerScores[id])})
	}
	writeTable(w, []string{"Blogger", "Inf(b)"}, rows)
	fmt.Fprintf(w, "\ntop-3 general: %v\n", r.Top3)
	fmt.Fprintf(w, "Amery's domain split: Computer=%.3f Economics=%.3f\n",
		r.AmeryDomains[lexicon.Computer], r.AmeryDomains[lexicon.Economics])
}

// ---------------------------------------------------------------- Figure 2

// Figure2Result reports the end-to-end architecture run: crawl over HTTP,
// XML persistence, reload, analysis consistency.
type Figure2Result struct {
	CrawlStats       crawler.Stats
	Bloggers, Posts  int
	XMLBytes         int
	ReloadConsistent bool
	AnalyzeTime      time.Duration
}

// ExperimentFigure2 exercises the Fig. 2 pipeline: Crawler Module (HTTP
// fetch of the simulated blog service) → Data Storage (XML snapshot +
// reload) → Analyzer Module (influence analysis) → a consistency check
// that the reloaded corpus analyzes identically.
func ExperimentFigure2(cfg Config) (*Figure2Result, error) {
	cfg = cfg.withDefaults()
	orig, _, err := synth.Generate(synth.Config{
		Seed: cfg.Seed, Bloggers: cfg.Bloggers, Posts: cfg.Posts,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(blogserver.New(orig))
	defer ts.Close()

	seed := orig.BloggerIDs()[0]
	cr := crawler.New(crawler.Config{Workers: 8, Radius: 1000}, nil)
	crawled, stats, err := cr.Crawl(context.Background(), ts.URL, blog.BloggerID(seed))
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "massfig2")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "crawl.xml")
	if err := xmlstore.Save(path, crawled); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	reloaded, err := xmlstore.Load(path)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	sys1, err := core.FromCorpus(crawled, core.Options{TrainingSeed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	analyzeTime := time.Since(t0)
	sys2, err := core.FromCorpus(reloaded, core.Options{TrainingSeed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	consistent := true
	a, b := sys1.TopInfluential(10), sys2.TopInfluential(10)
	for i := range a {
		if a[i] != b[i] {
			consistent = false
		}
	}
	return &Figure2Result{
		CrawlStats:       stats,
		Bloggers:         len(crawled.Bloggers),
		Posts:            len(crawled.Posts),
		XMLBytes:         int(info.Size()),
		ReloadConsistent: consistent,
		AnalyzeTime:      analyzeTime,
	}, nil
}

// Format renders the pipeline report.
func (r *Figure2Result) Format(w io.Writer) {
	fmt.Fprintln(w, "Figure 2 — system architecture pipeline (crawler → storage → analyzer)")
	writeTable(w, []string{"Stage", "Metric"}, [][]string{
		{"crawl: spaces fetched", fmt.Sprintf("%d", r.CrawlStats.Fetched)},
		{"crawl: failures", fmt.Sprintf("%d", r.CrawlStats.Failed)},
		{"crawl: elapsed", r.CrawlStats.Elapsed.Round(time.Millisecond).String()},
		{"corpus: bloggers", fmt.Sprintf("%d", r.Bloggers)},
		{"corpus: posts", fmt.Sprintf("%d", r.Posts)},
		{"storage: XML snapshot bytes", fmt.Sprintf("%d", r.XMLBytes)},
		{"analyzer: wall time", r.AnalyzeTime.Round(time.Millisecond).String()},
		{"reload consistency (top-10 equal)", fmt.Sprintf("%v", r.ReloadConsistent)},
	})
}

// ---------------------------------------------------------------- Figure 3

// Figure3Result reproduces the advertisement input function: both input
// modes of Fig. 3 on a Nike-style sports advertisement.
type Figure3Result struct {
	AdText         string
	MinedDomains   []string
	TextTop        []recommend.Recommendation
	DropdownTop    []recommend.Recommendation
	GeneralTop     []recommend.Recommendation
	AgreementAt3   int // overlap between text mode and dropdown mode
	TargetsOnPoint int // text-mode targets with planted Sports expertise
}

// ExperimentFigure3 runs both Fig. 3 input modes — free ad text and the
// domain dropdown — and checks they agree on who to target.
func ExperimentFigure3(cfg Config) (*Figure3Result, error) {
	w, err := buildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	cfg = w.cfg
	rec, err := recommend.New(w.nb, w.res, w.gen)
	if err != nil {
		return nil, err
	}
	adText := "Introducing the new running sneaker line: built for marathon " +
		"training, basketball playoffs and every athlete chasing a medal " +
		"this olympics season"
	iv := classify.Classify(w.nb, adText)
	res := &Figure3Result{
		AdText:       adText,
		MinedDomains: topDomains(iv, 2),
		TextTop:      rec.ForInterest(iv, cfg.K),
		DropdownTop:  rec.ForInterest(query.EqualWeights([]string{lexicon.Sports}), cfg.K),
		GeneralTop:   rec.ForInterest(nil, cfg.K),
	}
	inDropdown := map[blog.BloggerID]bool{}
	for _, d := range res.DropdownTop {
		inDropdown[d.Blogger] = true
	}
	for _, t := range res.TextTop {
		if inDropdown[t.Blogger] {
			res.AgreementAt3++
		}
		if w.gt.Expertise[t.Blogger][lexicon.Sports] > 0 {
			res.TargetsOnPoint++
		}
	}
	return res, nil
}

// topDomains reports the n most probable domains of an interest vector,
// ties by name, for display next to the recommendations.
func topDomains(iv map[string]float64, n int) []string {
	names := slices.Collect(maps.Keys(iv))
	slices.SortFunc(names, func(a, b string) int {
		if c := cmp.Compare(iv[b], iv[a]); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	return names[:min(n, len(names))]
}

// Format renders both input modes.
func (r *Figure3Result) Format(w io.Writer) {
	fmt.Fprintln(w, "Figure 3 — advertisement input function")
	fmt.Fprintf(w, "ad text: %q\nmined domains: %v\n\n", r.AdText, r.MinedDomains)
	var rows [][]string
	for i := range r.TextTop {
		row := []string{fmt.Sprintf("%d", i+1),
			string(r.TextTop[i].Blogger), f3(r.TextTop[i].Score),
			string(r.DropdownTop[i].Blogger), f3(r.DropdownTop[i].Score),
			string(r.GeneralTop[i].Blogger)}
		rows = append(rows, row)
	}
	writeTable(w, []string{"rank", "text mode", "score", "dropdown mode", "score", "no-domain fallback"}, rows)
	fmt.Fprintf(w, "\ntext/dropdown agreement@%d: %d; text-mode targets with true Sports expertise: %d/%d\n",
		len(r.TextTop), r.AgreementAt3, r.TargetsOnPoint, len(r.TextTop))
}

// ---------------------------------------------------------------- Figure 4

// Figure4Result reproduces the post-reply visualization export.
type Figure4Result struct {
	Center         blog.BloggerID
	Nodes, Edges   int
	MaxEdgeCount   int
	XMLRoundTripOK bool
	SVGBytes       int
	DOTBytes       int
}

// ExperimentFigure4 builds the post-reply network of the top blogger
// (radius 2), lays it out, and verifies the XML save/load round trip the
// demo promises, plus SVG/DOT export.
func ExperimentFigure4(cfg Config) (*Figure4Result, error) {
	w, err := buildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	center := w.res.TopKGeneral(1)[0]
	net, err := viz.Build(w.gen, center, 2, w.res.BloggerScores)
	if err != nil {
		return nil, err
	}
	net.Layout(w.cfg.Seed, 0)

	var xmlBuf bytes.Buffer
	if err := net.WriteXML(&xmlBuf); err != nil {
		return nil, err
	}
	reloaded, err := viz.ReadXML(bytes.NewReader(xmlBuf.Bytes()))
	if err != nil {
		return nil, err
	}
	roundTrip := reloaded.Center == net.Center &&
		len(reloaded.Nodes) == len(net.Nodes) &&
		len(reloaded.Edges) == len(net.Edges)

	var svgBuf, dotBuf bytes.Buffer
	if err := net.WriteSVG(&svgBuf, 1000, 800); err != nil {
		return nil, err
	}
	if err := net.WriteDOT(&dotBuf); err != nil {
		return nil, err
	}
	maxCount := 0
	for _, e := range net.Edges {
		if e.Count > maxCount {
			maxCount = e.Count
		}
	}
	return &Figure4Result{
		Center:         center,
		Nodes:          len(net.Nodes),
		Edges:          len(net.Edges),
		MaxEdgeCount:   maxCount,
		XMLRoundTripOK: roundTrip,
		SVGBytes:       svgBuf.Len(),
		DOTBytes:       dotBuf.Len(),
	}, nil
}

// Format renders the visualization report.
func (r *Figure4Result) Format(w io.Writer) {
	fmt.Fprintln(w, "Figure 4 — post-reply network of the top blogger")
	writeTable(w, []string{"Metric", "Value"}, [][]string{
		{"center blogger", string(r.Center)},
		{"nodes (radius 2)", fmt.Sprintf("%d", r.Nodes)},
		{"post-reply edges", fmt.Sprintf("%d", r.Edges)},
		{"max comments on one edge", fmt.Sprintf("%d", r.MaxEdgeCount)},
		{"XML save/load round trip", fmt.Sprintf("%v", r.XMLRoundTripOK)},
		{"SVG export bytes", fmt.Sprintf("%d", r.SVGBytes)},
		{"DOT export bytes", fmt.Sprintf("%d", r.DOTBytes)},
	})
}
