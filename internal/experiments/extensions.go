package experiments

import (
	"fmt"
	"io"
	"time"

	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/taginterest"
	"mass/internal/topic"
	"mass/internal/trend"
)

// ExtensionsResult is the X9 study: the paper-mentioned alternatives and
// extensions exercised on one corpus — automatic topic discovery instead
// of predefined domains, tag-based social interest discovery ([6]), and
// time-decayed influence.
type ExtensionsResult struct {
	// TopicPurity is the purity of unsupervised k-means topics against
	// the planted post domains.
	TopicPurity float64
	// TopicIterations is how many Lloyd sweeps the winning restart used.
	TopicIterations int
	// TagGroups is the number of interest groups tag discovery found.
	TagGroups int
	// TagLeaderAligned reports whether the largest tag group's leading
	// blogger writes in a domain whose vocabulary contains one of the
	// group's top tags.
	TagLeaderAligned bool
	// DecayTopChanged reports whether the overall top-3 changes when a
	// 30-day half-life is applied (recency matters).
	DecayTopChanged bool
	// DecayMassRetained is the ratio of total decayed AP to undecayed AP.
	DecayMassRetained float64
	// TrendDomains is how many domains got a fitted trend series, and
	// TopEmerging is the blogger whose influence is most concentrated in
	// the recent half of the timeline.
	TrendDomains int
	TopEmerging  string
}

// ExperimentExtensions (X9) runs the three optional mechanisms end to end.
func ExperimentExtensions(cfg Config) (*ExtensionsResult, error) {
	w, err := buildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	out := &ExtensionsResult{}

	// --- Automatic topic discovery (paper §II, reference [6] route). ---
	var docs, labels []string
	for _, pid := range w.gen.PostIDs() {
		p := w.gen.Post(pid)
		docs = append(docs, p.Body)
		labels = append(labels, p.TrueDomain)
	}
	model, err := topic.Discover(docs, topic.Config{K: 10, Seed: w.cfg.Seed})
	if err != nil {
		return nil, err
	}
	out.TopicIterations = model.Iterations
	purity, err := model.Purity(labels)
	if err != nil {
		return nil, err
	}
	out.TopicPurity = purity

	// --- Tag-based social interest discovery. ---
	groups, err := taginterest.Discover(w.gen, taginterest.Config{MinSupport: 3, TopBloggers: 3})
	if err != nil {
		return nil, err
	}
	out.TagGroups = len(groups)
	if len(groups) > 0 && len(groups[0].Bloggers) > 0 {
		leader := groups[0].Bloggers[0].ID
		primary := w.gt.PrimaryDomain[leader]
		vocab := map[string]bool{}
		for _, word := range lexicon.Vocabulary(primary) {
			vocab[word] = true
		}
		for _, tag := range groups[0].Tags {
			if vocab[tag] {
				out.TagLeaderAligned = true
				break
			}
		}
	}

	// --- Time-decayed influence. ---
	an, err := influence.NewAnalyzer(influence.Config{}, w.nb)
	if err != nil {
		return nil, err
	}
	decayed, err := an.AnalyzeDecayed(w.corpus, influence.DecayConfig{
		HalfLife: 30 * 24 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	plainTop := w.res.TopKGeneral(3)
	decayTop := decayed.TopKGeneral(3)
	for i := range plainTop {
		if plainTop[i] != decayTop[i] {
			out.DecayTopChanged = true
			break
		}
	}
	var apPlain, apDecayed float64
	for b := range w.res.AP {
		apPlain += w.res.AP[b]
		apDecayed += decayed.AP[b]
	}
	if apPlain > 0 {
		out.DecayMassRetained = apDecayed / apPlain
	}

	// --- Trend analysis over the corpus timeline. ---
	rep, err := trend.Analyze(w.gen, w.res, trend.Config{Buckets: 8, TopEmerging: 1})
	if err != nil {
		return nil, err
	}
	out.TrendDomains = len(rep.DomainSeries)
	if len(rep.Emerging) > 0 {
		out.TopEmerging = string(rep.Emerging[0].ID)
	}
	return out, nil
}

// Format renders the extensions report.
func (r *ExtensionsResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Extensions (X9) — paper-mentioned alternatives exercised")
	writeTable(w, []string{"Mechanism", "Result"}, [][]string{
		{"topic discovery: purity vs planted domains", f3(r.TopicPurity)},
		{"topic discovery: Lloyd iterations", fmt.Sprintf("%d", r.TopicIterations)},
		{"tag interests: groups discovered", fmt.Sprintf("%d", r.TagGroups)},
		{"tag interests: leader aligned with group", fmt.Sprintf("%v", r.TagLeaderAligned)},
		{"time decay (30d half-life): top-3 changed", fmt.Sprintf("%v", r.DecayTopChanged)},
		{"time decay: AP mass retained", f3(r.DecayMassRetained)},
		{"trend: domains with fitted series", fmt.Sprintf("%d", r.TrendDomains)},
		{"trend: top emerging blogger", r.TopEmerging},
	})
}
