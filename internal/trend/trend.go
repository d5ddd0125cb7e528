// Package trend analyzes how domain interest and blogger influence move
// over time. The paper's introduction motivates MASS with exactly this:
// "communication and analysis of influential bloggers bring more insight
// of the key concerns and new trends of customers' interest on products".
//
// Given a corpus and a completed influence analysis, the trend analyzer
// buckets influence-weighted posting activity into fixed time windows,
// fits a least-squares slope per domain to find rising and falling
// interests, and surfaces emerging bloggers — those whose share of
// influence grew most between the older and the recent half of the
// window.
package trend

import (
	"fmt"
	"sort"
	"time"

	"mass/internal/blog"
	"mass/internal/influence"
)

// Config tunes the trend analysis.
type Config struct {
	// Buckets is the number of time windows the corpus span is divided
	// into. Default 8, minimum 2.
	Buckets int
	// TopEmerging bounds the emerging-blogger list. Default 5; a
	// negative bound is an error.
	TopEmerging int
}

func (c Config) withDefaults() Config {
	if c.Buckets == 0 {
		c.Buckets = 8
	}
	if c.TopEmerging == 0 {
		c.TopEmerging = 5
	}
	return c
}

// Series is one domain's influence-weighted activity per bucket.
type Series struct {
	Start  time.Time
	Width  time.Duration
	Values []float64
}

// EmergingBlogger is a blogger whose influence concentrated in the recent
// half of the corpus timeline.
type EmergingBlogger struct {
	ID blog.BloggerID
	// RecentShare is the fraction of the blogger's total post influence
	// produced in the recent half.
	RecentShare float64
	// Influence is the blogger's overall Inf(b), for context.
	Influence float64
}

// Report is the full trend analysis.
type Report struct {
	// DomainSeries maps each domain to its activity series.
	DomainSeries map[string]Series
	// Slopes is the least-squares slope of each domain series (activity
	// units per bucket); positive = rising interest.
	Slopes map[string]float64
	// Rising and Falling list domains by slope, strongest first.
	Rising, Falling []string
	// Emerging lists bloggers whose influence is concentrated recently.
	Emerging []EmergingBlogger
}

// Analyze buckets the corpus timeline and fits domain trends. res must
// come from an Analyzer with a classifier (PostDomains populated);
// otherwise only Emerging is computed and DomainSeries is empty.
func Analyze(c *blog.Frozen, res *influence.Result, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Buckets < 2 {
		return nil, fmt.Errorf("trend: need at least 2 buckets")
	}
	if cfg.TopEmerging < 0 {
		return nil, fmt.Errorf("trend: emerging-blogger bound %d is negative", cfg.TopEmerging)
	}
	d := res.Dense()
	posts := d.Posts
	if len(posts) == 0 {
		return nil, fmt.Errorf("trend: empty corpus")
	}
	var minT, maxT time.Time
	for i, pid := range posts {
		ts := c.Post(pid).Posted
		if i == 0 || ts.Before(minT) {
			minT = ts
		}
		if i == 0 || ts.After(maxT) {
			maxT = ts
		}
	}
	span := maxT.Sub(minT)
	if span <= 0 {
		return nil, fmt.Errorf("trend: corpus has no time span")
	}
	width := span / time.Duration(cfg.Buckets)
	bucketOf := func(ts time.Time) int {
		b := int(ts.Sub(minT) / width)
		if b >= cfg.Buckets {
			b = cfg.Buckets - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}

	report := &Report{
		DomainSeries: map[string]Series{},
		Slopes:       map[string]float64{},
	}

	// Domain activity series: post influence × domain posterior, streamed
	// off the result's dense posterior rows (no per-post map allocation).
	acc := map[string][]float64{}
	nd := len(d.Domains)
	for i, pid := range posts {
		b := bucketOf(c.Post(pid).Posted)
		for di, p := range d.PostDomains[i*nd : (i+1)*nd] {
			if dom := d.Domains[di]; p != 0 {
				if acc[dom] == nil {
					acc[dom] = make([]float64, cfg.Buckets)
				}
				acc[dom][b] += d.PostScore[i] * p
			}
		}
	}
	for dom, vals := range acc {
		report.DomainSeries[dom] = Series{Start: minT, Width: width, Values: vals}
		report.Slopes[dom] = slope(vals)
	}
	domains := make([]string, 0, len(report.Slopes))
	for d := range report.Slopes {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool {
		si, sj := report.Slopes[domains[i]], report.Slopes[domains[j]]
		if si != sj {
			return si > sj
		}
		return domains[i] < domains[j]
	})
	for _, d := range domains {
		if report.Slopes[d] > 0 {
			report.Rising = append(report.Rising, d)
		} else if report.Slopes[d] < 0 {
			report.Falling = append(report.Falling, d)
		}
	}
	// Falling strongest first.
	for i, j := 0, len(report.Falling)-1; i < j; i, j = i+1, j-1 {
		report.Falling[i], report.Falling[j] = report.Falling[j], report.Falling[i]
	}

	// Emerging bloggers: influence share in the recent half.
	half := minT.Add(span / 2)
	recent := map[blog.BloggerID]float64{}
	total := map[blog.BloggerID]float64{}
	for i, pid := range posts {
		p := c.Post(pid)
		w := d.PostScore[i]
		total[p.Author] += w
		if !p.Posted.Before(half) {
			recent[p.Author] += w
		}
	}
	var emerging []EmergingBlogger
	for b, tot := range total {
		if tot <= 0 {
			continue
		}
		emerging = append(emerging, EmergingBlogger{
			ID:          b,
			RecentShare: recent[b] / tot,
			Influence:   res.BloggerScores[b],
		})
	}
	sort.Slice(emerging, func(i, j int) bool {
		// Prioritize recent concentration, then overall influence, then ID.
		if emerging[i].RecentShare != emerging[j].RecentShare {
			return emerging[i].RecentShare > emerging[j].RecentShare
		}
		if emerging[i].Influence != emerging[j].Influence {
			return emerging[i].Influence > emerging[j].Influence
		}
		return emerging[i].ID < emerging[j].ID
	})
	if len(emerging) > cfg.TopEmerging {
		emerging = emerging[:cfg.TopEmerging]
	}
	report.Emerging = emerging
	return report, nil
}

// slope fits y = a + b·x by least squares over x = 0..n-1 and returns b.
func slope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, y := range ys {
		x := float64(i)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return 0
	}
	return (n*sumXY - sumX*sumY) / den
}
