package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/linkrank"
	"mass/internal/query"
	"mass/internal/synth"
)

// ShardPoint records cluster behaviour at one shard count.
type ShardPoint struct {
	Shards        int
	BoundaryEdges int
	// PageRankDiff is the max absolute difference between the sharded
	// global solve (per-shard solves + boundary residual correction) and
	// the single-engine solve over the same corpus.
	PageRankDiff float64
	// Fallback reports that the boundary residual exceeded the bound and
	// the global solve fell back to a merged dense solve.
	Fallback bool
	// FlushTime is the mean cost of folding a single-shard batch into a
	// fresh snapshot: only the owner shard re-analyzes, so this shrinks
	// with the shard count.
	FlushTime time.Duration
	// RoutedQuery is the mean latency of an author-pinned posts query,
	// which collapses to the owner shard (scans 1/N of the corpus).
	RoutedQuery time.Duration
	// ScatterQuery is the mean latency of a cross-shard scan + k-way
	// merge (same total work, plus merge overhead).
	ScatterQuery time.Duration
}

// ShardingResult is the X8 study.
type ShardingResult struct {
	Points []ShardPoint
}

// ExperimentSharding (X8) partitions one corpus across increasing shard
// counts and measures what sharding buys and what it costs: localized
// flushes and routed queries touch 1/N of the data (near-linear wins),
// scattered scans pay a merge overhead, and the boundary-corrected global
// PageRank must agree with the single-engine solve to solver tolerance.
func ExperimentSharding(cfg Config, shardCounts []int) (*ShardingResult, error) {
	cfg = cfg.withDefaults()
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	corpus, _, err := synth.Generate(synth.Config{
		Seed: cfg.Seed, Bloggers: cfg.Bloggers, Posts: cfg.Posts,
	})
	if err != nil {
		return nil, err
	}
	// Deterministic author rotation for the flush and routed-query probes.
	var authors []blog.BloggerID
	seen := map[blog.BloggerID]bool{}
	gen := corpus.Snapshot()
	for _, pid := range gen.PostIDs() {
		a := gen.Post(pid).Author
		if !seen[a] {
			seen[a] = true
			authors = append(authors, a)
		}
		if len(authors) == 16 {
			break
		}
	}
	if len(authors) == 0 {
		return nil, fmt.Errorf("sharding experiment: corpus has no posts")
	}

	// Single-engine reference solve for the PageRank agreement column.
	var baseIDs []string
	var baseScores []float64
	out := &ShardingResult{}
	for _, n := range shardCounts {
		cl, err := cluster.New(corpus, cluster.Options{
			Shards: n,
			Engine: core.EngineOptions{FlushEvery: 1 << 20, FlushInterval: time.Hour},
		})
		if err != nil {
			return nil, err
		}
		p := ShardPoint{Shards: n, BoundaryEdges: cl.BoundaryEdges()}

		// Global PageRank agreement, measured on the pristine corpus.
		gr, err := cl.GlobalPageRank(linkrank.Options{})
		if err != nil {
			cl.Close()
			return nil, err
		}
		if baseIDs == nil {
			baseIDs, baseScores = gr.IDs, gr.Scores
		} else {
			base := make(map[string]float64, len(baseIDs))
			for i, id := range baseIDs {
				base[id] = baseScores[i]
			}
			for i, id := range gr.IDs {
				if d := gr.Scores[i] - base[id]; d > p.PageRankDiff {
					p.PageRankDiff = d
				} else if -d > p.PageRankDiff {
					p.PageRankDiff = -d
				}
			}
		}
		p.Fallback = gr.Fallback

		// Localized flush: one new post, one shard re-analyzes.
		t0 := time.Now()
		for i, a := range authors {
			err := cl.AddBatch(core.Batch{Posts: []*blog.Post{{
				ID:     blog.PostID(fmt.Sprintf("xshard-%d-%d", n, i)),
				Author: a,
				Title:  "flush probe",
				Body:   "a probe post about markets and playoffs to fold in",
				Posted: time.Unix(1260000000+int64(i), 0),
			}}})
			if err == nil {
				err = cl.Shard(cl.Owner(a)).Refresh(context.Background())
			}
			if err != nil {
				cl.Close()
				return nil, err
			}
		}
		p.FlushTime = time.Since(t0) / time.Duration(len(authors))

		// Routed vs scattered reads on the settled view. The offsets and
		// authors rotate so the view's read memo cannot answer from
		// cache.
		v := cl.View()
		t0 = time.Now()
		for _, a := range authors {
			q := query.Posts().
				Where(query.F(query.FieldAuthor).Is(string(a))).
				OrderBy(query.Desc(query.FieldPosted)).Limit(20).Build()
			if _, _, err := cl.Query(v, q); err != nil {
				cl.Close()
				return nil, err
			}
		}
		p.RoutedQuery = time.Since(t0) / time.Duration(len(authors))
		t0 = time.Now()
		for i := range authors {
			q := query.Posts().
				OrderBy(query.Desc(query.FieldPosted)).
				Limit(20).Offset(i).Build()
			if _, _, err := cl.Query(v, q); err != nil {
				cl.Close()
				return nil, err
			}
		}
		p.ScatterQuery = time.Since(t0) / time.Duration(len(authors))

		cl.Close()
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Format renders the sharding table.
func (r *ShardingResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Sharded cluster scaling (X8)")
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.BoundaryEdges),
			fmt.Sprintf("%.2e", p.PageRankDiff),
			fmt.Sprintf("%v", p.Fallback),
			p.FlushTime.Round(time.Microsecond).String(),
			p.RoutedQuery.Round(time.Microsecond).String(),
			p.ScatterQuery.Round(time.Microsecond).String(),
		})
	}
	writeTable(w, []string{"shards", "boundary", "pagerank diff", "fallback",
		"flush", "routed query", "scatter query"}, rows)
}

// WriteCSV emits the sharding series.
func (r *ShardingResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "shards,boundary_edges,pagerank_maxdiff,fallback,flush_ns,routed_query_ns,scatter_query_ns"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%d,%d,%g,%v,%d,%d,%d\n",
			p.Shards, p.BoundaryEdges, p.PageRankDiff, p.Fallback,
			p.FlushTime.Nanoseconds(), p.RoutedQuery.Nanoseconds(), p.ScatterQuery.Nanoseconds()); err != nil {
			return err
		}
	}
	return nil
}
