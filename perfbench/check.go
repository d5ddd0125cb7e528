package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/influence"
	"mass/internal/query"
)

// topK is how many leading bloggers the final-state check compares.
const topK = 20

// coldTolerance is how far a live (warm, incremental) score may sit from
// a cold analysis of the same corpus.
const coldTolerance = 1e-9

// checkCorrect runs the workload's correctness gate. Each checked item
// counts as one attempted operation; each mismatch as one failure.
func checkCorrect(ctx context.Context, cfg runConfig, d *driver, srv *server, rep *report) {
	switch {
	case cfg.w.writeRate == 0:
		srv.kill() // free the CPUs and memory for the reference analysis
		checkReference(cfg, d.results, rep)
	default:
		acked := ackedWrites(d.results)
		checkFinalState(ctx, cfg, d, acked, rep)
		if cfg.w.shards == 1 {
			var data json.RawMessage
			rep.attempted++
			if err := getEnvelope(ctx, d.client, d.base, "GET", fmt.Sprintf("/api/v1/bloggers/top?limit=%d", topK), nil, &data); err != nil {
				rep.fail("final top-k: %v", err)
				return
			}
			top, err := decodeRows(data)
			if err != nil {
				rep.fail("final top-k: %v", err)
				return
			}
			srv.kill()
			checkCold(cfg, acked, top, rep)
		}
	}
}

func ackedWrites(rs []*result) []*writeOp {
	var out []*result
	for _, r := range rs {
		if r.op.isWrite() && r.err == "" {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].done.Before(out[j].done) })
	ws := make([]*writeOp, len(out))
	for i, r := range out {
		ws[i] = r.op.write
	}
	return ws
}

// referenceSystem analyzes the benchmark's own copy of the corpus with the
// options the server's engine uses.
func referenceSystem(c *blog.Corpus) (*core.System, error) {
	return core.FromCorpus(c, core.Options{Influence: influence.Config{Workers: runtime.GOMAXPROCS(0)}})
}

// checkReference compares every distinct kept read answer with the same
// read on an in-process analysis of the same corpus.
func checkReference(cfg runConfig, rs []*result, rep *report) {
	sys, err := referenceSystem(cfg.corpus)
	if err != nil {
		rep.fail("reference analysis: %v", err)
		return
	}
	res := sys.Result()
	seen := map[string]bool{}
	for _, r := range rs {
		if r.err != "" || r.data == nil {
			continue
		}
		key := r.op.method + r.op.path + string(r.op.body)
		if seen[key] {
			continue
		}
		seen[key] = true
		rep.attempted++
		if err := compareRead(sys, res, r); err != nil {
			rep.fail("reference %s %s %s: %v", r.op.method, r.op.path, r.op.body, err)
		}
	}
	if len(seen) == 0 {
		rep.fail("reference: no read answers were kept")
	}
}

func compareRead(sys *core.System, res *influence.Result, r *result) error {
	if r.op.route == "blogger" {
		var got struct {
			ID        string  `json:"id"`
			Influence float64 `json:"influence"`
			AP        float64 `json:"ap"`
			GL        float64 `json:"gl"`
		}
		if err := json.Unmarshal(r.data, &got); err != nil {
			return err
		}
		id := blog.BloggerID(got.ID)
		if got.Influence != res.BloggerScores[id] || got.AP != res.AP[id] || got.GL != res.GL[id] {
			return fmt.Errorf("blogger %s: got (%g,%g,%g), want (%g,%g,%g)", id,
				got.Influence, got.AP, got.GL, res.BloggerScores[id], res.AP[id], res.GL[id])
		}
		return nil
	}
	q, err := query.Decode(r.op.ast)
	if err != nil {
		return err
	}
	want, err := sys.Query(q)
	if err != nil {
		return err
	}
	if r.op.path == "/api/v1/query" {
		var a, b any
		wb, _ := json.Marshal(want) // a query.Result always encodes
		if err := json.Unmarshal(wb, &a); err != nil {
			return err
		}
		if err := json.Unmarshal(r.data, &b); err != nil {
			return err
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("got %.300s, want %.300s", r.data, wb)
		}
		return nil
	}
	got, err := decodeRows(r.data)
	if err != nil {
		return err
	}
	if len(got) != len(want.Rows) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want.Rows))
	}
	for i, row := range want.Rows {
		if got[i].ID != row.ID || got[i].Score != row.Score {
			return fmt.Errorf("row %d: got %s %g, want %s %g", i, got[i].ID, got[i].Score, row.ID, row.Score)
		}
	}
	return nil
}

// checkFinalState verifies after the drain that every acked write is
// readable: each posts write through a read-your-writes probe, each
// commented post's comment count, and the corpus totals.
func checkFinalState(ctx context.Context, cfg runConfig, d *driver, acked []*writeOp, rep *report) {
	wantComments := map[string]int{}
	var posts, comments, links int
	for i, w := range acked {
		posts += len(w.posts)
		comments += len(w.comments)
		links += len(w.links)
		for _, c := range w.comments {
			wantComments[c.Post]++
		}
		if w.kind != "posts" {
			continue
		}
		rep.attempted++
		p := probeFor(w, i)
		r := d.do(ctx, 0, p, time.Now(), "check")
		if r.err != "" {
			rep.fail("final probe %s: %s", w.posts[0].ID, r.err)
		} else if !probeSees(r.data, w) {
			rep.fail("acked post %s by %s not readable after drain", w.posts[0].ID, w.posts[0].Author)
		}
	}
	for pid, n := range wantComments {
		rep.attempted++
		p := cfg.corpus.Posts[blog.PostID(pid)]
		want := len(p.Comments) + n
		ast := mustJSON(map[string]any{"entity": "posts",
			"where":   map[string]any{"field": "author", "op": "eq", "value": string(p.Author)},
			"orderBy": []map[string]any{{"field": "posted", "desc": true}}, "select": []string{"comments"}, "limit": 100})
		var res struct {
			Rows []struct {
				ID     string             `json:"id"`
				Fields map[string]float64 `json:"fields"`
			} `json:"rows"`
		}
		if err := getEnvelope(ctx, d.client, d.base, "POST", "/api/v1/query", ast, &res); err != nil {
			rep.fail("comment check %s: %v", pid, err)
			continue
		}
		got := -1
		for _, row := range res.Rows {
			if row.ID == pid {
				got = int(row.Fields["comments"])
			}
		}
		if got != want {
			rep.fail("post %s has %d comments, want %d", pid, got, want)
		}
	}
	rep.attempted++
	var st blog.Stats
	if err := getEnvelope(ctx, d.client, d.base, "GET", "/api/v1/stats", nil, &st); err != nil {
		rep.fail("final stats: %v", err)
		return
	}
	ci := cfg.info
	if st.Posts != ci.posts+posts || st.Comments != ci.comments+comments || st.Links != ci.nlinks+links {
		rep.fail("final counts posts/comments/links = %d/%d/%d, want %d/%d/%d",
			st.Posts, st.Comments, st.Links, ci.posts+posts, ci.comments+comments, ci.nlinks+links)
	}
}

// applyWrites folds acked writes into c the way the engine does: unknown
// authors, commenters and link endpoints are admitted as stub bloggers.
func applyWrites(c *blog.Corpus, ws []*writeOp) error {
	ensure := func(id string) error {
		if _, ok := c.Bloggers[blog.BloggerID(id)]; ok {
			return nil
		}
		return c.AddBlogger(&blog.Blogger{ID: blog.BloggerID(id)})
	}
	for _, w := range ws {
		for _, p := range w.posts {
			if err := ensure(p.Author); err != nil {
				return err
			}
			if err := c.AddPost(&blog.Post{ID: blog.PostID(p.ID), Author: blog.BloggerID(p.Author),
				Title: p.Title, Body: p.Body, Posted: p.Posted, Tags: p.Tags}); err != nil {
				return err
			}
		}
		for _, cm := range w.comments {
			if err := ensure(cm.Commenter); err != nil {
				return err
			}
			if err := c.AddComment(blog.PostID(cm.Post), blog.Comment{Commenter: blog.BloggerID(cm.Commenter),
				Text: cm.Text, Posted: cm.Posted}); err != nil {
				return err
			}
		}
		for _, l := range w.links {
			if err := ensure(l.From); err != nil {
				return err
			}
			if err := ensure(l.To); err != nil {
				return err
			}
			if _, err := c.AddLinkDedup(blog.BloggerID(l.From), blog.BloggerID(l.To)); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCold compares the live server's final top-k with a cold analysis
// of the initial corpus plus every acked write.
func checkCold(cfg runConfig, acked []*writeOp, top []scoredRow, rep *report) {
	rep.attempted++
	if err := applyWrites(cfg.corpus, acked); err != nil {
		rep.fail("replaying acked writes: %v", err)
		return
	}
	sys, err := referenceSystem(cfg.corpus)
	if err != nil {
		rep.fail("cold analysis: %v", err)
		return
	}
	want := sys.TopInfluential(topK)
	scores := sys.Result().BloggerScores
	if len(top) != len(want) {
		rep.fail("final top-k has %d rows, cold analysis %d", len(top), len(want))
		return
	}
	// Rank by rank the scores agree, and each live row's blogger has that
	// score in the cold analysis too; ties within the tolerance may swap.
	for i, id := range want {
		live := top[i]
		cold, ok := scores[blog.BloggerID(live.ID)]
		if math.Abs(live.Score-scores[id]) > coldTolerance || !ok || math.Abs(live.Score-cold) > coldTolerance {
			rep.fail("final top-k row %d: live %s %.15g, cold %s %.15g", i, live.ID, live.Score, id, scores[id])
		}
	}
}
