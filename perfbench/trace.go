package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/api"
	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/influence"
	"mass/internal/query"
	"mass/internal/xmlstore"
)

// span is one timed call at a layer boundary. Spans of one request share
// op; parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string    `json:"name"`
	Route  string    `json:"route,omitempty"`
	Op     int       `json:"op"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Bytes  int       `json:"bytes,omitempty"`
	Plan   string    `json:"plan,omitempty"`
	// Computed marks a request whose handler computed a query answer (a
	// query-cache miss) rather than finding it cached, on its api span and
	// on its cluster.query replay.
	Computed bool `json:"computed,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// tracedHandler wraps the API server. For each request it records the
// handler's span, then re-runs a sample of the query-bearing reads' ASTs
// on the same view at the cluster and query layers to attribute the time.
type tracedHandler struct {
	next http.Handler
	cl   *cluster.Cluster
	tr   *tracer
	on   atomic.Bool
	ops  sync.Map // op id -> *op
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() || strings.HasSuffix(r.URL.Path, "/events") {
		h.next.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.Atoi(r.Header.Get(opHeader))
	var o *op
	if v, ok := h.ops.Load(id); ok {
		o = v.(*op)
	}
	view := h.cl.View()
	c0 := computes(view)
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	end := time.Now()
	missed := computes(view) > c0
	route := ""
	if o != nil {
		route = o.route
	}
	parent := h.tr.add(span{Name: "api", Route: route, Op: id, Parent: -1, Start: start, End: end, Bytes: cw.n, Computed: missed})
	if o == nil || o.ast == nil || o.id%replayEvery != 0 {
		return
	}
	// The replay runs before the response is released, so that it shares
	// the handler's conditions (cache state, competing work) rather than
	// racing the client's next request; its span lets the client-side
	// accounting take it out again.
	r0 := time.Now()
	h.replay(view, o, id, parent, missed)
	h.tr.add(span{Name: "replay", Route: route, Op: id, Parent: parent, Start: r0, End: time.Now()})
}

// computes is how many answers the view's query caches have computed, so
// far: it moves when a memoized query misses.
func computes(v *cluster.View) (n int64) {
	for _, s := range v.Snaps {
		n += s.QueryCache().Computes()
	}
	return n
}

// replayEvery samples the replays: they compete for the CPUs with the
// next requests, so replaying every read would slow the traced run more.
const replayEvery = 4

// replay times the read's AST through Cluster.Query, then an uncached
// query.Execute on each shard snapshot, one shard at a time. The slowest
// execution stands for the shard work Cluster.Query waits on when it
// scatters, and for the cost of a query-cache miss.
func (h *tracedHandler) replay(v *cluster.View, o *op, id, parent int, missed bool) {
	q, err := query.Decode(o.ast)
	if err != nil {
		return
	}
	t0 := time.Now()
	res, _, err := h.cl.Query(v, q)
	t1 := time.Now()
	if err != nil {
		return
	}
	cs := h.tr.add(span{Name: "cluster.query", Route: o.route, Op: id, Parent: parent, Start: t0, End: t1,
		Plan: res.Plan, Computed: missed})
	var exec span
	for _, snap := range v.Snaps {
		e0 := time.Now()
		query.Execute(snap.Corpus(), snap.Result(), q)
		s := span{Name: "query.exec", Route: string(q.Entity), Op: id, Parent: cs, Start: e0, End: time.Now()}
		if s.dur() > exec.dur() {
			exec = s
		}
	}
	h.tr.add(exec)
}

// flushLog polls every shard's published snapshot and records each new
// generation: how long its analysis took, how many mutations it folded
// and what the link-rank solver did.
type flushLog struct {
	flushes                        []flushRec
	pendingMax                     int
	skipped, delta, fallback, push int
}

type flushRec struct {
	elapsed   time.Duration
	mutations uint64
}

func (f *flushLog) poll(ctx context.Context, cl *cluster.Cluster, done chan<- struct{}) {
	defer close(done)
	last := make([]*core.Snapshot, cl.NumShards())
	for i := range last {
		last[i] = cl.Shard(i).Current()
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		for i := range last {
			s := cl.Shard(i).Current()
			if s.Seq == last[i].Seq {
				continue
			}
			f.flushes = append(f.flushes, flushRec{elapsed: s.Elapsed, mutations: s.Mutations - last[i].Mutations})
			if r := s.Result(); r != nil {
				switch {
				case r.PageRankSkipped:
					f.skipped++
				case r.PageRankDelta:
					f.delta++
					f.push += r.PageRankPushed
				case r.PageRankFallback:
					f.fallback++
				}
			}
			last[i] = s
		}
		if p := cl.Status().Pending; p > f.pendingMax {
			f.pendingMax = p
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// runTraced embeds the server's stack in process — the same corpus, the
// same cluster options as the workload's flags, the same API handler —
// and drives it with the workload's schedule over loopback, timing calls
// into each layer.
func runTraced(cfg runConfig) (*report, error) {
	w := cfg.w
	rep := &report{}
	tmp, err := os.MkdirTemp(cfg.work, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	t0 := time.Now()
	served, err := xmlstore.Load(cfg.corpusPath)
	if err != nil {
		return nil, err
	}
	rep.add("setup.load_s", time.Since(t0).Seconds(), "s", "xmlstore.Load")
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(tmp, "data")
	}
	t1 := time.Now()
	cl, err := cluster.New(served, clusterOptions(w, dataDir))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rep.add("setup.analyze_s", time.Since(t1).Seconds(), "s", "cluster.New: partition and initial analysis")

	tr := &tracer{}
	th := &tracedHandler{next: api.NewCluster(cl, api.WithRateLimit(0, 100)), cl: cl, tr: tr}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: th, ReadHeaderTimeout: 5 * time.Second}
	serving := make(chan struct{})
	go func() {
		defer close(serving)
		hs.Serve(ln)
	}()
	defer func() { hs.Close(); <-serving }()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDriver(base, requestWorkers(w))
	d.vis.fallback = cfg.info.bloggers[0]
	defer d.close()
	d.register = func(o *op) { th.ops.Store(o.id, o) }
	// Every other write goes straight to Cluster.AddBatch, so the API's
	// own share of an ingest request is the difference of the two.
	var directSpans []span
	var dmu sync.Mutex
	d.direct = func(o *op) error {
		if o.id%2 == 0 {
			return errNotDirect
		}
		s0 := time.Now()
		err := cl.AddBatch(toBatch(o.write))
		dmu.Lock()
		directSpans = append(directSpans, span{Name: "cluster.addbatch", Op: o.id, Parent: -1, Start: s0, End: time.Now()})
		dmu.Unlock()
		return err
	}

	wait, err := subscribe(ctx, cfg, d)
	if err != nil {
		return nil, err
	}
	defer func() { cancel(); wait() }()
	warmUp(ctx, cfg, d, rep)
	g := newGen(cfg.info, cfg.seed)
	rep.add("trace.overhead_ratio", overheadRatio(ctx, d, th, cfg), "ratio",
		"median latency of the same kind of reads, traced blocks over untraced blocks")
	tr.reset() // the calibration's spans are not part of the workload

	before := cl.FullStatus()
	walBefore := dirSize(dataDir)
	pctx, pstop := context.WithCancel(ctx)
	fl := &flushLog{}
	polled := make(chan struct{})
	go fl.poll(pctx, cl, polled)
	th.on.Store(true)
	runStart := time.Now()
	openPhase(ctx, cfg, d, g)
	closedPhase(ctx, cfg, d, g)
	th.on.Store(false)
	wall := time.Since(runStart)
	pstop()
	<-polled
	after := cl.FullStatus()
	// A forced refresh publishes a generation even with nothing pending, so
	// it is timed after the counters are read: one more flush_ms sample,
	// not one more flush.
	r0 := time.Now()
	if err := cl.Refresh(ctx); err != nil {
		rep.fail("refresh: %v", err)
	}
	refresh := time.Since(r0)

	rep.attempted += len(d.results)
	for _, r := range d.results {
		if r.err != "" {
			rep.fail("%s %s: %s", r.op.method, r.op.path, r.err)
		}
	}
	acked := ackedWrites(d.results)
	mutations := 0
	for _, a := range acked {
		mutations += a.mutations()
	}
	layerMetrics(rep, cl, d, tr.spans, directSpans)
	flushMetrics(rep, fl, refresh, wall, cl.NumShards())
	queryCacheMetric(rep, tr.spans, cl.NumShards())
	statusMetrics(rep, before, after, dataDir, walBefore, mutations)
	replayInfluence(rep, cfg, cl, d)
	writeSpans(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed)), tr.spans, directSpans, d.results)
	return rep, nil
}

// clusterOptions mirrors mass-server's flag defaults plus the workload's
// flags, so the embedded stack is configured as the served one.
func clusterOptions(w workload, dataDir string) cluster.Options {
	return cluster.Options{
		Shards:           w.shards,
		ShardTimeout:     2 * time.Second,
		DataDir:          dataDir,
		ProbeInterval:    time.Second,
		BreakerThreshold: 3,
		SpillLimit:       4096,
		IngestRetries:    3,
		Engine: core.EngineOptions{
			FlushEvery:    flushEvery,
			FlushInterval: flushInterval,
			Durability: core.DurabilityOptions{
				SyncEvery:       64,
				SyncInterval:    100 * time.Millisecond,
				CheckpointEvery: 4096,
			},
		},
	}
}

func toBatch(w *writeOp) core.Batch {
	var b core.Batch
	for _, p := range w.posts {
		b.Posts = append(b.Posts, &blog.Post{ID: blog.PostID(p.ID), Author: blog.BloggerID(p.Author),
			Title: p.Title, Body: p.Body, Posted: p.Posted, Tags: p.Tags})
	}
	for _, c := range w.comments {
		b.Comments = append(b.Comments, core.BatchComment{Post: blog.PostID(c.Post),
			Comment: blog.Comment{Commenter: blog.BloggerID(c.Commenter), Text: c.Text, Posted: c.Posted}})
	}
	for _, l := range w.links {
		b.Links = append(b.Links, blog.Link{From: blog.BloggerID(l.From), To: blog.BloggerID(l.To)})
	}
	return b
}

// overheadRatio sends the same cheap reads alternately with the tracing
// wrapper on and off, inside the embedded stack, and compares the median
// client latencies. It measures the wrapper and its replays, not the cost
// of embedding the stack next to the load generator.
func overheadRatio(ctx context.Context, d *driver, th *tracedHandler, cfg runConfig) float64 {
	g := newGen(cfg.info, cfg.seed+2)
	var on, off []float64
	// Blocks of back-to-back requests, alternating traced and untraced; in
	// a traced block one request in replayEvery also waits for its replay,
	// as in the traced workload.
	const blocks, perBlock = 4, 100
	for b := 0; b < blocks; b++ {
		traced := b%2 == 0
		th.on.Store(traced)
		for i := 0; i < perBlock; i++ {
			o := g.read(false)
			for o.route != "query.bloggers" && o.route != "query.posts" {
				o = g.read(false)
			}
			o.id = -1 - b*perBlock - i
			th.ops.Store(o.id, o)
			r := d.do(ctx, 0, o, time.Now(), "calibrate")
			if r.err != "" {
				continue
			}
			if traced {
				on = append(on, ms(r.done.Sub(r.sent)))
			} else {
				off = append(off, ms(r.done.Sub(r.sent)))
			}
		}
		time.Sleep(50 * time.Millisecond) // let the block's last replay finish
	}
	th.on.Store(false)
	return median(on) / median(off)
}

// layerMetrics derives the api, cluster, query and harness metrics from
// the spans.
func layerMetrics(rep *report, cl *cluster.Cluster, d *driver, spans, direct []span) {
	apiByOp := map[int]span{}
	replayByOp := map[int]span{}
	clByOp := map[int]span{}
	execByOp := map[int]span{}
	exec := map[string][]float64{}
	var execAll []float64
	routes := map[string][]float64{}
	var readBytes []float64
	for _, s := range spans {
		switch s.Name {
		case "api":
			apiByOp[s.Op] = s
			routes[s.Route] = append(routes[s.Route], ms(s.dur()))
			if !strings.HasPrefix(s.Route, "write.") {
				readBytes = append(readBytes, float64(s.Bytes))
			}
		case "replay":
			replayByOp[s.Op] = s
		case "cluster.query":
			clByOp[s.Op] = s
		case "query.exec":
			exec[s.Route] = append(exec[s.Route], ms(s.dur()))
			execAll = append(execAll, ms(s.dur()))
			execByOp[s.Op] = s
		}
	}
	var readSelf, clSelf, shardsPer []float64
	for id, c := range clByOp {
		e, hasExec := execByOp[id]
		// The replay runs after the handler filled the cache, so when the
		// handler's own call computed the answer, the uncached execution
		// stands for the query layer's share instead.
		inner := c
		if hasExec && c.Computed {
			inner = e
		}
		if a, ok := apiByOp[id]; ok {
			readSelf = append(readSelf, ms(a.dur()-inner.dur()))
		}
		// A scatter executes on every shard uncached, so the slowest
		// shard's execution is taken out; any other plan is a lookup in one
		// engine's query cache, which the handler has just filled, so the
		// replay executed nothing and the whole call counts.
		n, self := 1.0, c.dur()
		if strings.HasPrefix(c.Plan, "scatter/") {
			n = float64(cl.NumShards())
			if hasExec {
				self -= e.dur()
			}
		}
		clSelf = append(clSelf, ms(self))
		shardsPer = append(shardsPer, n)
	}
	rep.add("api.read_self_ms", median(readSelf), "ms", fmt.Sprintf("handler minus Cluster.Query on the same AST and view (uncached execution when the handler missed the cache), n=%d", len(readSelf)))
	var ingestAPI, addBatch []float64
	for _, s := range spans {
		if s.Name == "api" && strings.HasPrefix(s.Route, "write.") {
			ingestAPI = append(ingestAPI, ms(s.dur()))
		}
	}
	for _, s := range direct {
		addBatch = append(addBatch, ms(s.dur()))
	}
	rep.add("api.ingest_self_ms", zeroNaN(median(ingestAPI)-median(addBatch)), "ms",
		fmt.Sprintf("median ingest handler (n=%d) minus median direct Cluster.AddBatch (n=%d)", len(ingestAPI), len(addBatch)))
	rep.add("api.resp_bytes_per_read", mean(readBytes), "B", fmt.Sprintf("n=%d", len(readBytes)))
	rep.add("cluster.query_self_ms", median(clSelf), "ms", fmt.Sprintf("Cluster.Query, minus the slowest shard's uncached execution for scatters, n=%d", len(clSelf)))
	rep.add("cluster.shards_per_query", mean(shardsPer), "count", fmt.Sprintf("n=%d", len(shardsPer)))
	rep.add("cluster.addbatch_ms", zeroNaN(median(addBatch)), "ms", fmt.Sprintf("n=%d", len(addBatch)))
	rep.add("query.exec_ms", median(execAll), "ms", fmt.Sprintf("uncached query.Execute, slowest shard, all entities, n=%d", len(execAll)))
	for _, e := range []string{"bloggers", "posts", "domains"} {
		rep.add("query.exec_ms."+e, zeroNaN(median(exec[e])), "ms",
			fmt.Sprintf("uncached query.Execute, slowest shard, n=%d", len(exec[e])))
	}
	names := make([]string, 0, len(routes))
	for r := range routes {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		t := summarize(routes[r])
		rep.add("api.route."+r+".count", float64(t.N), "count", "")
		rep.add("api.route."+r+".p50_ms", t.P50, "ms", "")
		rep.add("api.route."+r+".p99_ms", t.PTop, "ms", fmt.Sprintf("p%.4g", t.Pct))
	}
	// Time each request spent outside the handler: client, transport and
	// queueing behind other requests.
	var readGap, writeGap, lates []float64
	for _, r := range d.results {
		if r.phase != "open" {
			continue
		}
		lates = append(lates, ms(r.late))
		a, ok := apiByOp[r.op.id]
		if !ok || r.err != "" {
			continue
		}
		gap := ms(r.latency() - a.dur() - replayByOp[r.op.id].dur())
		if r.op.isWrite() {
			writeGap = append(writeGap, gap)
		} else {
			readGap = append(readGap, gap)
		}
	}
	rep.add("read.unaccounted_ms", zeroNaN(median(readGap)), "ms", fmt.Sprintf("open-loop read latency minus handler span, n=%d", len(readGap)))
	rep.add("write.unaccounted_ms", zeroNaN(median(writeGap)), "ms", fmt.Sprintf("open-loop write latency minus handler span, n=%d", len(writeGap)))
	rep.add("loadgen.late_p99_ms", summarize(lates).PTop, "ms", fmt.Sprintf("n=%d", len(lates)))
}

// zeroNaN reports a metric with no samples as 0.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

func flushMetrics(rep *report, fl *flushLog, refresh, wall time.Duration, shards int) {
	var el []float64
	var busy time.Duration
	var muts uint64
	for _, f := range fl.flushes {
		el = append(el, ms(f.elapsed))
		busy += f.elapsed
		muts += f.mutations
	}
	el = append(el, ms(refresh))
	t := summarize(el)
	rep.add("core.flush_p50_ms", t.P50, "ms", fmt.Sprintf("Snapshot.Elapsed per new generation plus the final Cluster.Refresh, n=%d", t.N))
	rep.add("core.flush_p99_ms", t.PTop, "ms", fmt.Sprintf("p%.4g", t.Pct))
	rep.add("core.flushes", float64(len(fl.flushes)), "count", fmt.Sprintf("over %d shards", shards))
	mpf := 0.0
	if len(fl.flushes) > 0 {
		mpf = float64(muts) / float64(len(fl.flushes))
	}
	rep.add("core.mutations_per_flush", mpf, "count", "")
	rep.add("core.pending_max", float64(fl.pendingMax), "count", "")
	rep.add("core.flush_busy_share", busy.Seconds()/wall.Seconds(), "ratio", "summed shard analysis time over run wall time")
	rep.add("linkrank.skipped_flushes", float64(fl.skipped), "count", "")
	rep.add("linkrank.delta_flushes", float64(fl.delta), "count", "")
	rep.add("linkrank.fallback_flushes", float64(fl.fallback), "count", "")
	ppf := 0.0
	if fl.delta > 0 {
		ppf = float64(fl.push) / float64(fl.delta)
	}
	rep.add("linkrank.pushed_per_delta_flush", ppf, "count", "")
}

// queryCacheMetric is the share of cache-backed reads whose handler found
// its answer in the query cache. Only a single shard serves ranking,
// scenario and /query reads through the memoized System.Query; at N>1
// those reads scatter uncached, and the read-your-writes probes vary
// their page size so as to miss. So the metric is reported on one shard
// over the read mix, and nowhere else.
func queryCacheMetric(rep *report, spans []span, shards int) {
	if shards > 1 {
		return
	}
	cached := map[string]bool{"top": true, "domain_top": true, "advert": true, "profile": true,
		"query.bloggers": true, "query.posts": true, "query.domains": true}
	lookups, misses := 0, 0
	for _, s := range spans {
		if s.Name != "api" || !cached[s.Route] {
			continue
		}
		lookups++
		if s.Computed {
			misses++
		}
	}
	if lookups == 0 {
		return
	}
	rep.add("query.cache_hit_ratio", 1-float64(misses)/float64(lookups), "ratio",
		fmt.Sprintf("%d misses over %d cache-backed reads", misses, lookups))
}

func statusMetrics(rep *report, b, a cluster.ClusterStatus, dataDir string, walBefore int64, mutations int) {
	rep.add("cluster.degraded_reads", float64(a.DegradedQueries-b.DegradedQueries), "count", "")
	rep.add("cluster.shed_writes", float64(a.ShedRequests-b.ShedRequests), "count", "")
	rep.add("cluster.spilled_records", float64(a.SpilledRecords-b.SpilledRecords), "count", "")
	inc, full := a.IncrementalEvals-b.IncrementalEvals, a.FullEvalFallbacks-b.FullEvalFallbacks
	ratio := 0.0
	if inc+full > 0 {
		ratio = float64(inc) / float64(inc+full)
	}
	rep.add("subs.incremental_ratio", ratio, "ratio", fmt.Sprintf("%d incremental, %d full re-evaluations", inc, full))
	rep.add("subs.pushed_diffs", float64(a.PushedDiffs-b.PushedDiffs), "count", "")
	rep.add("subs.dropped_diffs", float64(a.DroppedDiffs-b.DroppedDiffs), "count", "")
	recs, syncs := a.WALRecords-b.WALRecords, a.WALSyncs-b.WALSyncs
	rps := 0.0
	if syncs > 0 {
		rps = float64(recs) / float64(syncs)
	}
	rep.add("wal.records_per_sync", rps, "count", fmt.Sprintf("%d records, %d syncs", recs, syncs))
	bpm := 0.0
	if mutations > 0 && dataDir != "" {
		bpm = float64(dirSize(dataDir)-walBefore) / float64(mutations)
	}
	rep.add("wal.bytes_per_mutation", bpm, "B", fmt.Sprintf("data-dir growth over %d acked mutations", mutations))
	rep.add("wal.checkpoints", float64(a.Checkpoints-b.Checkpoints), "count", "")
}

func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// maxReplayFlushes bounds the influence replay's warm flushes: enough to
// reach two of mixed-sharded's back-dated posts (every fifth posts write).
const maxReplayFlushes = 24

// replayInfluence re-runs the analysis lineage of the run on the
// benchmark's own copy of the corpus: a cold Analyzer.AnalyzeCached, then
// one warm call per flush window of acked writes, in ack order. Windows
// holding a back-dated post are timed apart from the in-order ones: the
// novelty cache scores posts in chronological order, so a post dated
// before the latest one it holds costs a reset and a replay. The program
// exposes no counter of those replays; the count of back-dated windows is
// a property of the workload.
func replayInfluence(rep *report, cfg runConfig, cl *cluster.Cluster, d *driver) {
	c := cfg.corpus
	an, err := influence.NewAnalyzer(influence.Config{Workers: runtime.GOMAXPROCS(0)}, cl.Shard(0).Current().Classifier())
	if err != nil {
		rep.fail("analyzer: %v", err)
		return
	}
	cache := influence.NewCache()
	t0 := time.Now()
	prev, err := an.AnalyzeCached(c.Snapshot(), nil, cache)
	if err != nil {
		rep.fail("cold analysis: %v", err)
		return
	}
	cold := time.Since(t0)
	// Group acked writes into the flush windows the engine would see.
	var acked []*result
	for _, r := range d.results {
		if r.op.isWrite() && r.err == "" {
			acked = append(acked, r)
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].done.Before(acked[j].done) })
	var groups [][]*writeOp
	var cur []*writeOp
	var edge time.Time
	for _, r := range acked {
		if len(cur) > 0 && r.done.Sub(edge) >= flushInterval {
			groups = append(groups, cur)
			cur = nil
		}
		if len(cur) == 0 {
			edge = r.done
		}
		cur = append(cur, r.op.write)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	if len(groups) > maxReplayFlushes {
		groups = groups[:maxReplayFlushes]
	}
	var times, backTimes, inTimes, iters, rp, rn, rs []float64
	latest := cfg.info.last
	for _, grp := range groups {
		backdated := false
		for _, w := range grp {
			for _, p := range w.posts {
				if p.Posted.Before(latest) {
					backdated = true
				}
			}
		}
		for _, w := range grp {
			for _, p := range w.posts {
				if p.Posted.After(latest) {
					latest = p.Posted
				}
			}
		}
		if err := applyWrites(c, grp); err != nil {
			rep.fail("replay: %v", err)
			return
		}
		a0 := time.Now()
		res, err := an.AnalyzeCached(c.Snapshot(), prev, cache)
		if err != nil {
			rep.fail("replay analysis: %v", err)
			return
		}
		t := ms(time.Since(a0))
		times = append(times, t)
		if backdated {
			backTimes = append(backTimes, t)
		} else {
			inTimes = append(inTimes, t)
		}
		iters = append(iters, float64(res.Iterations))
		rp = append(rp, float64(res.ReusedPosteriors)/float64(len(c.Posts)))
		rn = append(rn, float64(res.ReusedNovelty)/float64(len(c.Posts)))
		rs = append(rs, float64(res.ReusedSentiments)/float64(max(totalComments(c), 1)))
		prev = res
	}
	if len(times) == 0 {
		rep.add("influence.analyze_ms", ms(cold), "ms", "cold AnalyzeCached; no writes to replay")
		rep.add("influence.iterations", float64(prev.Iterations), "count", "cold analysis")
		rep.add("influence.reused_posteriors_ratio", 0, "ratio", "")
		rep.add("influence.reused_novelty_ratio", 0, "ratio", "")
		rep.add("influence.reused_sentiments_ratio", 0, "ratio", "")
	} else {
		rep.add("influence.analyze_ms", median(times), "ms", fmt.Sprintf("warm AnalyzeCached per flush window, n=%d (cold %.0f ms)", len(times), ms(cold)))
		rep.add("influence.iterations", median(iters), "count", "")
		rep.add("influence.reused_posteriors_ratio", median(rp), "ratio", "")
		rep.add("influence.reused_novelty_ratio", median(rn), "ratio", "")
		rep.add("influence.reused_sentiments_ratio", median(rs), "ratio", "")
	}
	if len(backTimes) > 0 {
		rep.add("influence.analyze_backdated_ms", median(backTimes), "ms", fmt.Sprintf("windows with a back-dated post, n=%d", len(backTimes)))
		rep.add("influence.analyze_inorder_ms", zeroNaN(median(inTimes)), "ms", fmt.Sprintf("windows in time order, n=%d", len(inTimes)))
	}
	rep.add("influence.backdated_flushes", float64(len(backTimes)), "count",
		fmt.Sprintf("of %d replayed windows; a workload figure, not a program counter", len(times)))
}

func totalComments(c *blog.Corpus) int {
	n := 0
	for _, p := range c.Posts {
		n += len(p.Comments)
	}
	return n
}

// writeSpans writes the run's spans, plus one root span per request, as
// JSON for offline inspection.
func writeSpans(path string, spans, direct []span, rs []*result) {
	all := make([]span, 0, len(spans)+len(direct)+len(rs))
	root := map[int]int{}
	for _, r := range rs {
		root[r.op.id] = len(all)
		all = append(all, span{Name: "op", Route: r.op.route, Op: r.op.id, Parent: -1, Start: r.due, End: r.done})
	}
	off := len(all)
	for _, s := range append(append([]span(nil), spans...), direct...) {
		switch {
		case s.Parent >= 0:
			s.Parent += off
		default:
			if p, ok := root[s.Op]; ok {
				s.Parent = p
			}
		}
		all = append(all, s)
	}
	b, err := json.Marshal(all)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
}
