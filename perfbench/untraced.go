package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// runUntraced measures the end-to-end metrics against a mass-server child
// process: set-up time over cfg.setups boots, then the open-loop phase,
// then (for read workloads) the closed-loop goodput phase, then the
// correctness checks.
func runUntraced(cfg runConfig) (*report, error) {
	w := cfg.w
	rep := &report{}
	tmp, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Every boot but the last is stopped once ready; its peak RSS joins
	// the measured server's in rss_peak_mb, because where garbage
	// collection falls in the boot moves the boot's peak (by up to a fifth
	// with -data-dir, whose boot writes a checkpoint).
	var setups, bootPeaks []float64
	var srv *server
	for i := 0; i < cfg.setups; i++ {
		dataDir := filepath.Join(tmp, fmt.Sprintf("data-%d", i))
		s, err := startServer(cfg.bin, cfg.corpusPath, w.serverFlags(dataDir), filepath.Join(tmp, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.ready.Seconds())
		if i < cfg.setups-1 {
			peak, err := s.peakRSSMB()
			s.kill()
			if err != nil {
				return nil, err
			}
			bootPeaks = append(bootPeaks, peak)
			continue
		}
		srv = s
	}
	defer srv.kill()
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d boots: %s", len(setups), fmtList(setups)))
	rep.add("corpus_gen_s", cfg.genSeconds, "s", "0 when the corpus came from the cache")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDriver(srv.base, requestWorkers(w))
	d.vis.fallback = cfg.info.bloggers[0]
	defer d.close()
	d.keep = func(o *op) bool { return o.ast != nil || o.route == "blogger" }
	g := newGen(cfg.info, cfg.seed)
	wait, err := subscribe(ctx, cfg, d)
	if err != nil {
		return nil, err
	}
	defer func() { cancel(); wait() }()
	warmUp(ctx, cfg, d, rep)

	// Server CPU is taken over the open-loop phase and the drain that
	// folds its writes, so cpu_ms_per_op is the work a fixed set of
	// requests costs, whatever the closed-loop phase then manages.
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	busy0, steal0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	openPhase(ctx, cfg, d, g)
	if err := drain(ctx, d, 60*time.Second); err != nil {
		rep.fail("drain: %v", err)
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	busy1, steal1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	rep.add("host.steal_share", (steal1-steal0)/max(busy1-busy0, 1), "ratio",
		"stolen share of the host's busy CPU time over the open loop and drain (validity only)")
	closedDur := closedPhase(ctx, cfg, d, g)
	hwm, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	open, closed := splitPhases(d.results)
	completed := 0
	for _, r := range open {
		if r.err == "" {
			completed++
		}
	}
	rep.attempted += len(d.results)
	for _, r := range d.results {
		if r.err != "" {
			rep.fail("%s %s: %s", r.op.method, r.op.path, r.err)
		}
	}
	reads, writes, lates := latencies(open)
	rt := summarize(reads)
	rq := quartiles(reads)
	rep.add("read_p50_ms", rt.P50, "ms", fmt.Sprintf("open loop, from due time, n=%d, quartiles %.3f/%.3f/%.3f", rt.N, rq[0], rq[1], rq[2]))
	rep.add("read_p99_ms", rt.PTop, "ms", fmt.Sprintf("p%.4g, n=%d", rt.Pct, rt.N))
	if len(writes) > 0 {
		wt := summarize(writes)
		rep.add("write_ack_p50_ms", wt.P50, "ms", fmt.Sprintf("n=%d", wt.N))
		rep.add("write_ack_p99_ms", wt.PTop, "ms", fmt.Sprintf("p%.4g, n=%d", wt.Pct, wt.N))
	}
	if closedDur > 0 {
		good := 0
		for _, r := range closed {
			if r.err == "" && r.latency() <= w.readLimit {
				good++
			}
		}
		rep.add("read_goodput_rps", float64(good)/closedDur.Seconds(), "1/s",
			fmt.Sprintf("closed loop, %d connections, limit %s, %d of %d reads", d.workers, w.readLimit, good, len(closed)))
	}
	if completed > 0 {
		rep.add("cpu_ms_per_op", (cpu1-cpu0)*1000/float64(completed), "ms",
			fmt.Sprintf("%.2f s server CPU over %d completed open-loop ops and the drain", cpu1-cpu0, completed))
	}
	rep.add("rss_peak_mb", max(hwm, slices.Max(append(bootPeaks, 0))), "MB",
		fmt.Sprintf("highest VmHWM: %.1f MB over the measured server's boot and run, %s MB over the other boots", hwm, fmtList(bootPeaks)))
	lt := summarize(lates)
	rep.add("loadgen.late_p99_ms", lt.PTop, "ms", fmt.Sprintf("generator dispatch lateness p%.4g, n=%d", lt.Pct, lt.N))

	if w.writeRate > 0 {
		lat, unseen := d.vis.freshness(w.sse)
		vt := summarize(lat)
		src := "read-your-writes probes every " + probeEvery.String()
		if w.sse {
			src = "subscription event stream"
		}
		rep.add("visible_p50_ms", vt.P50, "ms", fmt.Sprintf("%s, n=%d, %d unseen in the run", src, vt.N, unseen))
		rep.add("visible_p99_ms", vt.PTop, "ms", fmt.Sprintf("p%.4g, n=%d", vt.Pct, vt.N))
	}
	checkCorrect(ctx, cfg, d, srv, rep)
	failedOps := len(rep.failures)
	rep.add("error_rate", float64(failedOps)/float64(max(rep.attempted, 1)), "ratio",
		fmt.Sprintf("%d failed of %d attempted", failedOps, rep.attempted))
	return rep, nil
}

func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, ",")
}

func splitPhases(rs []*result) (open, closed []*result) {
	for _, r := range rs {
		switch r.phase {
		case "open":
			open = append(open, r)
		case "closed":
			closed = append(closed, r)
		}
	}
	return open, closed
}

// latencies splits successful open-loop results into read and write
// latencies (ms, from due time) and returns the generator lateness.
func latencies(rs []*result) (reads, writes, lates []float64) {
	for _, r := range rs {
		lates = append(lates, ms(r.late))
		if r.err != "" {
			continue
		}
		if r.op.isWrite() {
			writes = append(writes, ms(r.latency()))
		} else {
			reads = append(reads, ms(r.latency()))
		}
	}
	return reads, writes, lates
}

// subscriptionASTs are the standing queries the ingest workload keeps
// registered; the first one (newest posts) is the freshness probe whose
// event stream the benchmark follows.
func subscriptionASTs(domains []string) [][]byte {
	asts := [][]byte{
		mustJSON(map[string]any{"entity": "posts", "orderBy": []map[string]any{{"field": "posted", "desc": true}}, "limit": 50}),
		mustJSON(map[string]any{"entity": "bloggers", "orderBy": []map[string]any{{"field": "influence", "desc": true}}, "limit": 20}),
		mustJSON(map[string]any{"entity": "bloggers", "where": map[string]any{"field": "posts", "op": "ge", "value": 5},
			"orderBy": []map[string]any{{"field": "ap", "desc": true}}, "limit": 20}),
		mustJSON(map[string]any{"entity": "posts", "where": map[string]any{"field": "comments", "op": "ge", "value": 3},
			"orderBy": []map[string]any{{"field": "quality", "desc": true}}, "limit": 20}),
	}
	for _, d := range domains {
		asts = append(asts, mustJSON(map[string]any{"entity": "bloggers",
			"orderBy": []map[string]any{{"field": "domain:" + d, "desc": true}}, "limit": 10}))
	}
	return asts
}

// registerSubscriptions registers the standing queries and returns the
// event-stream path of the freshness probe.
func registerSubscriptions(ctx context.Context, d *driver, domains []string) (string, error) {
	var events string
	for i, ast := range subscriptionASTs(domains) {
		var sub struct {
			Events string `json:"events"`
		}
		if err := getEnvelope(ctx, d.client, d.base, "POST", "/api/v1/subscriptions", ast, &sub); err != nil {
			return "", fmt.Errorf("registering subscription %d: %w", i, err)
		}
		if i == 0 {
			events = sub.Events
		}
	}
	return events, nil
}

// drain waits until the server has folded every pending mutation and its
// generation has stopped moving, so the final checks see the whole run.
func drain(ctx context.Context, d *driver, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last uint64
	for stable < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("mutations still pending after %s", timeout)
		}
		var st engineStatus
		if err := getEnvelope(ctx, d.client, d.base, "GET", "/api/v1/engine", nil, &st); err != nil {
			return err
		}
		if st.Pending == 0 && st.Seq == last {
			stable++
		} else {
			stable = 0
		}
		last = st.Seq
		time.Sleep(100 * time.Millisecond)
	}
	return nil
}

// decodeRows extracts id/score rows from a query result or a scored list.
func decodeRows(data json.RawMessage) ([]scoredRow, error) {
	var qr struct {
		Rows []scoredRow `json:"rows"`
	}
	if len(data) > 0 && data[0] == '{' {
		err := json.Unmarshal(data, &qr)
		return qr.Rows, err
	}
	var list []struct {
		Blogger string  `json:"blogger"`
		Score   float64 `json:"score"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, err
	}
	rows := make([]scoredRow, len(list))
	for i, s := range list {
		rows[i] = scoredRow{ID: s.Blogger, Score: s.Score}
	}
	return rows, nil
}

type scoredRow struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}
