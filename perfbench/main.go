// Command perfbench is the repository benchmark: it boots the real
// mass-server on a synthetic corpus generated from a seed, drives it over
// loopback with one of three workloads, checks the answers, and prints
// every metric with its unit. With -trace 1 it instead embeds the same
// stack in process and times calls into each layer, which gives the
// per-layer metrics. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/synth"
	"mass/internal/xmlstore"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"-"`
}

// report accumulates a run's metrics, operation counts and failures.
type report struct {
	metrics   []metric
	attempted int
	failures  []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Note: note})
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// gated are the metrics each mode puts in the final JSON line; the other
// metrics are printed on the report lines above it.
var gated = map[bool][]string{
	false: {"setup_s", "cpu_ms_per_op", "rss_peak_mb"},
	// Per-layer metrics are gated only where every workload measures them;
	// the write-only times (api.ingest_self_ms, cluster.addbatch_ms,
	// write.unaccounted_ms), the back-dated and in-order influence times,
	// the single-shard query.cache_hit_ratio and the per-entity
	// query.exec_ms.* split are on the report lines.
	true: {
		"api.read_self_ms", "api.resp_bytes_per_read",
		"cluster.query_self_ms", "cluster.shards_per_query",
		"cluster.degraded_reads", "cluster.shed_writes", "cluster.spilled_records",
		"core.flush_p50_ms", "core.flush_p99_ms", "core.flushes", "core.mutations_per_flush",
		"core.pending_max", "core.flush_busy_share",
		"query.exec_ms",
		"influence.analyze_ms", "influence.iterations", "influence.reused_posteriors_ratio",
		"influence.reused_novelty_ratio", "influence.reused_sentiments_ratio", "influence.backdated_flushes",
		"linkrank.skipped_flushes", "linkrank.delta_flushes", "linkrank.fallback_flushes", "linkrank.pushed_per_delta_flush",
		"subs.incremental_ratio", "subs.pushed_diffs", "subs.dropped_diffs",
		"wal.records_per_sync", "wal.bytes_per_mutation", "wal.checkpoints",
		"setup.load_s", "setup.analyze_s",
		"loadgen.late_p99_ms", "read.unaccounted_ms", "trace.overhead_ratio",
	},
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload name: read-zipf, ingest-live or mixed-sharded")
		seed    = flag.Int64("seed", 1, "workload seed: what is read and written, and in which order (the corpus is fixed)")
		seconds = flag.Int("seconds", 8, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced in-process run for the per-layer metrics")
		bin     = flag.String("server", "", "mass-server binary (untraced runs)")
		work    = flag.String("workdir", ".bench_build", "directory for the corpus cache, data dirs and logs")
		smoke   = flag.Bool("smoke", false, "short check of one workload: 2 measured seconds, one setup, small corpus")
	)
	flag.Parse()
	w, ok := findWorkload(*wname)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wname)
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		setups: 3, bloggers: corpusBloggers, posts: corpusPosts, work: *work, bin: *bin}
	if *smoke {
		cfg.dur, cfg.setups, cfg.bloggers, cfg.posts = 2*time.Second, 1, 300, 3000
	}
	rep, err := run(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !emit(rep, *trace == 1) {
		os.Exit(1)
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	w                       workload
	seed                    int64
	dur                     time.Duration
	setups                  int
	bloggers, posts         int
	work, bin               string
	corpusPath              string
	corpus                  *blog.Corpus
	info                    *corpusInfo
	genSeconds, loadSeconds float64
}

func run(cfg runConfig, traced bool) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	if !traced && cfg.bin == "" {
		return nil, fmt.Errorf("-server is required for untraced runs")
	}
	path, gen, err := ensureCorpus(cfg.work, corpusSeed, cfg.bloggers, cfg.posts)
	if err != nil {
		return nil, err
	}
	cfg.corpusPath, cfg.genSeconds = path, gen
	t0 := time.Now()
	if cfg.corpus, err = xmlstore.Load(path); err != nil {
		return nil, err
	}
	cfg.loadSeconds = time.Since(t0).Seconds()
	cfg.info = newCorpusInfo(cfg.corpus, cfg.seed)
	printValidity(cfg, traced)
	if traced {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

// ensureCorpus returns the cached synthetic corpus for (seed, size),
// generating it first when absent, and the generation time (0 on a hit).
func ensureCorpus(work string, seed int64, bloggers, posts int) (string, float64, error) {
	dir := filepath.Join(work, "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("synth-s%d-b%d-p%d.xml", seed, bloggers, posts))
	if _, err := os.Stat(path); err == nil {
		return path, 0, nil
	}
	t0 := time.Now()
	c, _, err := synth.Generate(synth.Config{Seed: seed, Bloggers: bloggers, Posts: posts})
	if err != nil {
		return "", 0, err
	}
	tmp := path + ".tmp"
	if err := xmlstore.Save(tmp, c); err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", 0, err
	}
	return path, time.Since(t0).Seconds(), nil
}

// printValidity records what a reader needs to judge the run: the host,
// the toolchain, the server command line and the load shape.
func printValidity(cfg runConfig, traced bool) {
	w := cfg.w
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.dur.Seconds(), traced)
	fmt.Printf("validity nproc=%d gomaxprocs=%d go=%s cpu=%q connections=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), runtime.NumCPU())
	fmt.Printf("validity server_flags=%q\n", strings.Join(w.serverFlags("<tmp>/data"), " "))
	fmt.Printf("validity read_rate=%g/s write_rate=%g/s probe_rate=%g/s backfill=%g slow_calls=%d goodput_share=%g read_limit=%s probe_every=%s\n",
		w.readRate, w.writeRate, w.probeRate, w.backfill, w.slowCalls, w.goodputShare, w.readLimit, probeEvery)
	fmt.Printf("corpus bloggers=%d posts=%d comments=%d links=%d gen_s=%.3f load_s=%.3f path=%s\n",
		len(cfg.info.bloggers), cfg.info.posts, cfg.info.comments, cfg.info.nlinks, cfg.genSeconds, cfg.loadSeconds, cfg.corpusPath)
}

// requestWorkers is how many request connections the load generator
// holds: nproc in all, one of them the event stream when the workload has
// one.
func requestWorkers(w workload) int {
	n := runtime.NumCPU()
	if w.sse {
		n--
	}
	if n < 1 {
		n = 1
	}
	return n
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// emit prints every metric, then the JSON result line, and reports
// whether the run was correct.
func emit(rep *report, traced bool) bool {
	byName := map[string]metric{}
	for _, m := range rep.metrics {
		byName[m.Name] = m
		note := ""
		if m.Note != "" {
			note = " (" + m.Note + ")"
		}
		fmt.Printf("metric %-36s %14.4f %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	for i, f := range rep.failures {
		if i == 20 {
			fmt.Printf("FAIL ... and %d more\n", len(rep.failures)-i)
			break
		}
		fmt.Printf("FAIL %s\n", f)
	}
	out := map[string]metric{}
	for _, name := range gated[traced] {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.fail("metric %s was not measured", name)
			continue
		}
		out[name] = m
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	correct := len(rep.failures) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": len(rep.failures), "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}
