package main

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"mass/internal/lexicon"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestSummarizeTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // reversed: summarize must sort
		}
		return s
	}
	// 1000 samples: p99 leaves exactly 10 above it.
	if got := summarize(seq(1000)); got.Pct != 99 || got.PTop != 990 || got.P50 != 500 {
		t.Errorf("n=1000: %+v", got)
	}
	// 500 samples: p99 would leave 5 above it, so the tail is the sample
	// with 10 above it.
	got := summarize(seq(500))
	if got.PTop != 490 || got.Pct != 98 {
		t.Errorf("n=500: %+v", got)
	}
	// 15 samples: any percentile with 10 above it is below the median.
	if got := summarize(seq(15)); got.PTop != 15 || got.Pct != 100 {
		t.Errorf("n=15: %+v", got)
	}
	if got := summarize(nil); got.N != 0 || !math.IsNaN(got.PTop) {
		t.Errorf("n=0: %+v", got)
	}
}

// Expected values are statistics.quantiles(values, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}

func testInfo() *corpusInfo {
	ci := &corpusInfo{links: map[linkReq]bool{}}
	for i := 0; i < 50; i++ {
		ci.bloggers = append(ci.bloggers, fmt.Sprintf("blogger%04d", i))
	}
	ci.center = ci.bloggers[0]
	ci.domains = lexicon.Domains()
	ci.first = time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)
	ci.last = ci.first.Add(300 * 24 * time.Hour)
	for i := 0; i < 20; i++ {
		ci.recent = append(ci.recent, fmt.Sprintf("p%d", i))
	}
	return ci
}

func TestOpenLoopSchedule(t *testing.T) {
	w := workload{readRate: 100, writeRate: 5, slowCalls: 2, trends: true, backfill: 0.5}
	dur := 2 * time.Second
	ops := openLoop(newGen(testInfo(), 7), w, dur)
	var reads, writes, stats, network []*op
	for i, o := range ops {
		if o.id != i {
			t.Fatalf("op %d has id %d", i, o.id)
		}
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if o.due < 0 || o.due >= dur {
			t.Fatalf("op %d due at %s, outside [0,%s)", i, o.due, dur)
		}
		switch {
		case o.route == "stats":
			stats = append(stats, o)
		case o.route == "network":
			network = append(network, o)
		case o.isWrite():
			writes = append(writes, o)
		default:
			reads = append(reads, o)
		}
	}
	if len(reads) != 200 || len(writes) != 10 {
		t.Fatalf("got %d reads and %d writes, want 200 and 10", len(reads), len(writes))
	}
	// Fixed rate: arrivals are evenly spaced from 0.
	for i, o := range reads {
		if want := time.Duration(i) * 10 * time.Millisecond; o.due != want {
			t.Fatalf("read %d due at %s, want %s", i, o.due, want)
		}
	}
	for i, o := range writes {
		if want := time.Duration(i) * 200 * time.Millisecond; o.due != want {
			t.Fatalf("write %d due at %s, want %s", i, o.due, want)
		}
	}
	// The expensive calls sit at the quarter points of equal slices.
	wantStats := []time.Duration{250 * time.Millisecond, 1250 * time.Millisecond}
	wantNet := []time.Duration{750 * time.Millisecond, 1750 * time.Millisecond}
	for k := range wantStats {
		if stats[k].due != wantStats[k] || network[k].due != wantNet[k] {
			t.Fatalf("slow call %d at %s/%s, want %s/%s", k, stats[k].due, network[k].due, wantStats[k], wantNet[k])
		}
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	w := workload{readRate: 50, writeRate: 10, backfill: 0.2, trends: true}
	a := openLoop(newGen(testInfo(), 3), w, time.Second)
	b := openLoop(newGen(testInfo(), 3), w, time.Second)
	c := openLoop(newGen(testInfo(), 4), w, time.Second)
	same := func(x, y []*op) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].due != y[i].due || x[i].path != y[i].path || !bytes.Equal(x[i].body, y[i].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if same(a, c) {
		t.Error("different seeds gave the same schedule")
	}
}

func TestWritesAreValid(t *testing.T) {
	ci := testInfo()
	g := newGen(ci, 9)
	seenPost := map[string]bool{}
	backfilled, postWrites, newAuthors := 0, 0, 0
	known := map[string]bool{}
	for _, b := range ci.bloggers {
		known[b] = true
	}
	for i := 0; i < 500; i++ {
		o := g.write(0.3)
		w := o.write
		if w.kind == "posts" {
			postWrites++
			if !known[w.posts[0].Author] {
				newAuthors++
			}
		}
		if w.mutations() == 0 {
			t.Fatalf("write %d is empty", i)
		}
		for _, p := range w.posts {
			if seenPost[p.ID] {
				t.Fatalf("post id %s reused", p.ID)
			}
			seenPost[p.ID] = true
			if p.Author != w.posts[0].Author {
				t.Fatalf("a posts write must have one author, so one probe covers it")
			}
			if w.backfill != p.Posted.Before(ci.last) {
				t.Fatalf("post %s at %s: backfill=%v", p.ID, p.Posted, w.backfill)
			}
		}
		if w.backfill {
			backfilled++
		}
		for _, l := range w.links {
			if l.From == l.To || ci.links[l] {
				t.Fatalf("bad link %+v", l)
			}
		}
	}
	if backfilled == 0 {
		t.Error("no write was back-dated")
	}
	if want := (postWrites + 10 - newBloggerAt) / 10; newAuthors != want {
		t.Errorf("%d of %d posts writes by new bloggers, want %d", newAuthors, postWrites, want)
	}
}
