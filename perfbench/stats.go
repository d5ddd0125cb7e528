package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least a q share of the samples at or below
// it. It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tail is a latency summary: the median and the highest percentile the
// sample supports, with the sample count behind them.
type tail struct {
	N    int     // samples
	P50  float64 // median
	PTop float64 // the tail percentile's value
	Pct  float64 // which percentile PTop is (99 when N >= 1000)
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// summarize reports p50 and p99 — or, when fewer than 1000 samples leave
// fewer than minBeyond beyond p99, the highest percentile that still has
// minBeyond samples above it. With 2·minBeyond or fewer samples that
// percentile would sit at or below the median, so the tail is the maximum
// and Pct is 100.
func summarize(samples []float64) tail {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	t := tail{N: n, P50: quantile(s, 0.5)}
	switch {
	case n == 0:
		t.PTop, t.Pct = math.NaN(), 99
	case n-int(math.Ceil(0.99*float64(n))) >= minBeyond:
		t.PTop, t.Pct = quantile(s, 0.99), 99
	case n > 2*minBeyond:
		// The sample at index n-1-minBeyond has exactly minBeyond above it.
		t.PTop = s[n-1-minBeyond]
		t.Pct = 100 * float64(n-minBeyond) / float64(n)
	default:
		t.PTop, t.Pct = s[n-1], 100
	}
	return t
}

// quartiles returns the three cut points that split values into four
// equal groups, with the same interpolation as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so a
// spread computed here matches one computed from the printed values.
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var out [3]float64
	n := len(s)
	if n == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// median is the middle value (the mean of the two middle values for an
// even count).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
