package linkrank

import (
	"math"

	"mass/internal/graph"
)

// This file holds the dense solver core: PageRank as an iterative kernel
// over a frozen graph.CSR, with ping-pong []float64 buffers and zero
// allocations inside the sweep loop. Every sweep runs on the caller's
// goroutine and every floating-point reduction (the dangling mass, the
// convergence delta) runs in node-index order, so results are
// deterministic.

// DenseResult carries a converged score vector aligned to a CSR's interned
// node index (Scores[i] belongs to CSR.IDs[i]), plus solver diagnostics.
type DenseResult struct {
	CSR        *graph.CSR
	Scores     []float64
	Iterations int
	Converged  bool
}

// Map materializes the dense vector as an ID-keyed map. It allocates one
// map; hot paths should index Scores directly.
func (r DenseResult) Map() map[string]float64 {
	m := make(map[string]float64, len(r.Scores))
	for i, id := range r.CSR.IDs {
		m[id] = r.Scores[i]
	}
	return m
}

// warmVector fills cur with the normalized warm-start distribution:
// WarmDense entries (aligned to c), or the uniform start. Non-positive or
// missing entries fall back to the uniform floor, so the seed is always a
// valid distribution. Reports whether a warm source was present.
func warmVector(opts Options, cur []float64) bool {
	n := len(cur)
	uniform := 1 / float64(n)
	if len(opts.WarmDense) == 0 {
		for i := range cur {
			cur[i] = uniform
		}
		return false
	}
	var sum float64
	for i := range cur {
		v := 0.0
		if i < len(opts.WarmDense) {
			v = opts.WarmDense[i]
		}
		if v > 0 {
			cur[i] = v
		} else {
			cur[i] = uniform
		}
		sum += cur[i]
	}
	for i := range cur {
		cur[i] /= sum
	}
	return true
}

// PageRankCSR computes the PageRank vector of the frozen view c. Dangling
// nodes distribute their mass uniformly; scores sum to 1; an empty view
// yields an empty result. Each sweep costs exactly O(V+E) with zero
// allocations.
func PageRankCSR(c *graph.CSR, opts Options) DenseResult {
	opts = opts.withDefaults()
	n := c.NumNodes()
	res := DenseResult{CSR: c, Scores: make([]float64, n)}
	if n == 0 {
		res.Converged = true
		return res
	}
	cur := res.Scores
	next := make([]float64, n)
	contrib := make([]float64, n)
	warmVector(opts, cur)
	base := (1 - opts.Damping) / float64(n)
	inOff, inFrom := c.InOff, c.InFrom

	for iter := 1; iter <= opts.MaxIter; iter++ {
		res.Iterations = iter
		// O(V) prologue: per-node contributions and the dangling mass.
		var dangling float64
		for _, i := range c.Dangling {
			dangling += cur[i]
		}
		for j := 0; j < n; j++ {
			if d := c.OutOff[j+1] - c.OutOff[j]; d > 0 {
				contrib[j] = cur[j] / float64(d)
			} else {
				contrib[j] = 0
			}
		}
		// Sweep: next[i] = addend + damp·Σ contrib[in(i)], where addend is
		// the uniform teleport plus the dangling share.
		addend := base + opts.Damping*dangling/float64(n)
		for i := 0; i < n; i++ {
			sum := 0.0
			for _, j := range inFrom[inOff[i]:inOff[i+1]] {
				sum += contrib[j]
			}
			next[i] = addend + opts.Damping*sum
		}
		var delta float64
		for i := 0; i < n; i++ {
			delta += math.Abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if delta < opts.Epsilon {
			res.Converged = true
			break
		}
	}
	res.Scores = cur
	return res
}
