package linkrank

import (
	"math"

	"mass/internal/graph"
)

// This file holds the dense solver core: PageRank as an iterative kernel
// over a frozen graph.CSR, with ping-pong []float64 buffers,
// zero allocations inside the sweep loop, and sweeps edge-partitioned
// across Options.Workers.
//
// Determinism: results are bit-for-bit identical regardless of Workers.
// The parallel phase only computes next[i] for disjoint row ranges — each
// row is summed start-to-end by exactly one goroutine, so partitioning
// cannot change any rounding — and every floating-point reduction (the
// dangling mass, the convergence delta) runs serially in node-index order.

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

// rowPool fans fixed row ranges of a sweep across persistent worker
// goroutines. The goroutines and channels are allocated once per solve;
// dispatching a sweep is w channel sends and w receives — no allocations,
// which is what keeps the per-sweep cost at exactly the edge reads.
type rowPool struct {
	workers int
	jobs    chan rowJob
	done    chan struct{}
}

type rowJob struct {
	fn     func(lo, hi int32)
	lo, hi int32
}

func newRowPool(workers int) *rowPool {
	p := &rowPool{
		workers: workers,
		jobs:    make(chan rowJob, workers),
		done:    make(chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		go func() {
			for j := range p.jobs {
				j.fn(j.lo, j.hi)
				p.done <- struct{}{}
			}
			p.done <- struct{}{}
		}()
	}
	return p
}

// run executes fn over the row ranges bounds[w]..bounds[w+1] and blocks
// until every range finished. len(bounds) must be workers+1.
func (p *rowPool) run(fn func(lo, hi int32), bounds []int32) {
	for w := 0; w < p.workers; w++ {
		p.jobs <- rowJob{fn: fn, lo: bounds[w], hi: bounds[w+1]}
	}
	for w := 0; w < p.workers; w++ {
		<-p.done
	}
}

// stop ends the workers and waits until each has left its loop. Waiting
// makes the next solve's goroutines reuse these ones' descriptors instead
// of racing their exit and allocating fresh ones, which is what kept the
// allocation count of a parallel solve from being a constant.
func (p *rowPool) stop() {
	close(p.jobs)
	for w := 0; w < p.workers; w++ {
		<-p.done
	}
}

// edgeBounds partitions the n rows of the offset array into workers ranges
// of roughly equal edge count, so a heavy-tailed graph doesn't leave one
// goroutine with all the high-degree rows.
func edgeBounds(off []int32, workers int) []int32 {
	n := int32(len(off) - 1)
	total := int64(off[n])
	bounds := make([]int32, workers+1)
	bounds[workers] = n
	r := int32(0)
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		for r < n && int64(off[r]) < target {
			r++
		}
		bounds[w] = r
	}
	return bounds
}

// sweepWorkers clamps the configured worker count to the row count.
func sweepWorkers(opts Options, n int) int {
	w := opts.Workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
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

// prState is the PageRank sweep workspace; the sweep closure is created
// once per solve and reads the per-iteration scalars through this struct.
type prState struct {
	c             *graph.CSR
	next, contrib []float64
	damp, addend  float64 // addend = base + danglingShare (uniform teleport)
}

// sweep computes next[i] = addend + damp·Σ contrib[in(i)].
func (s *prState) sweep(lo, hi int32) {
	inOff, inFrom, contrib := s.c.InOff, s.c.InFrom, s.contrib
	for i := lo; i < hi; i++ {
		sum := 0.0
		for _, j := range inFrom[inOff[i]:inOff[i+1]] {
			sum += contrib[j]
		}
		s.next[i] = s.addend + s.damp*sum
	}
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
	st := &prState{
		c:       c,
		next:    make([]float64, n),
		contrib: make([]float64, n),
		damp:    opts.Damping,
	}
	warmVector(opts, cur)
	base := (1 - opts.Damping) / float64(n)

	workers := sweepWorkers(opts, n)
	var pool *rowPool
	var bounds []int32
	if workers > 1 {
		pool = newRowPool(workers)
		defer pool.stop()
		bounds = edgeBounds(c.InOff, workers)
	}
	sweep := st.sweep // one closure for the whole solve

	for iter := 1; iter <= opts.MaxIter; iter++ {
		res.Iterations = iter
		// Serial O(V) prologue: per-node contributions and the dangling
		// mass, summed in node-index order for worker-count independence.
		var dangling float64
		for _, i := range c.Dangling {
			dangling += cur[i]
		}
		for j := 0; j < n; j++ {
			if d := c.OutOff[j+1] - c.OutOff[j]; d > 0 {
				st.contrib[j] = cur[j] / float64(d)
			} else {
				st.contrib[j] = 0
			}
		}
		st.addend = base + opts.Damping*dangling/float64(n)
		if pool != nil {
			pool.run(sweep, bounds)
		} else {
			sweep(0, int32(n))
		}
		var delta float64
		for i := 0; i < n; i++ {
			delta += math.Abs(st.next[i] - cur[i])
		}
		cur, st.next = st.next, cur
		if delta < opts.Epsilon {
			res.Converged = true
			break
		}
	}
	res.Scores = cur
	return res
}
