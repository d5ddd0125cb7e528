// Package linkrank implements the link-analysis authority measure MASS
// uses for the General-Links (GL) influence facet: PageRank, the paper's
// chosen model ([3]), convergence-controlled and deterministic.
//
// The full solver is a dense kernel over a frozen graph.CSR view
// (PageRankCSR in dense.go): interned node indexes, ping-pong score
// buffers, zero allocations per sweep, and every sweep on the caller's
// goroutine, so results are deterministic. Scores stay dense, aligned to the CSR's node index;
// DenseResult.Map keys them by ID where a caller needs a map. The
// link-update path (push.go) keeps a converged PageRank current as edges
// are inserted. There is no HITS and no personalized PageRank: GL needs
// neither.
package linkrank

import (
	"fmt"
	"math"
)

// ExplicitZero is a sentinel requesting a literal 0 for Damping or
// Epsilon. The plain zero value of those fields means "use the default"
// (the Go-idiomatic zero-value config), so a caller who genuinely wants
// Damping = 0 (pure teleport) or Epsilon = 0 (no convergence cutoff; always
// run MaxIter sweeps) sets the field to ExplicitZero instead.
const ExplicitZero = -1

// Options controls the iterative solvers.
type Options struct {
	// Damping is the PageRank damping factor d (probability of following a
	// link rather than teleporting). Default 0.85. Set to ExplicitZero for a
	// literal 0 (uniform teleport-only ranking). Values outside [0,1] are
	// clamped to the nearest valid value: a damping factor is a probability,
	// and anything else would let the iteration produce negative scores or
	// diverge instead of failing loudly.
	Damping float64
	// Epsilon is the L1 convergence threshold. Default 1e-10. Set to
	// ExplicitZero to disable the cutoff and always run MaxIter sweeps
	// (DenseResult.Converged then stays false). Any other negative value is
	// clamped to 0, i.e. treated as "no cutoff" too — a negative threshold
	// can never be crossed, so that is what it already meant numerically.
	Epsilon float64
	// MaxIter bounds the number of sweeps. Default 200; non-positive values
	// are clamped to the default (a solver that never sweeps returns its
	// start vector, which no caller can want).
	MaxIter int
	// WarmDense optionally seeds the PageRank iteration with a previous
	// score vector instead of the uniform start, aligned to the CSR node
	// index the solver runs over (WarmDense[i] seeds CSR.IDs[i]). When the
	// graph changed only slightly since the vector was computed, the
	// iteration starts near the new fixed point and converges in far fewer
	// sweeps. Entries ≤ 0 (and indexes beyond its length) fall back to the
	// uniform floor; the seed is renormalized to sum to 1, so the
	// stochastic invariant (and the converged result, which is unique for
	// Damping < 1) is unaffected.
	WarmDense []float64
	// FallbackMass bounds the residual L1 mass DeltaPageRankCSR will try
	// to push away incrementally: a delta that seeds more residual mass
	// than this falls back to a full warm sweep, which re-converges the
	// whole vector in O(graph) but with better constants than a huge push
	// cascade. Default 0.01 (1% of the unit score mass); negative values
	// (including ExplicitZero) mean 0, i.e. every delta falls back.
	FallbackMass float64
}

func (o Options) withDefaults() Options {
	switch {
	case o.Damping == 0:
		o.Damping = 0.85
	case o.Damping == ExplicitZero, o.Damping < 0:
		o.Damping = 0
	case o.Damping > 1:
		o.Damping = 1
	}
	switch {
	case o.Epsilon == 0:
		o.Epsilon = 1e-10
	case o.Epsilon < 0: // including the ExplicitZero sentinel
		o.Epsilon = 0
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	switch {
	case o.FallbackMass == 0:
		o.FallbackMass = 0.01
	case o.FallbackMass < 0:
		o.FallbackMass = 0
	}
	return o
}

// CheckStochastic verifies that scores form a probability distribution
// within tol; used by tests and by the analyzer's self-checks.
func CheckStochastic(scores map[string]float64, tol float64) error {
	var sum float64
	for id, s := range scores {
		if s < -tol {
			return fmt.Errorf("linkrank: negative score %g for %q", s, id)
		}
		sum += s
	}
	if len(scores) > 0 && math.Abs(sum-1) > tol {
		return fmt.Errorf("linkrank: scores sum to %g, want 1", sum)
	}
	return nil
}
