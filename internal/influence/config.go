// Package influence implements the MASS influence model (paper §II): the
// multi-facet, domain-specific scoring of bloggers that combines post
// quality (length × novelty), commenter impact (citation + attitude),
// and link authority (PageRank) into per-blogger, per-domain influence
// vectors, solved as a fixed point of Eqs. 1–5.
//
// The model is a linear system
//
//	Inf(b) = α·AP(b) + (1−α)·GL(b)                            (Eq. 1)
//	Inf(b,d) = β·Quality(b,d) + (1−β)·Σ_j Inf(b_j)·SF/TC(b_j)  (Eq. 4)
//	AP(b)  = Σ_d Inf(b,d)
//
// whose coupling matrix has L1 norm at most α·(1−β)·max(SF) < 1 for the
// default parameters, because each commenter's 1/TC normalization makes
// their total outgoing contribution sum to at most 1. The Jacobi iteration
// in Solve therefore contracts and converges to the unique solution.
package influence

import (
	"fmt"

	"mass/internal/linkrank"
)

// Default model parameters from the paper.
const (
	DefaultAlpha      = 0.5 // Eq.1: AP vs GL mix ("set to 0.5 as the default value")
	DefaultBeta       = 0.6 // Eq.2: quality vs comments ("set to 0.6 according to empirical study")
	DefaultSFPositive = 1.0
	DefaultSFNeutral  = 0.5
	DefaultSFNegative = 0.1
	DefaultEpsilon    = 1e-9
	DefaultMaxIter    = 200
)

// Config tunes the influence model. The zero value means "paper defaults";
// the demo's toolbar for "personalized parameters" corresponds to setting
// these fields.
type Config struct {
	// Alpha weighs Accumulated-Post influence against General-Links
	// authority (Eq. 1). Must be in [0,1]; 0 means pure link authority.
	Alpha float64
	// Beta weighs a post's quality score against its comment score
	// (Eq. 2). Must be in [0,1].
	Beta float64
	// SFPositive, SFNeutral, SFNegative are the sentiment factors for the
	// three comment attitudes.
	SFPositive, SFNeutral, SFNegative float64
	// Epsilon is the max-absolute-change convergence threshold of the
	// fixed-point sweep.
	Epsilon float64
	// MaxIter bounds the number of sweeps.
	MaxIter int
	// PageRank configures the GL authority computation.
	PageRank linkrank.Options

	// Ablation switches (all off reproduces the full MASS model).

	// IgnoreSentiment treats every comment as if SF were 1 (pure count of
	// weighted commenters, no attitude).
	IgnoreSentiment bool
	// IgnoreCitation replaces the commenter weight Inf(b_j)/TC(b_j) with 1,
	// i.e. every comment counts equally regardless of who wrote it — the
	// behaviour the paper criticizes in prior work [1].
	IgnoreCitation bool
	// IgnoreNovelty scores every post as original (novelty = 1).
	IgnoreNovelty bool
	// IgnoreAuthority drops the GL facet (equivalent to Alpha = 1).
	IgnoreAuthority bool

	// Workers enables a parallel post-score sweep when > 1. Results are
	// identical to the serial sweep; only wall-time changes.
	Workers int
}

// withDefaults fills zero fields with paper defaults. Explicit zeros for
// Alpha/Beta are meaningful, so they are detected via negative sentinel:
// use ExplicitZero to request a literal 0.
func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Alpha == ExplicitZero {
		c.Alpha = 0
	}
	if c.Beta == 0 {
		c.Beta = DefaultBeta
	}
	if c.Beta == ExplicitZero {
		c.Beta = 0
	}
	if c.SFPositive == 0 {
		c.SFPositive = DefaultSFPositive
	}
	if c.SFNeutral == 0 {
		c.SFNeutral = DefaultSFNeutral
	}
	if c.SFNegative == 0 {
		c.SFNegative = DefaultSFNegative
	}
	if c.Epsilon == 0 {
		c.Epsilon = DefaultEpsilon
	}
	if c.MaxIter == 0 {
		c.MaxIter = DefaultMaxIter
	}
	if c.IgnoreAuthority {
		c.Alpha = 1
	}
	return c
}

// ExplicitZero is a sentinel: setting Alpha or Beta to this value requests
// a literal 0 (the plain zero value means "use the paper default").
const ExplicitZero = -1

// Validate reports configuration errors after default-filling.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("influence: alpha %g out of [0,1]", c.Alpha)
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("influence: beta %g out of [0,1]", c.Beta)
	}
	for _, sf := range []float64{c.SFPositive, c.SFNeutral, c.SFNegative} {
		if sf < 0 || sf > 1 {
			return fmt.Errorf("influence: sentiment factor %g out of [0,1]", sf)
		}
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("influence: epsilon must be positive")
	}
	if c.MaxIter < 1 {
		return fmt.Errorf("influence: maxIter must be >= 1")
	}
	return nil
}
