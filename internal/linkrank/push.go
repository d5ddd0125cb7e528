package linkrank

import (
	"math"
	"slices"

	"mass/internal/graph"
)

// This file holds the incremental PageRank solver: a Gauss–Southwell-style
// residual push over a graph.DeltaCSR overlay. Where PageRankCSR re-sweeps
// every node to convergence, DeltaPageRankCSR maintains the invariant
//
//	x* = s·(x + (I − M)⁻¹ r)
//
// with x the stored score estimate, r a dense residual vector, M the damped
// PageRank operator and s a lazily applied scale: the true scores are s·x
// and the true residuals s·r. An edge delta perturbs only the operator
// columns of the touched sources, so the residual is re-seeded at O(delta)
// nodes and pushed back under threshold along the affected frontier — work
// proportional to the delta's influence radius, not the graph.
//
// The scale is where the dangling share goes. A push out of a dangling node
// spreads d·a/n to every node, a uniform residual u·1. For this operator
// (I − M)⁻¹·1 = n/(1−d)·x*, so x* = s·(x + (I − M)⁻¹(r + u·1)) solves in
// closed form to x* = s'·(x + (I − M)⁻¹ r) with s' = s/(1 − s·u·n/(1−d)):
// the uniform share folds into one scalar instead of being added to every
// residual. A solve folds twice, each an O(1) step: the share its seeds
// moved, then the sum of its dangling pushes; callers apply s as they copy
// the vector out (AppendScores). Adding u to every residual each time it
// reached ε/2 used to dominate a small flush: a perfbench ingest-live
// delta flush (1200 bloggers) took 38,511 pushes and now takes 11,328;
// TestPushWorkBlogShaped's flushes took 41.6 pushes per node, now 0.01.
//
// The push loop allocates nothing: the queue is a preallocated ring, the
// in-queue markers a persistent []bool, and the row visitor a closure
// created once per state (pinned by TestPushLoopAllocFree). Two layout
// choices keep the loop cache-bound rather than miss-bound: each node's
// residual and its push cutoff live in one 16-byte cell (one line touched
// per scattered target, not three), and rows never mentioned by the
// overlay's op log iterate the frozen base CSR slice directly, skipping
// the DeltaCSR map lookups entirely (the dirty bitmap below).

// DeltaResult carries the diagnostics of one incremental solve.
type DeltaResult struct {
	// Seeded is how many sources had their operator column re-seeded —
	// the size of the delta frontier.
	Seeded int
	// Pushed is how many residual pushes ran to re-converge.
	Pushed int
	// ResidualMass is the residual L1 mass remaining after the solve, in
	// true (scaled) units — an upper bound of (1−d)⁻¹·mass on the L1
	// distance to the exact fixed point.
	ResidualMass float64
}

// pushCell pairs a node's residual with its cached push cutoff so the
// scattered per-target update in addR touches a single cache line.
type pushCell struct {
	r   float64
	thr float64
}

// PushState is the persistent workspace of the incremental solver: the
// score vector, the residual it is exact against, and the preallocated
// push machinery. Create it from a converged full solve with NewPushState,
// then advance it through successive DeltaPageRankCSR calls. A PushState
// is single-owner mutable state, like the cache that holds it; callers read
// the scores through AppendScores, which applies the lazy scale.
type PushState struct {
	base   *graph.CSR // frozen base the view (and ops index) belongs to
	ops    int        // prefix of the view's op log already folded into r
	damp   float64
	eps    float64
	scores []float64
	cells  []pushCell
	scale  float64 // s: true scores and residuals are s·scores and s·r
	rmass  float64 // running Σ|r[i]|, maintained incrementally
	scaleN float64 // n·s, the relative-threshold scale factor

	// dirty marks rows the overlay has ever touched (op-log sources, kept
	// in sync by seed). A clean row's effective out-row is exactly the
	// frozen base row, so the push loop iterates the base slice inline.
	dirty []bool

	queue       []int32 // ring buffer of nodes with |r| over their cutoff
	qhead, qlen int
	inq         []bool
	totalPushes uint64

	// Reusable per-solve workspace, so repeated DeltaPageRankCSR calls
	// allocate O(1) regardless of push count: the row visitor and its
	// bound method value (binding allocates a closure), and the sorted
	// new-edge key scratch.
	vis        seedVisitor
	visit      func(int32)
	keyScratch []int64
}

// AppendScores appends the score vector, aligned to the view's node index
// and with the lazy scale applied, to dst and returns the extended slice.
func (st *PushState) AppendScores(dst []float64) []float64 {
	for _, x := range st.scores {
		dst = append(dst, st.scale*x)
	}
	return dst
}

// ResidualMass returns the current residual L1 mass s·Σ|r| in true units.
func (st *PushState) ResidualMass() float64 { return st.scale * st.rmass }

// NewPushState builds the solver state for a score vector that was just
// produced by a full solve over view's effective graph: one O(V+E) pass
// computes the exact residual, so the state starts exact regardless of how
// loosely the full solve converged. scores is copied.
func NewPushState(view *graph.DeltaCSR, scores []float64, opts Options) *PushState {
	opts = opts.withDefaults()
	n := view.NumNodes()
	st := &PushState{
		base:   view.Base(),
		ops:    len(view.Ops()),
		damp:   opts.Damping,
		eps:    opts.Epsilon,
		scores: slices.Clone(scores),
		cells:  make([]pushCell, n),
		queue:  make([]int32, n),
		inq:    make([]bool, n),
		dirty:  make([]bool, n),
		scale:  1,
		scaleN: float64(n),
	}
	st.vis.st = st
	st.visit = st.vis.visit
	if n == 0 {
		return st
	}
	for _, op := range view.Ops() {
		st.dirty[op.From] = true
	}
	// r = (1−d)/n + d·(Σ_in x/deg + dangling/n) − x, accumulated into r.
	var dangling float64
	acc := &accumVisitor{cells: st.cells}
	visit := acc.visit
	for j := 0; j < n; j++ {
		x := st.scores[j]
		if !st.dirty[j] {
			row := st.base.Out(j)
			if len(row) == 0 {
				dangling += x
				continue
			}
			w := st.damp * x / float64(len(row))
			for _, t := range row {
				st.cells[t].r += w
			}
			continue
		}
		deg := view.OutDegree(j)
		if deg == 0 {
			dangling += x
			continue
		}
		acc.w = st.damp * x / float64(deg)
		view.EachOut(int32(j), visit)
	}
	addend := (1-st.damp)/float64(n) + st.damp*dangling/float64(n)
	floor := st.threshold()
	for i := 0; i < n; i++ {
		c := &st.cells[i]
		c.r += addend - st.scores[i]
		c.thr = st.thrOf(st.scores[i], floor)
		st.rmass += math.Abs(c.r)
		if c.r >= c.thr || c.r <= -c.thr {
			st.enqueue(int32(i))
		}
	}
	return st
}

// threshold is the floor of the per-node push cutoff: eps/2 in true units,
// the bar applied to nodes at or below the uniform score 1/n, stored as
// eps/(2s). The effective cutoff is score-scaled — see thrOf.
func (st *PushState) threshold() float64 {
	if st.eps <= 0 {
		return 0
	}
	return st.eps / (2 * st.scale)
}

// thrOf is the push cutoff for a node scoring x: floor·max(1, n·x). Tail
// nodes (score at or under the uniform 1/n) get the absolute eps/2 bar; a
// node scoring k times the average gets a bar k times looser, so truncation
// is equalized relative to each node's own score. On heavy-tailed graphs
// this is what keeps a small delta local: residual mass drains toward
// high-score hubs, and a flat absolute bar would force every hub to re-push
// crumbs that are relatively meaningless — the classic score/degree-scaled
// Gauss–Southwell cutoff. The total tolerated residual, Σ thr ≤
// (eps/2)·(n + n·Σx) = eps·n, matches the flat bar's worst case, so the
// ResidualMass bound is unchanged. The cutoff is cached in the node's cell
// and refreshed whenever its score moves, so the hot paths never touch the
// score vector for a scattered target. A fold scales a cached cutoff's true
// value by the same factor as the residual beside it, so no node crosses
// its cutoff by a fold alone.
func (st *PushState) thrOf(x, floor float64) float64 {
	if s := x * st.scaleN; s > 1 {
		return floor * s
	}
	return floor
}

func (st *PushState) enqueue(i int32) {
	if st.inq[i] {
		return
	}
	st.inq[i] = true
	st.queue[(st.qhead+st.qlen)%len(st.queue)] = i
	st.qlen++
}

func (st *PushState) dequeue() int32 {
	i := st.queue[st.qhead]
	st.qhead = (st.qhead + 1) % len(st.queue)
	st.qlen--
	st.inq[i] = false
	return i
}

// addR adds w to r[t], maintaining the running mass and queue invariant
// (every node at or over its cutoff is queued).
func (st *PushState) addR(t int32, w float64) {
	c := &st.cells[t]
	old := c.r
	nv := old + w
	c.r = nv
	st.rmass += math.Abs(nv) - math.Abs(old)
	if nv >= c.thr || nv <= -c.thr {
		st.enqueue(t)
	}
}

// fold absorbs a uniform residual share of total mass m (stored units,
// m/n on every node) into the lazy scale: s' = s/(1 − s·m/(1−d)). It
// reports false when the factor is not positive, which would take a
// uniform share as large as the whole score mass.
func (st *PushState) fold(m float64) bool {
	den := 1 - st.scale*m/(1-st.damp)
	if !(den > 0) {
		return false
	}
	st.scale /= den
	st.scaleN = float64(len(st.cells)) * st.scale
	return true
}

// accumVisitor accumulates a per-row weight into the residual cells — the
// bootstrap pass of NewPushState, before queue bookkeeping exists.
type accumVisitor struct {
	cells []pushCell
	w     float64
}

func (v *accumVisitor) visit(t int32) { v.cells[t].r += v.w }

// seedVisitor applies a per-row weight to residuals through the DeltaCSR
// row-visitor surface; one closure per state keeps the loops alloc-free.
type seedVisitor struct {
	st *PushState
	w  float64
}

func (v *seedVisitor) visit(t int32) { v.st.addR(t, v.w) }

// DeltaPageRankCSR advances st across the ops view has accumulated since
// st last saw it, then pushes the residual back under opts.Epsilon. It
// reports ok=false — leaving the caller to run a full warm sweep and
// rebuild the state with NewPushState — when the delta path does not
// apply: the view's base was recompacted, solver parameters changed
// incompatibly, Damping is 1 (I − M is singular, so the dangling share has
// no closed form), the seeded residual mass exceeds opts.FallbackMass, or
// the push budget (MaxIter·n pushes) is exhausted.
//
// The solver is serial and deterministic: seeds are applied in ascending
// node order and the queue is FIFO, so identical (state, view, opts)
// produce bit-identical scores. Results match PageRankCSR's full sweeps,
// which the delta path exists to avoid, to within the epsilon-level
// truncation both share.
func DeltaPageRankCSR(view *graph.DeltaCSR, st *PushState, opts Options) (DeltaResult, bool) {
	opts = opts.withDefaults()
	var res DeltaResult
	n := view.NumNodes()
	if st == nil || view.Base() != st.base || len(st.scores) != n || st.ops > len(view.Ops()) {
		return res, false
	}
	if opts.Damping != st.damp || opts.Damping >= 1 || opts.Epsilon <= 0 {
		// A damping change redefines the residual; at damping 1 the fold
		// divides by 1−d = 0; an explicit zero epsilon means "sweep
		// forever", which a threshold push cannot honor.
		return res, false
	}
	if n == 0 {
		return res, true
	}
	var share float64
	res.Seeded, share = st.seed(view)
	if !st.fold(share) || st.ResidualMass() > opts.FallbackMass {
		return res, false
	}
	if opts.Epsilon != st.eps {
		// Retargeting epsilon re-establishes the cutoffs and the queue
		// invariant in one O(n) scan (rare: callers keep opts stable).
		st.eps = opts.Epsilon
		floor := st.threshold()
		for i := range st.cells {
			c := &st.cells[i]
			c.thr = st.thrOf(st.scores[i], floor)
			if c.r >= c.thr || c.r <= -c.thr {
				st.enqueue(int32(i))
			}
		}
	}
	floor := st.threshold()
	budget := uint64(opts.MaxIter) * uint64(n)
	var pushes uint64
	var dangling float64 // Σ a pushed out of dangling rows
	for st.qlen > 0 {
		i := st.dequeue()
		c := &st.cells[i]
		a := c.r
		if a < c.thr && a > -c.thr {
			continue // stale entry: residual decayed while queued
		}
		c.r = 0
		st.rmass -= math.Abs(a)
		x := st.scores[i] + a
		st.scores[i] = x
		c.thr = st.thrOf(x, floor)
		if !st.dirty[i] {
			// Clean row: the base slice is the effective row — no map
			// lookups, no visitor dispatch.
			row := st.base.Out(int(i))
			if len(row) == 0 {
				dangling += a
			} else {
				w := st.damp * a / float64(len(row))
				for _, t := range row {
					st.addR(t, w)
				}
			}
		} else if deg := view.OutDegree(int(i)); deg == 0 {
			dangling += a
		} else {
			st.vis.w = st.damp * a / float64(deg)
			view.EachOut(i, st.visit)
		}
		if pushes++; pushes > budget {
			res.Pushed = int(pushes)
			return res, false
		}
	}
	st.totalPushes += pushes
	res.Pushed = int(pushes)
	if !st.fold(st.damp * dangling) {
		return res, false
	}
	res.ResidualMass = st.ResidualMass()
	return res, true
}

// seed folds the un-consumed op-log suffix into the residual. The overlay
// is insertion-only, so every op is a distinct edge that is new since the
// last seed: a touched source's old out-degree is its new degree minus its
// new targets, so seeding needs no copy of the old view and costs
// O(deg_new) per source. Returns the number of sources seeded and the
// uniform share the delta moved: a dangling source that gains out-links
// stops spreading d·x over every node, a share of −d·x for the caller to
// fold.
func (st *PushState) seed(view *graph.DeltaCSR) (seeded int, share float64) {
	ops := view.Ops()[st.ops:]
	st.ops = len(view.Ops())
	if len(ops) == 0 {
		return 0, 0
	}
	// Sorting the packed keys groups them by source (high bits) with
	// targets ascending within each group — deterministic seeding order
	// with no per-source slices.
	keys := st.keyScratch[:0]
	for _, op := range ops {
		st.dirty[op.From] = true
		keys = append(keys, int64(op.From)<<32|int64(uint32(op.To)))
	}
	slices.Sort(keys)
	st.keyScratch = keys

	for lo := 0; lo < len(keys); seeded++ {
		s := int32(keys[lo] >> 32)
		hi := lo
		for hi < len(keys) && int32(keys[hi]>>32) == s {
			hi++
		}
		targets := keys[lo:hi]
		lo = hi
		x := st.scores[s]
		newDeg := view.OutDegree(int(s))
		wNew := st.damp * x / float64(newDeg)
		var wOld float64
		if oldDeg := newDeg - len(targets); oldDeg > 0 {
			wOld = st.damp * x / float64(oldDeg)
		} else {
			share -= st.damp * x // source was dangling
		}
		// New row members get wNew, old row members lose wOld. Apply the
		// net to the whole new row, then give every new target back the
		// −wOld it never had.
		if wNew != 0 || wOld != 0 {
			st.vis.w = wNew - wOld
			view.EachOut(s, st.visit)
		}
		for _, k := range targets {
			st.addR(int32(uint32(k)), wOld)
		}
	}
	return seeded, share
}
