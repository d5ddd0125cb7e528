package cluster

import (
	"sort"

	"mass/internal/blog"
	"mass/internal/graph"
	"mass/internal/linkrank"
)

// GlobalResult is an exact cluster-wide PageRank: scores over the union
// node set, aligned with IDs (sorted ascending — the same order a
// single-engine corpus CSR uses).
type GlobalResult struct {
	IDs    []string
	Scores []float64
	// Fallback reports that the boundary residual exceeded the configured
	// mass bound and the merged graph was solved densely instead of by
	// residual pushes (counted in MergeFallbacks).
	Fallback bool
	// Pushed is the node-push count of the residual correction (0 on the
	// fallback path).
	Pushed int
	// Residual is the L1 residual mass remaining when the push solver
	// declared convergence.
	Residual      float64
	BoundaryEdges int
}

// GlobalPageRank computes the exact global PageRank across all shards:
// the merged graph is the union of per-shard link sets plus the boundary
// edges (ownership is static, so the union is precisely the single-engine
// edge set), and the solution is recovered by seeding a push solver with
// the per-shard solves — which already satisfy the balance equations
// everywhere except around boundary endpoints — and draining the boundary
// residual. When that residual exceeds opts.FallbackMass (default
// globalFallbackMass; mass upheaval, e.g. right after a reshard-scale
// preload), it falls back to a full dense solve of the merged CSR warm-started from the same seed,
// mirroring the single-engine delta-solver discipline. Either path yields
// the same vector the single engine would compute, to solver tolerance.
func (cl *Cluster) GlobalPageRank(opts linkrank.Options) (*GlobalResult, error) {
	corpora := make([]*blog.Frozen, len(cl.shards))
	for i, sh := range cl.shards {
		corpora[i] = sh.eng.Load().Current().Corpus()
	}
	boundary := cl.boundarySnapshot()

	// Union node set, sorted — identical to the single-engine CSR node
	// order. Stubs replicate across shards; the set collapses them.
	seen := make(map[string]struct{})
	var ids []string
	for _, c := range corpora {
		for id := range c.Bloggers() {
			if _, dup := seen[string(id)]; !dup {
				seen[string(id)] = struct{}{}
				ids = append(ids, string(id))
			}
		}
	}
	sort.Strings(ids)
	idx := make(map[string]int32, len(ids))
	for i, id := range ids {
		idx[id] = int32(i)
	}

	// Merged edge set: per-shard intra edges plus the boundary. Ownership
	// is static, so an edge is always intra on exactly one shard or always
	// cross — no overlap; NewCSR collapses any residual parallel edges the
	// same way the single-engine CSR build does.
	var from, to []int32
	edge := func(l blog.Link) {
		from = append(from, idx[string(l.From)])
		to = append(to, idx[string(l.To)])
	}
	for _, c := range corpora {
		for _, l := range c.Links() {
			edge(l)
		}
	}
	for _, l := range boundary {
		edge(l)
	}
	merged := graph.NewCSR(ids, from, to)
	n := len(ids)
	if n == 0 {
		return &GlobalResult{BoundaryEdges: len(boundary)}, nil
	}

	// Seed: per-shard solves, owner-assembled. Each shard's vector sums to
	// 1 over n_s nodes; scaling by n_s/n makes the assembled guess sum to
	// ~1 over n, then it is normalized exactly. Nodes some shard only
	// stubs take their value from their owner shard; anything missed
	// (possible transiently while shards flush) seeds uniform.
	x0 := make([]float64, n)
	uniform := 1.0 / float64(n)
	for i := range x0 {
		x0[i] = uniform
	}
	shardOpts := opts
	shardOpts.FallbackMass = 0 // per-shard solves are dense; bound unused
	shardOpts.WarmDense = nil
	for si, c := range corpora {
		dr := linkrank.PageRankCSR(c.LinkCSR(), shardOpts)
		ns := len(dr.CSR.IDs)
		scale := float64(ns) / float64(n)
		for j, id := range dr.CSR.IDs {
			if cl.ring.Owner(id) != si {
				continue // foreign stub: its owner shard's solve wins
			}
			if gi, ok := idx[id]; ok {
				x0[gi] = dr.Scores[j] * scale
			}
		}
	}
	var sum float64
	for _, v := range x0 {
		sum += v
	}
	if sum > 0 {
		for i := range x0 {
			x0[i] /= sum
		}
	}

	po := opts
	if po.FallbackMass == 0 {
		po.FallbackMass = globalFallbackMass
	}
	if po.Epsilon == 0 {
		po.Epsilon = 1e-12
	}
	view := graph.NewDeltaCSR(merged)
	st := linkrank.NewPushState(view, x0, po)
	dr, ok := linkrank.DeltaPageRankCSR(view, st, po)
	if ok {
		return &GlobalResult{
			IDs:           ids,
			Scores:        st.AppendScores(nil),
			Pushed:        dr.Pushed,
			Residual:      st.ResidualMass(),
			BoundaryEdges: len(boundary),
		}, nil
	}
	cl.mergeFallbacks.Add(1)
	full := opts
	full.WarmDense = x0
	dres := linkrank.PageRankCSR(merged, full)
	return &GlobalResult{
		IDs:           ids,
		Scores:        dres.Scores,
		Fallback:      true,
		Residual:      st.ResidualMass(),
		BoundaryEdges: len(boundary),
	}, nil
}
