package subs

import (
	"slices"

	"mass/internal/query"
)

// candidate is one cached contender for a subscription's result window:
// the entity ID plus its sort-key values at the state's generation. For
// unchanged entities the key values are bit-identical across
// generations, which is what lets cached candidates merge against
// freshly scored ones under the evaluator's total order.
type candidate struct {
	id   string
	keys []float64
}

// evalState is one subscription's maintained result. For diff-safe
// queries it holds a sorted candidate prefix of the match order —
// the result window plus slack — so a flush only has to rescore the
// changed entities and re-merge; for everything else it just caches the
// last full execution.
//
// The candidate-prefix invariant: cands is a prefix of the true ordered
// match list, every cached entry sorts at-or-before the last cached
// entry (the horizon), and every matching entity NOT in cands sorts
// strictly after the horizon. Incremental maintenance preserves it:
// unchanged uncached entities keep their keys, so they stay behind the
// (value-pinned) old horizon; changed entities are always rescored and
// re-merged; and the merged list is truncated at its certified prefix —
// the entries still at-or-before the old horizon — so nothing uncertain
// is ever cached.
type evalState struct {
	q        *query.Query // normalized; Limit already clamped by the hub
	diffSafe bool
	capH     int // candidate-cache size: offset + limit + slack

	seq   uint64
	plan  string
	total int
	rows  []query.Row // current window — the published Result rows

	// Diff-safe maintenance state. Two compiled evaluators alternate:
	// ev is bound to the generation at seq, evSpare is the previous
	// flush's retired evaluator, rebound (not recompiled) to the next
	// generation when it arrives.
	ev      *query.Evaluator // bound to the generation at seq
	evSpare *query.Evaluator
	cands   []candidate // sorted candidate prefix, len <= capH

	// Scratch for incremental(), reused across flushes. The int buffers
	// hold indices into the delta's changed list and are never retained
	// past the call; freshBuf's elements are copied by value into the
	// merge output, so its backing array is reusable too. candsBuf is the
	// retired candidate array from the previous flush — each merge writes
	// into it and the commit swaps it with cands, so the two arrays
	// ping-pong and steady-state maintenance stops allocating them.
	matchBuf, belowBuf []int
	freshBuf, candsBuf []candidate
}

// newEvalState validates and normalizes q and prepares an empty state.
func newEvalState(q *query.Query) (*evalState, error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, err
	}
	safe, err := query.DiffSafe(n)
	if err != nil {
		return nil, err
	}
	slack := n.Limit
	if slack < 16 {
		slack = 16
	}
	return &evalState{q: n, diffSafe: safe, capH: n.Offset + n.Limit + slack}, nil
}

// result materializes the maintained state as the query.Result a fresh
// Execute at this generation would return.
func (st *evalState) result() *query.Result {
	rows := st.rows
	if rows == nil {
		rows = []query.Row{}
	}
	return &query.Result{Entity: st.q.Entity, Rows: rows, Total: st.total, Plan: st.plan}
}

// bindNew produces an evaluator for st.q bound to gen: the retired spare
// rebound in place when possible, a fresh compile otherwise.
func (st *evalState) bindNew(gen Generation) (*query.Evaluator, error) {
	if sp := st.evSpare; sp != nil {
		st.evSpare = nil
		if sp.Rebind(gen.Corpus, gen.Result) {
			return sp, nil
		}
	}
	return query.NewEvaluator(gen.Corpus, gen.Result, st.q)
}

// fullEval rebuilds the state from scratch against one generation — the
// registration path, the non-diff-safe path, and the fallback when a
// delta cannot certify the window.
func (st *evalState) fullEval(gen Generation) error {
	if !st.diffSafe {
		res, err := query.Execute(gen.Corpus, gen.Result, st.q)
		if err != nil {
			return err
		}
		st.seq, st.plan, st.total, st.rows = gen.Seq, res.Plan, res.Total, res.Rows
		return nil
	}
	ev, err := st.bindNew(gen)
	if err != nil {
		return err
	}
	kept, total := ev.Top(st.capH)
	nk := len(st.q.OrderBy)
	keys := make([]float64, 0, nk*len(kept))
	all := make([]candidate, len(kept))
	for j, i := range kept {
		keys = ev.Keys(i, keys)
		all[j] = candidate{id: ev.ID(i), keys: keys[len(keys)-nk:]}
	}
	st.evSpare, st.ev = st.ev, ev
	st.seq, st.plan, st.total, st.cands = gen.Seq, ev.Plan(), total, all
	st.rows = st.window(ev)
	return nil
}

// incremental advances a diff-safe state from its generation to gen
// using the publish delta, rescoring only changed entities. It reports
// fellBack=true when the delta could not certify the result window and
// a full rebuild ran instead. The caller must have verified st.seq ==
// d.prev.Seq and d.sound.
func (st *evalState) incremental(gen Generation, d *delta) (fellBack bool, err error) {
	evNew, err := st.bindNew(gen)
	if err != nil {
		return false, err
	}
	ed := d.forEntity(st.q.Entity == query.EntityPosts)
	nk := len(st.q.OrderBy)

	// The old horizon, pinned by value before any removal: every
	// matching entity outside the old cache sorted strictly after it,
	// and unchanged entities keep their keys, so it still bounds them.
	var horizon *candidate
	if len(st.cands) > 0 {
		h := st.cands[len(st.cands)-1]
		horizon = &h
	}

	// One pass over the changed entities (their IDs are resolved once per
	// delta, shared across all subscriptions): track how many matched
	// before and match now so Total stays exact without a rescan.
	// Unfiltered queries match everything, so the delta's shared derived
	// state already IS their answer — no per-entity work at all.
	// Single-comparison predicates ride the delta's shared predicate
	// index: both match counts and the matching set come from binary
	// searches over the field's sorted changed-set values, shared with
	// every other subscription filtering on that field.
	var matchedBefore, matchedNow int
	var matchK []int
	counted := false
	if evNew.Unfiltered() {
		matchedBefore, matchedNow, matchK = ed.existed, len(ed.changed), ed.allK
		counted = true
	} else if _, op, thr, ok := evNew.PredProbe(); ok && op != query.OpNe {
		if px := d.predIndexFor(st.q.Entity == query.EntityPosts, st.ev, evNew); px != nil {
			oLo, oHi, _ := cmpRange(px.oldVals, op, thr)
			nLo, nHi, _ := cmpRange(px.newVals, op, thr)
			matchedBefore, matchedNow = oHi-oLo, nHi-nLo
			matchK = px.ks[nLo:nHi]
			counted = true
		}
	}
	if !counted {
		matchK = st.matchBuf[:0]
		for k, ni := range ed.changed {
			if oi := ed.oldIdx[k]; oi >= 0 && st.ev.Match(oi) {
				matchedBefore++
			}
			if evNew.Match(ni) {
				matchedNow++
				matchK = append(matchK, k)
			}
		}
		st.matchBuf = matchK
	}

	// Which fresh matches sort at-or-before the horizon? Only those can
	// enter the certified prefix, so only they are materialized and
	// sorted. The shared key index answers it with two binary searches:
	// entities whose first-key value is strictly on the horizon's better
	// side are in, exact first-key ties get the full multi-key compare,
	// and the rest — almost the whole changed set, for a typical flush —
	// are rejected without touching them at all. Queries the index
	// cannot serve (per-query interest weights, no sort key) fall back
	// to one lazy compare per fresh match.
	belowK := st.belowBuf[:0]
	if horizon != nil && len(matchK) > 0 {
		if ix := d.indexFor(st.q.Entity == query.EntityPosts, evNew); ix != nil {
			lo, hi := ix.split(horizon.keys[0])
			better, ties := ix.ks[hi:], ix.ks[lo:hi]
			if !st.q.OrderBy[0].Desc {
				better, ties = ix.ks[:lo], ix.ks[lo:hi]
			}
			for _, k := range better {
				if evNew.Match(ed.changed[k]) {
					belowK = append(belowK, k)
				}
			}
			for _, k := range ties {
				ni := ed.changed[k]
				if evNew.Match(ni) && evNew.CompareIdxVals(ni, horizon.keys, horizon.id) <= 0 {
					belowK = append(belowK, k)
				}
			}
		} else {
			for _, k := range matchK {
				if evNew.CompareIdxVals(ed.changed[k], horizon.keys, horizon.id) <= 0 {
					belowK = append(belowK, k)
				}
			}
		}
	}
	st.belowBuf = belowK
	touched := 0
	for _, c := range st.cands {
		if _, ch := ed.idSet[c.id]; ch {
			touched++
		}
	}
	newTotal := st.total - matchedBefore + matchedNow
	needed := st.q.Offset + st.q.Limit
	if needed > newTotal {
		needed = newTotal
	}

	// The cached survivors (cands minus its changed entries) hold every
	// unchanged matching entity exactly when their count equals the old
	// match count minus the changed entities that matched — in that case
	// merging in ALL fresh matches yields the complete ordered match list
	// and the whole thing is certified. Otherwise only entries
	// at-or-before the horizon are certified: the survivors sit below it
	// by the candidate-prefix invariant, so merging in just the fresh
	// below-horizon matches IS the certified prefix.
	complete := len(st.cands)-touched == st.total-matchedBefore

	// Untouched-prefix fast path — the common case when a flush perturbs
	// a small slice of the corpus: no cached candidate changed, no fresh
	// match sorts into the certified prefix, and the prefix still covers
	// the window. The candidate list and the materialized rows are then
	// value-identical at the new generation (unchanged entities keep
	// their bits by the delta's definition), so only the binding and the
	// total advance. The complete case is excluded unless the cache is
	// already full, because merging could otherwise extend the certified
	// list (tail refill).
	if touched == 0 && len(belowK) == 0 && len(st.cands) >= needed &&
		(!complete || len(st.cands) == st.capH) {
		st.evSpare, st.ev = st.ev, evNew
		st.seq, st.plan, st.total = gen.Seq, evNew.Plan(), newTotal
		return false, nil
	}

	takeK := belowK
	if complete {
		takeK = matchK
	}
	fresh := st.freshBuf[:0]
	keyBuf := make([]float64, 0, nk*len(takeK))
	for _, k := range takeK {
		keyBuf = evNew.Keys(ed.changed[k], keyBuf)
		fresh = append(fresh, candidate{id: ed.ids[k], keys: keyBuf[len(keyBuf)-nk:]})
	}
	st.freshBuf = fresh
	slices.SortFunc(fresh, func(a, b candidate) int {
		return evNew.CompareVals(a.keys, a.id, b.keys, b.id)
	})

	// One pass interleaves the surviving cached entries (changed ones are
	// dropped — their rescored selves are in fresh when still certified)
	// with the fresh entries under the evaluator's total order, writing
	// into the spare candidate buffer. The two candidate arrays ping-pong
	// across flushes (see the commit below), so steady-state maintenance
	// allocates only the fresh entries' key vectors, which the new cache
	// retains. The lists share no IDs, so ties cannot occur.
	merged := st.candsBuf[:0]
	j := 0
	for _, c := range st.cands {
		if touched > 0 {
			if _, ch := ed.idSet[c.id]; ch {
				continue
			}
		}
		for j < len(fresh) && evNew.CompareVals(fresh[j].keys, fresh[j].id, c.keys, c.id) < 0 {
			merged = append(merged, fresh[j])
			j++
		}
		merged = append(merged, c)
	}
	merged = append(merged, fresh[j:]...)

	if !complete && len(merged) < needed {
		// The delta displaced more of the window than the slack could
		// absorb; rebuild from scratch and refill the slack.
		return true, st.fullEval(gen)
	}
	keepN := len(merged)
	if keepN > st.capH {
		keepN = st.capH
	}
	newCands := merged[:keepN]

	// Even when the candidate cache churned, the visible window often
	// did not — the displaced entries sat in the slack below it. If the
	// window slice carries the same IDs in the same order and none of
	// those entities changed, the old rows are still value-identical;
	// keeping the slice (shared backing) also lets diffEvent prove
	// "unchanged" without comparing rows.
	lo := min(st.q.Offset, len(newCands))
	hi := min(lo+st.q.Limit, len(newCands))
	reuse := hi-lo == len(st.rows)
	if reuse {
		for i, c := range newCands[lo:hi] {
			if st.rows[i].ID != c.id {
				reuse = false
				break
			}
			if _, ch := ed.idSet[c.id]; ch {
				reuse = false
				break
			}
		}
	}
	st.evSpare, st.ev = st.ev, evNew
	st.candsBuf, st.cands = st.cands[:0], newCands
	st.seq, st.plan, st.total = gen.Seq, evNew.Plan(), newTotal
	if !reuse {
		st.rows = st.window(evNew)
	}
	return false, nil
}

// window materializes the paginated row window from the candidate
// prefix, resolving each ID against the evaluator's generation so rows
// are exactly what Execute would produce.
func (st *evalState) window(ev *query.Evaluator) []query.Row {
	lo := st.q.Offset
	if lo > len(st.cands) {
		lo = len(st.cands)
	}
	hi := lo + st.q.Limit
	if hi > len(st.cands) {
		hi = len(st.cands)
	}
	rows := make([]query.Row, 0, hi-lo)
	for _, c := range st.cands[lo:hi] {
		if i, ok := ev.Index(c.id); ok {
			rows = append(rows, ev.Row(i))
		}
	}
	return rows
}
