package subs

import (
	"slices"
	"sort"
	"sync"

	"mass/internal/blog"
	"mass/internal/influence"
	"mass/internal/query"
)

// Generation is one published analysis generation: the frozen corpus and
// its influence result, stamped with the engine's snapshot seq. Both are
// immutable once published, so a Generation can be held and compared
// across flushes without copying.
type Generation struct {
	Seq    uint64
	Corpus *blog.Corpus
	Result *influence.Result
}

// entityDelta is the changed set for one entity kind, in the NEW
// generation's dense index space. changed is ascending; oldIdx is
// aligned with it and holds the entity's dense index in the previous
// generation (-1 for entities that entered this generation). ids and
// idSet resolve and index the changed entities' IDs once per delta —
// every subscription on the entity consults them, so the work is hoisted
// out of the per-subscription evaluation loop.
type entityDelta struct {
	changed []int
	oldIdx  []int
	ids     []string
	idSet   map[string]struct{}
	existed int   // how many changed entities existed in the previous generation
	allK    []int // the identity index list [0..len(changed)) — the unfiltered match set
}

// delta is the publish delta between two generations: exactly which
// bloggers and posts have a different query-visible facet. It is
// computed once per processed generation by exact comparison of the two
// results' dense slabs — O(entities × domains) float compares, shared
// across every subscription — so it is correct regardless of how many
// flushes collapsed between prev and next, and independent of what the
// analyzer chose to recompute.
//
// sound is false when diff-based maintenance cannot be trusted at all:
// an entity was removed, or the interned domain list changed (every
// domain-addressed facet silently re-columns). Unsound deltas force
// full re-evaluation of every subscription.
type delta struct {
	prev, next Generation
	sound      bool
	bloggers   entityDelta
	posts      entityDelta

	// Lazily built, shared key indexes over the changed sets, keyed by
	// entity kind + first-order field (see indexFor), and shared
	// predicate indexes keyed by entity kind + predicate field (see
	// predIndexFor). Guarded by mu so a parallel fan-out can share them.
	mu   sync.Mutex
	idx  map[string]*keyIndex
	pidx map[string]*predIndex
}

// keyIndex orders one entity kind's changed set by one sort field's
// value at the next generation. Subscriptions ordering by that field
// share it: locating the changed entities that cross a subscription's
// horizon becomes two binary searches plus a handful of tie checks,
// instead of a full compare per changed entity per subscription.
type keyIndex struct {
	vals []float64 // ascending field values over the changed set
	ks   []int     // aligned indices into the entityDelta's changed list
}

// indexFor returns the shared key index for ev's first sort field over
// the changed set of ev's entity kind, building and caching it on first
// use. It returns nil when the field cannot be shared across queries
// (per-query interest weights) or the query has no sort key; callers
// fall back to per-entity horizon compares.
func (d *delta) indexFor(posts bool, ev *query.Evaluator) *keyIndex {
	n := ev.Query()
	if len(n.OrderBy) == 0 || len(n.OrderBy[0].Field.Weights) > 0 {
		return nil
	}
	key := "b/"
	if posts {
		key = "p/"
	}
	key += n.OrderBy[0].Field.Name
	d.mu.Lock()
	defer d.mu.Unlock()
	if ix, ok := d.idx[key]; ok {
		return ix
	}
	ed := d.forEntity(posts)
	ix := &keyIndex{vals: make([]float64, len(ed.changed)), ks: make([]int, len(ed.changed))}
	for k := range ed.changed {
		ix.ks[k] = k
	}
	raw := make([]float64, len(ed.changed))
	for k, ni := range ed.changed {
		raw[k] = ev.SortKeyValue(0, ni)
	}
	slices.SortFunc(ix.ks, func(a, b int) int {
		switch {
		case raw[a] < raw[b]:
			return -1
		case raw[a] > raw[b]:
			return 1
		}
		return 0
	})
	for i, k := range ix.ks {
		ix.vals[i] = raw[k]
	}
	if d.idx == nil {
		d.idx = make(map[string]*keyIndex)
	}
	d.idx[key] = ix
	return ix
}

// split partitions the index around a horizon value h0: ks[:lo] hold
// values strictly below h0, ks[lo:hi] tie with it, ks[hi:] are strictly
// above.
func (ix *keyIndex) split(h0 float64) (lo, hi int) {
	lo = sort.SearchFloat64s(ix.vals, h0)
	hi = lo + sort.Search(len(ix.vals)-lo, func(i int) bool { return ix.vals[lo+i] > h0 })
	return lo, hi
}

// predIndex orders one entity kind's changed set by one predicate
// field's value, at both generations. Every subscription whose
// predicate is a single comparison on that field — regardless of its
// operator or threshold — shares it: "how many changed entities matched
// before / match now, and which" collapses from a Match call per
// changed entity per subscription to two binary searches per
// subscription.
type predIndex struct {
	newVals []float64 // ascending field values at the next generation
	ks      []int     // aligned indices into the entityDelta's changed list
	oldVals []float64 // ascending values at the previous generation, existing entities only
}

// predIndexFor returns the shared predicate index for the field both
// evaluators probe (evOld bound to the delta's prev generation, evNew
// to next — same query, so the same field), building and caching it on
// first use. nil when the predicate is not a shareable comparison.
func (d *delta) predIndexFor(posts bool, evOld, evNew *query.Evaluator) *predIndex {
	field, _, _, ok := evNew.PredProbe()
	if !ok {
		return nil
	}
	key := "b/"
	if posts {
		key = "p/"
	}
	key += field
	d.mu.Lock()
	defer d.mu.Unlock()
	if px, ok := d.pidx[key]; ok {
		return px
	}
	ed := d.forEntity(posts)
	px := &predIndex{newVals: make([]float64, len(ed.changed)), ks: make([]int, len(ed.changed))}
	raw := make([]float64, len(ed.changed))
	for k, ni := range ed.changed {
		px.ks[k] = k
		raw[k] = evNew.PredValue(ni)
	}
	slices.SortFunc(px.ks, func(a, b int) int {
		switch {
		case raw[a] < raw[b]:
			return -1
		case raw[a] > raw[b]:
			return 1
		}
		return 0
	})
	for i, k := range px.ks {
		px.newVals[i] = raw[k]
	}
	px.oldVals = make([]float64, 0, ed.existed)
	for k := range ed.changed {
		if oi := ed.oldIdx[k]; oi >= 0 {
			px.oldVals = append(px.oldVals, evOld.PredValue(oi))
		}
	}
	sort.Float64s(px.oldVals)
	if d.pidx == nil {
		d.pidx = make(map[string]*predIndex)
	}
	d.pidx[key] = px
	return px
}

// cmpRange resolves a comparison against ascending values to the
// half-open matching range [lo, hi). ok is false for OpNe, whose match
// set is not contiguous.
func cmpRange(vals []float64, op query.Op, thr float64) (lo, hi int, ok bool) {
	ge := sort.SearchFloat64s(vals, thr)
	gt := ge + sort.Search(len(vals)-ge, func(i int) bool { return vals[ge+i] > thr })
	switch op {
	case query.OpGt:
		return gt, len(vals), true
	case query.OpGe:
		return ge, len(vals), true
	case query.OpLt:
		return 0, ge, true
	case query.OpLe:
		return 0, gt, true
	case query.OpEq:
		return ge, gt, true
	}
	return 0, 0, false
}

// computeDelta compares two generations facet by facet. An entity is
// "changed" when any facet a query can filter, order, select or
// aggregate on differs: for bloggers influence/ap/gl, the domain score
// row and the authored-post count; for posts score/quality/novelty/
// sentiment, the posterior row and the comment count (posted time and
// author are immutable). Unchanged entities are bit-identical by
// construction of the incremental analyzer, which is what keeps the
// changed set proportional to the flush delta.
func computeDelta(prev, next Generation) *delta {
	d := &delta{prev: prev, next: next, sound: true}
	od, nd := prev.Result.Dense(), next.Result.Dense()
	if !slices.Equal(od.Domains, nd.Domains) {
		d.sound = false
		return d
	}
	ndom := len(nd.Domains)
	d.bloggers, d.sound = diffBloggers(prev, next, od, nd, ndom)
	if !d.sound {
		return d
	}
	d.posts, d.sound = diffPosts(od, nd, ndom)
	if !d.sound {
		return d
	}
	d.bloggers.resolveIDs(func(ni int) string { return string(nd.Bloggers[ni]) })
	d.posts.resolveIDs(func(ni int) string { return string(nd.Posts[ni]) })
	return d
}

// resolveIDs fills the per-delta shared derived state: resolved IDs,
// the ID membership set, the prior-existence count and the identity
// index list — everything an unfiltered query needs without touching
// the changed entities at all.
func (ed *entityDelta) resolveIDs(id func(int) string) {
	ed.ids = make([]string, len(ed.changed))
	ed.idSet = make(map[string]struct{}, len(ed.changed))
	ed.allK = make([]int, len(ed.changed))
	for k, ni := range ed.changed {
		s := id(ni)
		ed.ids[k] = s
		ed.idSet[s] = struct{}{}
		ed.allK[k] = k
		if ed.oldIdx[k] >= 0 {
			ed.existed++
		}
	}
}

func diffBloggers(prev, next Generation, od, nd influence.DenseView, ndom int) (entityDelta, bool) {
	var ed entityDelta
	oi := 0
	for ni, id := range nd.Bloggers {
		if oi < len(od.Bloggers) && od.Bloggers[oi] < id {
			return ed, false // removal: od has an ID next lacks
		}
		if oi >= len(od.Bloggers) || od.Bloggers[oi] != id {
			ed.changed = append(ed.changed, ni)
			ed.oldIdx = append(ed.oldIdx, -1)
			continue
		}
		if nd.Influence[ni] != od.Influence[oi] ||
			nd.AP[ni] != od.AP[oi] ||
			nd.GL[ni] != od.GL[oi] ||
			!rowEqual(nd.DomainScores, od.DomainScores, ni, oi, ndom) ||
			len(next.Corpus.PostsBy(id)) != len(prev.Corpus.PostsBy(id)) {
			ed.changed = append(ed.changed, ni)
			ed.oldIdx = append(ed.oldIdx, oi)
		}
		oi++
	}
	if oi != len(od.Bloggers) {
		return ed, false // trailing removals
	}
	return ed, true
}

func diffPosts(od, nd influence.DenseView, ndom int) (entityDelta, bool) {
	var ed entityDelta
	oi := 0
	for ni, id := range nd.Posts {
		if oi < len(od.Posts) && od.Posts[oi] < id {
			return ed, false
		}
		if oi >= len(od.Posts) || od.Posts[oi] != id {
			ed.changed = append(ed.changed, ni)
			ed.oldIdx = append(ed.oldIdx, -1)
			continue
		}
		if nd.PostScore[ni] != od.PostScore[oi] ||
			nd.Quality[ni] != od.Quality[oi] ||
			nd.Novelty[ni] != od.Novelty[oi] ||
			nd.Sentiment[ni] != od.Sentiment[oi] ||
			!rowEqual(nd.PostDomains, od.PostDomains, ni, oi, ndom) ||
			nd.Comments[ni] != od.Comments[oi] {
			ed.changed = append(ed.changed, ni)
			ed.oldIdx = append(ed.oldIdx, oi)
		}
		oi++
	}
	if oi != len(od.Posts) {
		return ed, false
	}
	return ed, true
}

// rowEqual compares one dense domain row across two slabs.
func rowEqual(a, b []float64, ai, bi, nd int) bool {
	if nd == 0 || len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	ra := a[ai*nd : (ai+1)*nd]
	rb := b[bi*nd : (bi+1)*nd]
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// forEntity selects the changed set for one entity kind.
func (d *delta) forEntity(posts bool) entityDelta {
	if posts {
		return d.posts
	}
	return d.bloggers
}
