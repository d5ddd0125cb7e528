package query

import (
	"fmt"
	"slices"
	"strings"

	"mass/internal/blog"
	"mass/internal/influence"
)

// This file is the incremental-evaluation surface of the query engine:
// the primitives a standing-subscription maintainer (package subs) needs
// to keep a query's result window up to date by rescoring only the
// entities a flush actually changed, instead of re-executing the query
// from scratch.
//
// An Evaluator is the compiled form Execute and ExecuteShard run (see
// compile in exec.go): the same predicate, the same sort keys, the same
// projection, the same plan selection, the same bounded top-k scan (Top)
// and the same total order (keys, then ascending ID). This file exposes
// it as per-entity primitives. Anything assembled from these primitives
// under that total order is therefore byte-identical to Execute's output
// for the same query and generation; the subs package's equivalence
// tests hold it to exactly that.

// DiffSafe reports whether q's result can be maintained by diffing
// against a publish delta. Entity scans over bloggers and posts qualify:
// their rows are per-entity, so rescoring the changed entities and
// re-merging is sound. Domain queries and aggregations do not — every
// row is a fold over the whole entity set, so any entity change can move
// any row and the subscription must fall back to full re-evaluation.
func DiffSafe(q *Query) (bool, error) {
	n, err := q.Normalize()
	if err != nil {
		return false, err
	}
	return !perDomain(n), nil
}

// NewEvaluator compiles q against one generation — its corpus and
// analysis result. Every facet an evaluator reads is a dense slab of the
// result, so compiling costs no corpus-map pass. Only diff-safe queries
// (see DiffSafe) are accepted.
func NewEvaluator(c *blog.Corpus, res *influence.Result, q *Query) (*Evaluator, error) {
	e, err := compile(c, res, q)
	if err != nil {
		return nil, err
	}
	if perDomain(e.n) {
		return nil, fmt.Errorf("query: %s/aggregate queries are not incrementally evaluable", e.n.Entity)
	}
	if c := singleNumCmp(e.n.Where); c != nil && len(c.Field.Weights) == 0 {
		if get, gerr := e.v.numGetter(c.Field); gerr == nil {
			want := c.Num
			if c.Kind == kindTime {
				want = influence.PostedKey(c.Time)
			}
			e.probe, e.probeF, e.probeOp, e.probeVal = get, c.Field.Name, c.Op, want
		}
	}
	return e, nil
}

// singleNumCmp returns the predicate's sole comparison when the whole
// Where clause is one numeric (or time) comparison, nil otherwise.
func singleNumCmp(p *Predicate) *Comparison {
	if p == nil || p.Cmp == nil || p.Cmp.Kind == kindString {
		return nil
	}
	return p.Cmp
}

// Query returns the normalized query the evaluator was compiled from.
func (e *Evaluator) Query() *Query { return e.n }

// Rebind re-targets the compiled evaluator at a new generation without
// recompiling: every compiled accessor reads the generation through the
// evaluator's view (see view.numGetter), so swapping the view's
// bindings re-points the predicate, sort keys and projection at once.
// The one thing baked in at compile time is the interned domain-slot
// layout, so Rebind reports false — leaving the evaluator untouched —
// when the new generation's domain list differs.
//
// A standing-subscription maintainer alternates two compiled evaluators
// per query, rebinding the spare at each flush: the per-generation cost
// drops from a full compile to a few pointer swaps. Rebind must not be
// called concurrently with any use of the evaluator; after it returns
// true the evaluator is again safe for concurrent reads.
func (e *Evaluator) Rebind(c *blog.Corpus, res *influence.Result) bool {
	if c == nil || res == nil {
		return false
	}
	d := res.Dense()
	if !slices.Equal(e.v.d.Domains, d.Domains) {
		return false
	}
	e.v.res, e.v.d = res, d
	e.plan = e.v.plan(e.n)
	return true
}

// Unfiltered reports whether the query has no predicate — every entity
// matches, so a maintainer can count matches without calling Match.
func (e *Evaluator) Unfiltered() bool { return e.match == nil }

// PredProbe exposes the query's predicate when it is a single
// shareable numeric comparison: "<field> <op> <threshold>" with no
// per-query weight vector. Subscriptions with the same field (but any
// op and threshold) can then share one sorted value index over a
// delta's changed set and answer "how many match" with a binary search
// instead of a per-entity Match sweep. ok is false for compound,
// string, weighted or absent predicates.
func (e *Evaluator) PredProbe() (field string, op Op, threshold float64, ok bool) {
	if e.probe == nil {
		return "", "", 0, false
	}
	return e.probeF, e.probeOp, e.probeVal, true
}

// PredValue reads the probe field's value at dense index i — the
// primitive shared predicate indexes are built from. Only valid when
// PredProbe reports ok.
func (e *Evaluator) PredValue(i int) float64 { return e.probe(i) }

// Plan names the executor Execute would have chosen for this query
// against this generation ("ranked/general", "ranked/domain" or
// "scan/<entity>"). The ranked fast paths serve the identical total
// order the scan comparator produces (descending score, ascending ID on
// ties), so the incremental maintainer uses one code path and reports
// the plan Execute would.
func (e *Evaluator) Plan() string { return e.plan }

// ID returns the entity ID at dense index i.
func (e *Evaluator) ID(i int) string { return e.v.id(i) }

// Index resolves an entity ID to its dense index in this generation.
func (e *Evaluator) Index(id string) (int, bool) {
	if e.v.entity == EntityPosts {
		return e.v.res.PostIndex(blog.PostID(id))
	}
	return e.v.res.BloggerIndex(blog.BloggerID(id))
}

// Match reports whether the entity at dense index i passes the query's
// predicate.
func (e *Evaluator) Match(i int) bool { return e.match == nil || e.match(i) }

// SortKeyValue reads the entity's ki-th sort-key value alone — the
// primitive shared per-delta key indexes are built from.
func (e *Evaluator) SortKeyValue(ki, i int) float64 { return e.keys[ki].get(i) }

// Keys appends the entity's sort-key values to dst and returns it — the
// comparable fingerprint CompareVals ranks. For an unchanged entity the
// values are bit-identical across generations, which is what makes
// cached key vectors comparable against freshly computed ones.
func (e *Evaluator) Keys(i int, dst []float64) []float64 {
	for _, k := range e.keys {
		dst = append(dst, k.get(i))
	}
	return dst
}

// Row materializes the result row for the entity at dense index i,
// exactly as Execute would: Score is the primary sort key, Fields the
// compiled projection (nil when the query selects nothing).
func (e *Evaluator) Row(i int) Row {
	return Row{ID: e.v.id(i), Score: e.keys[0].get(i), Fields: e.pr.fields(i)}
}

// CompareIdxVals ranks the entity at dense index i against a stored key
// vector under the query's total order (CompareVals semantics), reading
// i's key values lazily — the first key usually decides, so a horizon
// filter over many entities costs one slab read each instead of a
// materialized key vector.
func (e *Evaluator) CompareIdxVals(i int, bKeys []float64, bID string) int {
	for ki, k := range e.keys {
		va, vb := k.get(i), bKeys[ki]
		if va == vb {
			continue
		}
		if (va > vb) == k.desc {
			return -1
		}
		return 1
	}
	return strings.Compare(e.v.id(i), bID)
}

// CompareVals ranks two entities by their stored key vectors under the
// query's sort directions, ties broken by ascending ID — the comparator
// MergeShards orders shard rows with. It lets a maintainer order entries
// cached from an older generation against freshly scored ones without
// resolving dense indices.
func (e *Evaluator) CompareVals(aKeys []float64, aID string, bKeys []float64, bID string) int {
	return compareVals(e.n.OrderBy, aKeys, aID, bKeys, bID)
}
