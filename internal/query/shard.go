package query

// Shard-side execution: one query run as per-part sub-plans and merged
// back exactly. ExecuteShard takes every query shape. Scans return their
// top rows with the ORDER BY key values attached (ShardRow.Keys), so the
// merge compares rows across parts without re-resolving facets.
// Per-domain queries (domains and aggregates) return raw (count, sum)
// partials, because count and sum merge associatively while mean does
// not — mean is always derived after the merge. MergeShards finishes
// every shape. A cluster runs one part per shard; a single engine runs
// one unrestricted part (see Execute).

import (
	"slices"

	"mass/internal/blog"
	"mass/internal/influence"
)

// ShardRow is one shard-local result row plus the value of every ORDER BY
// key at that row, in the normalized query's key order.
type ShardRow struct {
	Row
	Keys []float64 `json:"keys"`
}

// ShardResult is one part's share of a query.
//
// For a scan, Rows holds the part's top (Offset + Limit) matching rows
// already in merge order — the query's keys with their desc flags, ties
// by ascending ID — and Total the part's match count. Offset windowing is
// deliberately NOT applied; every part must contribute its full
// top-(Offset+Limit) prefix or the merged window could miss rows.
//
// For a per-domain query, Domains is the part's interned domain list
// (read-only; it aliases the generation's) with a raw (count, sum) pair
// per slot in Counts and Sums. Parts intern only the domains their own
// posts touch, so the lists differ across parts; MergeShards unions them
// by name.
type ShardResult struct {
	Rows    []ShardRow `json:"rows,omitempty"`
	Total   int        `json:"total"`
	Domains []string   `json:"domains,omitempty"`
	Counts  []float64  `json:"counts,omitempty"`
	Sums    []float64  `json:"sums,omitempty"`
}

// ExecuteShard runs q's per-part half against one shard's snapshot.
// own, when non-nil, restricts rows, totals and partials to entities the
// shard owns: shards admit foreign bloggers as link stubs, and per-shard
// analysis assigns those stubs real scores, so an unfiltered broadcast
// would return the same blogger ID from several shards. Posts never need
// the filter (a post lives only on its author's owner shard), so
// coordinators pass nil there.
func ExecuteShard(c *blog.Corpus, res *influence.Result, q *Query, own func(string) bool) (*ShardResult, error) {
	e, err := compile(c, res, q)
	if err != nil {
		return nil, err
	}
	if own != nil {
		match, id := e.match, e.v.id
		e.match = func(i int) bool { return own(id(i)) && (match == nil || match(i)) }
	}
	return e.shard(), nil
}

// shard runs the compiled query's per-part half over every entity the
// evaluator's predicate admits.
func (e *Evaluator) shard() *ShardResult {
	if perDomain(e.n) {
		return e.slab()
	}
	kept, total := e.Top(e.n.Offset + e.n.Limit)
	nk := len(e.keys)
	keys := make([]float64, 0, nk*len(kept))
	rows := make([]ShardRow, len(kept))
	for j, i := range kept {
		keys = e.Keys(i, keys)
		rows[j] = ShardRow{Row: e.Row(i), Keys: keys[len(keys)-nk:]}
	}
	return &ShardResult{Rows: rows, Total: total}
}

// slab accumulates the per-domain (count, sum) partials: for every
// matching entity and every domain it has nonzero weight in, one count
// plus either the aggregated field's value or, with no field, the
// weight itself. A domains query is the fieldless, unfiltered case over
// bloggers.
func (e *Evaluator) slab() *ShardResult {
	d := e.v.d
	nd := len(d.Domains)
	weights := d.DomainScores
	if e.n.Entity == EntityPosts {
		weights = d.PostDomains
	}
	counts := make([]float64, nd)
	sums := make([]float64, nd)
	for i, n := 0, e.v.count(); i < n; i++ {
		if !e.Match(i) {
			continue
		}
		var fv float64
		if e.agg != nil {
			fv = e.agg(i)
		}
		for di, w := range weights[i*nd : (i+1)*nd] {
			if w == 0 {
				continue
			}
			counts[di]++
			if e.agg != nil {
				sums[di] += fv
			} else {
				sums[di] += w
			}
		}
	}
	return &ShardResult{Domains: d.Domains, Counts: counts, Sums: sums}
}

// MergeShards finishes q from per-part results. Nil parts (shards that
// missed their deadline or were skipped) drop out — the merge degrades
// to the parts that answered. Scans k-way-merge the ordered row lists
// into the global [Offset, Offset+Limit) window with totals summed;
// per-domain queries sum their partials by domain name and finish
// through the single-engine domain tail.
func MergeShards(parts []*ShardResult, q *Query) (*Result, error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, err
	}
	if perDomain(n) {
		return mergeDomains(parts, n)
	}
	total := 0
	for _, p := range parts {
		if p != nil {
			total += p.Total
		}
	}
	cursors := make([]int, len(parts))
	rows := make([]Row, 0, max(0, min(n.Limit, total-n.Offset)))
	for taken := 0; taken < n.Offset+n.Limit; taken++ {
		best := -1
		var top *ShardRow
		for s, p := range parts {
			if p == nil || cursors[s] >= len(p.Rows) {
				continue
			}
			r := &p.Rows[cursors[s]]
			if top == nil || compareVals(n.OrderBy, r.Keys, r.ID, top.Keys, top.ID) < 0 {
				best, top = s, r
			}
		}
		if top == nil {
			break
		}
		if taken >= n.Offset {
			rows = append(rows, top.Row)
		}
		cursors[best]++
	}
	return &Result{Entity: n.Entity, Rows: rows, Total: total, Plan: shapePlan(n)}, nil
}

// mergeDomains unions per-part partials by domain name (sorted), sums
// them and finishes the query. An aggregate's parts already applied its
// entity filter; its domain rows rank by the aggregate value descending,
// and each AggOp names the domain column holding that value.
func mergeDomains(parts []*ShardResult, n *Query) (*Result, error) {
	idx := make(map[string]int)
	var names []string
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, name := range p.Domains {
			if _, ok := idx[name]; !ok {
				idx[name] = len(names)
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	for i, name := range names {
		idx[name] = i
	}
	counts := make([]float64, len(names))
	sums := make([]float64, len(names))
	for _, p := range parts {
		if p == nil {
			continue
		}
		for di, name := range p.Domains {
			counts[idx[name]] += p.Counts[di]
			sums[idx[name]] += p.Sums[di]
		}
	}
	if n.Aggregate != nil {
		agg := *n
		agg.Where = nil
		agg.OrderBy = []Order{{Field: Field{Name: string(n.Aggregate.Op)}, Desc: true}}
		n = &agg
	}
	return domainsResult(names, counts, sums, n)
}
