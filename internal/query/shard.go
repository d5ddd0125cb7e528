package query

// Shard-side execution: one query run as per-part sub-plans and merged
// back exactly. ExecuteShard takes every query shape. A part restricts
// itself to the rows its shard owns through a dense owned-row mask
// (Owned), so no part hashes an ID. An unfiltered single-key ranked
// blogger query walks the generation's precomputed ranking, skips
// unowned rows and stops once it holds Offset+Limit rows; every other
// scan streams the owned rows through a bounded top-k. Scans return their
// top rows with the ORDER BY key values attached (ShardRow.Keys), so the
// merge compares rows across parts without re-resolving facets.
// Per-domain queries (domains and aggregates) return raw (count, sum)
// partials, because count and sum merge associatively while mean does
// not — mean is always derived after the merge. MergeShards finishes
// every shape. A cluster runs one part per shard; a single engine runs
// one unrestricted part (see Execute).

import (
	"slices"
	"strings"

	"mass/internal/blog"
	"mass/internal/influence"
)

// Owned is one shard generation's owned-row mask. Rows[i] reports
// whether the shard owns Dense().Bloggers[i] and Count how many rows it
// owns; a post is owned with its author's row. Shards admit foreign
// bloggers as link stubs and per-shard analysis gives those stubs real
// scores, so an unmasked broadcast would return the same blogger from
// several shards. A nil *Owned owns every row.
type Owned struct {
	Rows  []bool
	Count int
}

// NewOwned builds the mask of a generation's blogger rows (its
// Dense().Bloggers) that owns admits.
func NewOwned(bloggers []blog.BloggerID, owns func(blog.BloggerID) bool) *Owned {
	m := &Owned{Rows: make([]bool, len(bloggers))}
	for i, id := range bloggers {
		if owns(id) {
			m.Rows[i] = true
			m.Count++
		}
	}
	return m
}

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
//
// Scanned is the number of rows the part inspected: every row for a
// scan, the walked prefix of the ranking for a ranked part. It is a work
// count for tests and never goes on the wire.
type ShardResult struct {
	Rows    []ShardRow `json:"rows,omitempty"`
	Total   int        `json:"total"`
	Domains []string   `json:"domains,omitempty"`
	Counts  []float64  `json:"counts,omitempty"`
	Sums    []float64  `json:"sums,omitempty"`
	Scanned int        `json:"-"`
}

// ExecuteShard runs q's per-part half against one shard's snapshot,
// restricted to the rows own marks (nil: every row). own must be built
// from res's blogger rows.
func ExecuteShard(c *blog.Frozen, res *influence.Result, q *Query, own *Owned) (*ShardResult, error) {
	e, err := compile(c, res, q)
	if err != nil {
		return nil, err
	}
	return e.part(own), nil
}

// part runs the compiled query's per-part half over the rows own marks:
// a ranked walk when the plan has a precomputed ranking, a scan
// otherwise.
func (e *Evaluator) part(own *Owned) *ShardResult {
	if order := e.rankOrder(); order != nil {
		return e.rankedPart(order, own)
	}
	return e.scanPart(own)
}

// rankOrder is the precomputed ranking serving a ranked plan, or nil when
// the plan scans. A domain the generation never interned has no ranking:
// every row scores 0 there, which the scan orders by ID.
func (e *Evaluator) rankOrder() []int32 {
	switch e.plan {
	case "ranked/general":
		return e.v.res.GeneralOrder()
	case "ranked/domain":
		name := strings.TrimPrefix(e.n.OrderBy[0].Field.Name, "domain:")
		if slot, ok := e.v.res.DomainSlot(name); ok {
			return e.v.res.DomainOrder(slot)
		}
	}
	return nil
}

// rankedPart walks a ranking, which already holds every row in the
// query's total order, and keeps the first Offset+Limit owned rows. The
// query is unfiltered, so the part's match count is its owned count.
func (e *Evaluator) rankedPart(order []int32, own *Owned) *ShardResult {
	total := len(order)
	if own != nil {
		total = own.Count
	}
	k := min(e.n.Offset+e.n.Limit, total)
	kept := make([]int, 0, k)
	scanned := 0
	for _, i := range order {
		if len(kept) == k {
			break
		}
		scanned++
		if own == nil || own.Rows[i] {
			kept = append(kept, int(i))
		}
	}
	return &ShardResult{Rows: e.shardRows(kept), Total: total, Scanned: scanned}
}

// scanPart streams every owned row through the compiled predicate: the
// per-domain partials, or the bounded top-(Offset+Limit) scan.
func (e *Evaluator) scanPart(own *Owned) *ShardResult {
	match := e.match
	if own != nil {
		rows, author := own.Rows, e.v.d.Author
		owned := func(i int) bool { return rows[i] }
		if e.v.entity == EntityPosts {
			owned = func(i int) bool { return rows[author[i]] }
		}
		if inner := match; inner != nil {
			match = func(i int) bool { return owned(i) && inner(i) }
		} else {
			match = owned
		}
	}
	if perDomain(e.n) {
		return e.slab(match)
	}
	kept, total := e.top(e.n.Offset+e.n.Limit, match)
	return &ShardResult{Rows: e.shardRows(kept), Total: total, Scanned: e.v.count()}
}

// shardRows materializes kept dense indices as rows with their sort keys.
func (e *Evaluator) shardRows(kept []int) []ShardRow {
	nk := len(e.keys)
	keys := make([]float64, 0, nk*len(kept))
	rows := make([]ShardRow, len(kept))
	for j, i := range kept {
		keys = e.appendKeys(i, keys)
		rows[j] = ShardRow{Row: e.row(i), Keys: keys[len(keys)-nk:]}
	}
	return rows
}

// appendKeys appends the entity's sort-key values to dst and returns it.
func (e *Evaluator) appendKeys(i int, dst []float64) []float64 {
	for _, k := range e.keys {
		dst = append(dst, k.get(i))
	}
	return dst
}

// row materializes the result row for the entity at dense index i: Score
// is the primary sort key, Fields the compiled projection (nil when the
// query selects nothing).
func (e *Evaluator) row(i int) Row {
	return Row{ID: e.v.id(i), Score: e.keys[0].get(i), Fields: e.pr.fields(i)}
}

// slab accumulates the per-domain (count, sum) partials: for every
// entity match admits (nil admits all) and every domain it has nonzero
// weight in, one count plus either the aggregated field's value or, with
// no field, the weight itself. A domains query is the fieldless, unfiltered case over
// bloggers.
func (e *Evaluator) slab(match func(int) bool) *ShardResult {
	d := e.v.d
	nd := len(d.Domains)
	weights := d.DomainScores
	if e.n.Entity == EntityPosts {
		weights = d.PostDomains
	}
	counts := make([]float64, nd)
	sums := make([]float64, nd)
	for i, n := 0, e.v.count(); i < n; i++ {
		if match != nil && !match(i) {
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
	return &ShardResult{Domains: d.Domains, Counts: counts, Sums: sums, Scanned: e.v.count()}
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
