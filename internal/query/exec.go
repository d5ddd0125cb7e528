package query

// The executor. Every query compiles once, through compile, into an
// Evaluator bound to one analyzed generation; Execute and ExecuteShard
// share it. A single engine answers every query as one unrestricted
// shard part merged by MergeShards (shard.go) — the same per-shard
// ranked walk or scan and the same merge a cluster runs over N parts, so
// a cluster's merge is the code every single-engine read already runs.

import (
	"fmt"
	"slices"
	"strings"

	"mass/internal/blog"
	"mass/internal/influence"
)

// Row is one result row: the entity ID, the value of the primary sort key
// (the aggregate value for aggregated queries), and any projected fields.
type Row struct {
	ID     string             `json:"id"`
	Score  float64            `json:"score"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// Result is an executed query.
type Result struct {
	Entity Entity `json:"entity"`
	Rows   []Row  `json:"rows"`
	// Total is the number of entities matching the filter (the number of
	// domain rows for aggregated queries), before pagination.
	Total int `json:"total"`
	// Plan names the executor that answered the query:
	// "ranked/general" and "ranked/domain" serve from the snapshot's
	// precomputed rankings; "scan/*" is the dense filtered top-k scan;
	// "aggregate" and "domains" are the per-domain aggregators.
	Plan string `json:"plan"`
}

// Execute plans and runs q against one analyzed generation. It validates
// and normalizes q first, so any *Query — hand-built, builder-built or
// decoded — is accepted. The corpus and result must belong to the same
// snapshot.
func Execute(c *blog.Frozen, res *influence.Result, q *Query) (*Result, error) {
	e, err := compile(c, res, q)
	if err != nil {
		return nil, err
	}
	r, err := MergeShards([]*ShardResult{e.part(nil)}, e.n)
	if err != nil {
		return nil, err
	}
	r.Plan = e.plan
	return r, nil
}

// Evaluator is a query compiled against one generation's dense slabs. It
// is read-only and safe for concurrent use.
type Evaluator struct {
	v     *view
	n     *Query
	match func(int) bool // nil matches everything
	keys  []sortKey
	pr    *projection
	agg   func(int) float64 // aggregated field; nil sums the domain weights
	plan  string
}

// compile normalizes q and binds it to one generation: the predicate,
// sort keys and projection of a scan, or the predicate and aggregated
// field of a per-domain aggregate. A domains query compiles nothing here:
// its filter, order and projection range over the per-domain (count,
// sum, mean) rows, which exist only after MergeShards.
func compile(c *blog.Frozen, res *influence.Result, q *Query) (*Evaluator, error) {
	if c == nil || res == nil {
		return nil, fmt.Errorf("query: corpus and result required")
	}
	n, err := q.Normalize()
	if err != nil {
		return nil, err
	}
	v := &view{res: res, d: res.Dense(), entity: n.Entity}
	e := &Evaluator{v: v, n: n, plan: v.plan(n)}
	if n.Entity == EntityDomains {
		return e, nil
	}
	if e.match, err = compilePredicate(v, n.Where); err != nil {
		return nil, err
	}
	if n.Aggregate != nil {
		if n.Aggregate.Field != "" {
			if e.agg, err = v.numGetter(Field{Name: n.Aggregate.Field}); err != nil {
				return nil, err
			}
		}
		return e, nil
	}
	if e.keys, err = compileOrders(v, n.OrderBy); err != nil {
		return nil, err
	}
	if e.pr, err = compileProjection(v, n.Select); err != nil {
		return nil, err
	}
	return e, nil
}

// top is the bounded top-k scan: it streams the generation's entities
// that match admits (nil admits all) and returns the dense indices of the
// k best in the query's total order (sort keys, then ascending ID), plus
// the match count.
func (e *Evaluator) top(k int, match func(int) bool) (kept []int, total int) {
	n := e.v.count()
	less := func(a, b int) bool { return compareIdx(e.keys, a, b) < 0 }
	kept, total = selectTop(n, min(k, n), match, less)
	slices.SortFunc(kept, func(a, b int) int { return compareIdx(e.keys, a, b) })
	return kept, total
}

// ------------------------------------------------------------------ view

// view binds one generation's dense slabs.
type view struct {
	res    *influence.Result
	d      influence.DenseView
	entity Entity
}

func (v *view) count() int {
	if v.entity == EntityPosts {
		return len(v.d.Posts)
	}
	return len(v.d.Bloggers)
}

func (v *view) id(i int) string {
	if v.entity == EntityPosts {
		return string(v.d.Posts[i])
	}
	return string(v.d.Bloggers[i])
}

func zeroGetter(int) float64 { return 0 }

// window applies the query's offset/limit to an ordered slice — the one
// pagination implementation every executor shares.
func window[T any](s []T, offset, limit int) []T {
	if offset >= len(s) {
		return nil
	}
	s = s[offset:]
	if len(s) > limit {
		s = s[:limit]
	}
	return s
}

// numGetter compiles a numeric facet accessor for the view's entity.
// Domain-addressed accessors resolve their slot (or interest weight
// vector) once, at compile time, against the generation's interned
// domain list.
func (v *view) numGetter(f Field) (func(int) float64, error) {
	nd := len(v.d.Domains)
	if f.Name == FieldInterest {
		w := make([]float64, nd)
		for di, name := range v.d.Domains {
			w[di] = f.Weights[name]
		}
		if v.entity == EntityPosts {
			return func(i int) float64 { return dotRow(v.d.PostDomains, w, i) }, nil
		}
		return func(i int) float64 { return dotRow(v.d.DomainScores, w, i) }, nil
	}
	if name, ok := strings.CutPrefix(f.Name, "domain:"); ok {
		slot, known := v.res.DomainSlot(name)
		if !known {
			return zeroGetter, nil
		}
		if v.entity == EntityPosts {
			return func(i int) float64 { return slotRow(v.d.PostDomains, nd, slot, i) }, nil
		}
		return func(i int) float64 { return slotRow(v.d.DomainScores, nd, slot, i) }, nil
	}
	if v.entity == EntityBloggers {
		switch f.Name {
		case FieldInfluence:
			return func(i int) float64 { return v.d.Influence[i] }, nil
		case FieldAP:
			return func(i int) float64 { return v.d.AP[i] }, nil
		case FieldGL:
			return func(i int) float64 { return v.d.GL[i] }, nil
		case FieldPosts:
			return func(i int) float64 { return float64(v.d.PostCounts[i]) }, nil
		}
	} else {
		switch f.Name {
		case FieldInfluence:
			return func(i int) float64 { return v.d.PostScore[i] }, nil
		case FieldQuality:
			return func(i int) float64 { return v.d.Quality[i] }, nil
		case FieldNovelty:
			return func(i int) float64 { return v.d.Novelty[i] }, nil
		case FieldSentiment:
			return func(i int) float64 { return v.d.Sentiment[i] }, nil
		case FieldComments:
			return func(i int) float64 { return float64(v.d.Comments[i]) }, nil
		case FieldPosted:
			return func(i int) float64 { return v.d.Posted[i] }, nil
		}
	}
	return nil, fmt.Errorf("query: field %q has no %s accessor", f.Name, v.entity)
}

// dotRow is the weighted dot product of one dense domain row, summed in
// slot order — the FieldInterest accessor body, and the one place the
// advertisement and recommendation scores Inf(b, IV) · iv are computed.
func dotRow(slab, w []float64, i int) float64 {
	nd := len(w)
	if nd == 0 || len(slab) == 0 {
		return 0
	}
	row := slab[i*nd : (i+1)*nd]
	var dot float64
	for di, s := range row {
		dot += s * w[di]
	}
	return dot
}

func slotRow(slab []float64, nd, slot, i int) float64 {
	if nd == 0 || len(slab) == 0 {
		return 0
	}
	return slab[i*nd+slot]
}

func (v *view) strGetter(f Field) (func(int) string, error) {
	if v.entity == EntityPosts && f.Name == FieldAuthor {
		return func(i int) string { return string(v.d.Bloggers[v.d.Author[i]]) }, nil
	}
	return nil, fmt.Errorf("query: field %q has no string accessor", f.Name)
}

// ------------------------------------------------------------ predicates

// getters abstracts facet resolution so the same predicate compiler
// serves entity scans and domain-row filtering.
type getters interface {
	numGetter(f Field) (func(int) float64, error)
	strGetter(f Field) (func(int) string, error)
}

func compilePredicate(g getters, p *Predicate) (func(int) bool, error) {
	if p == nil {
		return nil, nil
	}
	switch {
	case len(p.And) > 0:
		kids, err := compileAll(g, p.And)
		if err != nil {
			return nil, err
		}
		return func(i int) bool {
			for _, k := range kids {
				if !k(i) {
					return false
				}
			}
			return true
		}, nil
	case len(p.Or) > 0:
		kids, err := compileAll(g, p.Or)
		if err != nil {
			return nil, err
		}
		return func(i int) bool {
			for _, k := range kids {
				if k(i) {
					return true
				}
			}
			return false
		}, nil
	case p.Not != nil:
		kid, err := compilePredicate(g, p.Not)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return !kid(i) }, nil
	case p.Cmp != nil:
		return compileComparison(g, p.Cmp)
	}
	return nil, fmt.Errorf("query: empty predicate node")
}

func compileAll(g getters, ps []*Predicate) ([]func(int) bool, error) {
	out := make([]func(int) bool, len(ps))
	for i, p := range ps {
		k, err := compilePredicate(g, p)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

func compileComparison(g getters, c *Comparison) (func(int) bool, error) {
	if c.Kind == kindString {
		get, err := g.strGetter(c.Field)
		if err != nil {
			return nil, err
		}
		want := c.Str
		if c.Op == OpEq {
			return func(i int) bool { return get(i) == want }, nil
		}
		return func(i int) bool { return get(i) != want }, nil
	}
	get, err := g.numGetter(c.Field)
	if err != nil {
		return nil, err
	}
	want := c.Num
	if c.Kind == kindTime {
		want = influence.PostedKey(c.Time)
	}
	switch c.Op {
	case OpEq:
		return func(i int) bool { return get(i) == want }, nil
	case OpNe:
		return func(i int) bool { return get(i) != want }, nil
	case OpLt:
		return func(i int) bool { return get(i) < want }, nil
	case OpLe:
		return func(i int) bool { return get(i) <= want }, nil
	case OpGt:
		return func(i int) bool { return get(i) > want }, nil
	default:
		return func(i int) bool { return get(i) >= want }, nil
	}
}

// -------------------------------------------------------------- ordering

type sortKey struct {
	get  func(int) float64
	desc bool
}

func compileOrders(g getters, orders []Order) ([]sortKey, error) {
	keys := make([]sortKey, len(orders))
	for i, o := range orders {
		get, err := g.numGetter(o.Field)
		if err != nil {
			return nil, err
		}
		keys[i] = sortKey{get: get, desc: o.Desc}
	}
	return keys, nil
}

// compareKeys ranks two entity indices under the sort keys alone; 0 on a
// full tie.
func compareKeys(keys []sortKey, a, b int) int {
	for _, k := range keys {
		va, vb := k.get(a), k.get(b)
		if va == vb {
			continue
		}
		if (va > vb) == k.desc {
			return -1
		}
		return 1
	}
	return 0
}

// compareIdx is compareKeys with ties broken by ascending index, which is
// ascending ID for the sorted dense entity lists — the same total order
// rank.TopK uses.
func compareIdx(keys []sortKey, a, b int) int {
	if c := compareKeys(keys, a, b); c != 0 {
		return c
	}
	return a - b
}

// compareVals ranks two rows by stored sort-key values under orders'
// directions, ties broken by ascending ID: the total order compareIdx
// imposes within one generation, since dense entity lists are ID-sorted.
// It orders rows that no longer have a dense index: merged shard rows.
func compareVals(orders []Order, aKeys []float64, aID string, bKeys []float64, bID string) int {
	for j, o := range orders {
		va, vb := aKeys[j], bKeys[j]
		if va == vb {
			continue
		}
		if (va > vb) == o.Desc {
			return -1
		}
		return 1
	}
	return strings.Compare(aID, bID)
}

// selectTop streams indices [0, n) through the filter and keeps the k
// best under less in a bounded binary heap (worst kept at the root). It
// reports the kept indices (unsorted) and the total match count. No maps,
// no per-entity allocation.
func selectTop(n, k int, match func(int) bool, less func(a, b int) bool) (kept []int, total int) {
	worse := func(a, b int) bool { return less(b, a) }
	h := make([]int, 0, max(k, 0))
	for i := 0; i < n; i++ {
		if match != nil && !match(i) {
			continue
		}
		total++
		if len(h) < k {
			h = append(h, i)
			// Sift up: keep the worst at the root.
			c := len(h) - 1
			for c > 0 {
				p := (c - 1) / 2
				if !worse(h[c], h[p]) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if k == 0 || !less(i, h[0]) {
			continue
		}
		h[0] = i
		// Sift down.
		p := 0
		for {
			c := 2*p + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && worse(h[c+1], h[c]) {
				c++
			}
			if !worse(h[c], h[p]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	return h, total
}

// ------------------------------------------------------------- executors

// projection is the compiled select list.
type projection struct {
	names []string
	gets  []func(int) float64
}

func compileProjection(g getters, sel []string) (*projection, error) {
	if len(sel) == 0 {
		return nil, nil
	}
	pr := &projection{names: sel, gets: make([]func(int) float64, len(sel))}
	for i, name := range sel {
		get, err := g.numGetter(Field{Name: name})
		if err != nil {
			return nil, err
		}
		pr.gets[i] = get
	}
	return pr, nil
}

func (pr *projection) fields(i int) map[string]float64 {
	if pr == nil {
		return nil
	}
	out := make(map[string]float64, len(pr.names))
	for j, name := range pr.names {
		out[name] = pr.gets[j](i)
	}
	return out
}

// plan names the executor answering n against this generation. An
// unfiltered blogger query ordered by a single descending influence or
// domain-score key is served from the precomputed rankings; everything
// else by its shard shape (see shapePlan).
func (v *view) plan(n *Query) string {
	if v.entity == EntityBloggers && n.Where == nil && len(n.OrderBy) == 1 {
		o := n.OrderBy[0]
		if o.Desc && len(o.Field.Weights) == 0 {
			if o.Field.Name == FieldInfluence {
				return "ranked/general"
			}
			if strings.HasPrefix(o.Field.Name, "domain:") && len(v.d.Domains) > 0 {
				return "ranked/domain"
			}
		}
	}
	return shapePlan(n)
}

// shapePlan names the shard executor for n's shape. Constant strings,
// not concatenation: evaluators are compiled per subscription per
// generation, so this runs hot.
func shapePlan(n *Query) string {
	switch {
	case n.Entity == EntityDomains:
		return "domains"
	case n.Aggregate != nil:
		return "aggregate"
	case n.Entity == EntityPosts:
		return "scan/posts"
	}
	return "scan/bloggers"
}

// perDomain reports whether n's rows are per-domain folds over the whole
// entity set (domains queries and aggregates) rather than entities.
func perDomain(n *Query) bool {
	return n.Entity == EntityDomains || n.Aggregate != nil
}

// domainView adapts per-domain value arrays to the predicate compiler.
type domainView struct {
	fields map[string][]float64
}

func (v *domainView) numGetter(f Field) (func(int) float64, error) {
	vals, ok := v.fields[f.Name]
	if !ok {
		return nil, fmt.Errorf("query: field %q has no domain accessor", f.Name)
	}
	return func(i int) float64 { return vals[i] }, nil
}

func (v *domainView) strGetter(f Field) (func(int) string, error) {
	return nil, fmt.Errorf("query: field %q has no string accessor", f.Name)
}

// domainsResult finishes a per-domain query from merged (count, sum)
// partials: means derived here (count and sum merge associatively; mean
// never does), then predicate, order and select compiled against the
// per-domain arrays, filter, sort (ties by name) and paginate.
func domainsResult(names []string, counts, sums []float64, n *Query) (*Result, error) {
	nd := len(names)
	means := make([]float64, nd)
	for di := range means {
		if counts[di] > 0 {
			means[di] = sums[di] / counts[di]
		}
	}
	dv := &domainView{fields: map[string][]float64{
		FieldCount: counts,
		FieldSum:   sums,
		FieldMean:  means,
	}}
	match, err := compilePredicate(dv, n.Where)
	if err != nil {
		return nil, err
	}
	keys, err := compileOrders(dv, n.OrderBy)
	if err != nil {
		return nil, err
	}
	pr, err := compileProjection(dv, n.Select)
	if err != nil {
		return nil, err
	}
	idx := make([]int, 0, nd)
	for di := 0; di < nd; di++ {
		if match == nil || match(di) {
			idx = append(idx, di)
		}
	}
	total := len(idx)
	slices.SortFunc(idx, func(a, b int) int {
		if c := compareKeys(keys, a, b); c != 0 {
			return c
		}
		return strings.Compare(names[a], names[b])
	})
	idx = window(idx, n.Offset, n.Limit)
	rows := make([]Row, 0, len(idx))
	primary := keys[0].get
	for _, di := range idx {
		rows = append(rows, Row{ID: names[di], Score: primary(di), Fields: pr.fields(di)})
	}
	return &Result{Entity: n.Entity, Rows: rows, Total: total, Plan: shapePlan(n)}, nil
}
