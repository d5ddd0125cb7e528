// Package query is the composable read surface of MASS: one typed query
// contract over the three analyzed entity kinds (bloggers, posts,
// domains), replacing the zoo of one-off accessors and endpoints the demo
// scenarios used to require.
//
// A Query selects an entity set, filters it with a boolean predicate tree
// over the scored facets of the influence model (influence, per-domain
// score, quality, novelty, sentiment, post/comment counts, time range,
// weighted interest vectors), orders it by any scored facet, projects
// selected fields, paginates, and optionally aggregates per domain
// (count/sum/mean).
//
// Queries arrive two ways — the fluent Go builder (Bloggers().Where(...)
// .OrderBy(...).Limit(...)) and a strict JSON decoder (Decode) used by
// POST /api/v1/query — and compile down to the same planner: Execute
// inspects the query and either serves it from the influence.Result's
// precomputed rankings (unfiltered top-k over influence or one domain) or
// runs an index-aware scan over the result's dense []float64 slabs with a
// bounded top-k heap. The executors never materialize per-blogger or
// per-post maps; allocation on the filtered top-k path is O(plan + k),
// independent of corpus size.
//
// The executors do not memoize: a serving process memoizes finished
// results per cluster view (cluster.View), keyed by the normalized query
// (Key), so repeated dashboard queries cost a map lookup until a shard
// publishes a new generation.
package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Entity selects what a query ranges over.
type Entity string

const (
	// Bloggers queries the per-blogger influence facets.
	EntityBloggers Entity = "bloggers"
	// Posts queries the per-post facets.
	EntityPosts Entity = "posts"
	// Domains queries per-domain aggregates of blogger influence mass.
	EntityDomains Entity = "domains"
)

// Op is a comparison operator in a leaf predicate.
type Op string

const (
	OpEq Op = "eq"
	OpNe Op = "ne"
	OpLt Op = "lt"
	OpLe Op = "le"
	OpGt Op = "gt"
	OpGe Op = "ge"
)

// AggOp is a per-domain aggregation operator.
type AggOp string

const (
	AggCount AggOp = "count"
	AggSum   AggOp = "sum"
	AggMean  AggOp = "mean"
)

// Field names. Domain-score fields use the "domain:<name>" form (see
// DomainKey); FieldInterest carries a weight vector and is only valid
// with Weights set.
const (
	FieldInfluence = "influence" // bloggers: Inf(b); posts: Inf(b, d_k)
	FieldAP        = "ap"        // bloggers
	FieldGL        = "gl"        // bloggers
	FieldPosts     = "posts"     // bloggers: authored post count
	FieldQuality   = "quality"   // posts
	FieldNovelty   = "novelty"   // posts
	FieldSentiment = "sentiment" // posts: mean comment sentiment factor
	FieldComments  = "comments"  // posts: comment count
	FieldPosted    = "posted"    // posts: publication time (RFC3339 in JSON)
	FieldAuthor    = "author"    // posts: author ID (eq/ne only)
	FieldInterest  = "interest"  // bloggers/posts: dot product with Weights
	FieldCount     = "count"     // domains: bloggers with nonzero score
	FieldSum       = "sum"       // domains: Σ blogger domain score
	FieldMean      = "mean"      // domains: sum / count
)

// DomainKey returns the field name addressing one domain's score column
// ("domain:<name>"): Inf(b, C_t) for bloggers, the classifier posterior
// weight for posts.
func DomainKey(name string) string { return "domain:" + name }

// Field identifies a scored facet. Weights is set only for
// FieldInterest, where the facet value is the dot product of the
// entity's domain vector with the weights.
type Field struct {
	Name    string
	Weights map[string]float64
}

// valueKind classifies what a field's values are compared as.
type valueKind int

const (
	kindNumber valueKind = iota
	kindTime
	kindString
)

// Comparison is a leaf predicate: Field Op value. Exactly one of Num,
// Time, Str is meaningful, according to Kind.
type Comparison struct {
	Field Field
	Op    Op
	Kind  valueKind

	Num  float64
	Time time.Time
	Str  string
}

// Predicate is a boolean combination of comparisons. Exactly one of And,
// Or, Not, Cmp is set.
type Predicate struct {
	And []*Predicate
	Or  []*Predicate
	Not *Predicate
	Cmp *Comparison
}

// Order is one sort key.
type Order struct {
	Field Field
	Desc  bool
}

// Aggregate groups the filtered entity set per domain. For each domain,
// an entity is a member when its weight in that domain is nonzero;
// AggCount counts members, AggSum sums Field over members (defaulting to
// the domain weight itself when Field is empty), AggMean divides the two.
type Aggregate struct {
	Op AggOp
	// Field names the aggregated facet; empty means the per-domain weight
	// (blogger domain score / post posterior weight).
	Field string
}

// Query limits. DefaultLimit applies when Limit is unset; the API layer
// further clamps to its own documented page bounds.
const (
	DefaultLimit = 10
	MaxLimit     = 100000
	MaxOffset    = 1 << 20
	// maxDepth bounds predicate nesting so hostile JSON cannot build
	// pathological trees.
	maxDepth = 64
)

// Query is the typed AST. Build one with the fluent builder (Bloggers,
// Posts, Domains) or decode one from JSON (Decode).
type Query struct {
	Entity    Entity
	Where     *Predicate
	OrderBy   []Order
	Select    []string
	Limit     int // 0 means DefaultLimit; negative is invalid
	Offset    int
	Aggregate *Aggregate

	// normalized marks a query returned by Normalize, so the pipeline
	// (Decode → cache key → Execute) validates the tree exactly once.
	normalized bool
}

// ---------------------------------------------------------------- fields

// fieldSpec describes one queryable facet of an entity.
type fieldSpec struct {
	kind       valueKind
	selectable bool
	orderable  bool
}

var bloggerFields = map[string]fieldSpec{
	FieldInfluence: {kindNumber, true, true},
	FieldAP:        {kindNumber, true, true},
	FieldGL:        {kindNumber, true, true},
	FieldPosts:     {kindNumber, true, true},
}

var postFields = map[string]fieldSpec{
	FieldInfluence: {kindNumber, true, true},
	FieldQuality:   {kindNumber, true, true},
	FieldNovelty:   {kindNumber, true, true},
	FieldSentiment: {kindNumber, true, true},
	FieldComments:  {kindNumber, true, true},
	FieldPosted:    {kindTime, true, true},
	FieldAuthor:    {kindString, false, false},
}

var domainFields = map[string]fieldSpec{
	FieldCount: {kindNumber, true, true},
	FieldSum:   {kindNumber, true, true},
	FieldMean:  {kindNumber, true, true},
}

// resolveField validates a field reference against an entity and reports
// its spec.
func resolveField(entity Entity, f Field) (fieldSpec, error) {
	if f.Name == FieldInterest {
		if entity == EntityDomains {
			return fieldSpec{}, fmt.Errorf("field %q is not valid for entity %q", f.Name, entity)
		}
		if len(f.Weights) == 0 {
			return fieldSpec{}, fmt.Errorf("field %q requires a non-empty weights object", FieldInterest)
		}
		// Domain names are not validated against the analysis: an unknown
		// (or empty) name simply contributes zero to every dot product,
		// matching DomainScore's unknown-domain semantics.
		for d, w := range f.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fieldSpec{}, fmt.Errorf("interest weight for %q is not finite", d)
			}
		}
		return fieldSpec{kind: kindNumber, selectable: false, orderable: true}, nil
	}
	if len(f.Weights) > 0 {
		return fieldSpec{}, fmt.Errorf("field %q does not take weights", f.Name)
	}
	if name, ok := strings.CutPrefix(f.Name, "domain:"); ok {
		if entity == EntityDomains {
			return fieldSpec{}, fmt.Errorf("field %q is not valid for entity %q", f.Name, entity)
		}
		if name == "" {
			return fieldSpec{}, fmt.Errorf("domain field needs a name: %q", f.Name)
		}
		return fieldSpec{kind: kindNumber, selectable: true, orderable: true}, nil
	}
	var catalog map[string]fieldSpec
	switch entity {
	case EntityBloggers:
		catalog = bloggerFields
	case EntityPosts:
		catalog = postFields
	case EntityDomains:
		catalog = domainFields
	default:
		return fieldSpec{}, fmt.Errorf("unknown entity %q", entity)
	}
	spec, ok := catalog[f.Name]
	if !ok {
		return fieldSpec{}, fmt.Errorf("unknown field %q for entity %q", f.Name, entity)
	}
	return spec, nil
}

// ------------------------------------------------------------- normalize

// Normalize validates q and returns a copy with defaults applied (entity
// default ordering, DefaultLimit) — the canonical form the planner
// executes and the cache keys on. q itself is not modified.
func (q *Query) Normalize() (*Query, error) {
	if q == nil {
		return nil, fmt.Errorf("query: nil query")
	}
	if q.normalized {
		return q, nil
	}
	n := *q
	switch n.Entity {
	case EntityBloggers, EntityPosts, EntityDomains:
	default:
		return nil, fmt.Errorf("query: unknown entity %q (want bloggers, posts or domains)", n.Entity)
	}
	// Zero (unset) defaults; an explicitly negative limit is rejected
	// like every other negative v1 parameter, not silently coerced.
	if n.Limit < 0 {
		return nil, fmt.Errorf("query: negative limit")
	}
	if n.Limit == 0 {
		n.Limit = DefaultLimit
	}
	if n.Limit > MaxLimit {
		n.Limit = MaxLimit
	}
	if n.Offset < 0 {
		return nil, fmt.Errorf("query: negative offset")
	}
	if n.Offset > MaxOffset {
		return nil, fmt.Errorf("query: offset above %d", MaxOffset)
	}
	if err := validatePredicate(n.Entity, n.Where, 0); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if n.Aggregate != nil {
		if n.Entity == EntityDomains {
			return nil, fmt.Errorf("query: aggregate is implicit for entity %q", EntityDomains)
		}
		switch n.Aggregate.Op {
		case AggCount, AggSum, AggMean:
		default:
			return nil, fmt.Errorf("query: unknown aggregate op %q", n.Aggregate.Op)
		}
		if n.Aggregate.Field != "" {
			spec, err := resolveField(n.Entity, Field{Name: n.Aggregate.Field})
			if err != nil {
				return nil, fmt.Errorf("query: aggregate: %w", err)
			}
			if spec.kind != kindNumber {
				return nil, fmt.Errorf("query: aggregate field %q is not numeric", n.Aggregate.Field)
			}
		}
		if len(n.OrderBy) > 0 {
			return nil, fmt.Errorf("query: orderBy cannot be combined with aggregate (rows are ordered by the aggregate value)")
		}
		if len(n.Select) > 0 {
			return nil, fmt.Errorf("query: select cannot be combined with aggregate")
		}
	}
	if len(n.OrderBy) == 0 && n.Aggregate == nil {
		// Aggregated rows are ordered by the aggregate value; everything
		// else defaults to the entity's principal score.
		n.OrderBy = []Order{defaultOrder(n.Entity)}
	}
	for i, o := range n.OrderBy {
		spec, err := resolveField(n.Entity, o.Field)
		if err != nil {
			return nil, fmt.Errorf("query: orderBy[%d]: %w", i, err)
		}
		if !spec.orderable {
			return nil, fmt.Errorf("query: orderBy[%d]: field %q is not orderable", i, o.Field.Name)
		}
	}
	for i, name := range n.Select {
		spec, err := resolveField(n.Entity, Field{Name: name})
		if err != nil {
			return nil, fmt.Errorf("query: select[%d]: %w", i, err)
		}
		if !spec.selectable {
			return nil, fmt.Errorf("query: select[%d]: field %q is not selectable", i, name)
		}
	}
	if len(n.Select) > 1 {
		// Canonical order and no duplicates: projections are a set.
		sel := append([]string(nil), n.Select...)
		sort.Strings(sel)
		dedup := sel[:1]
		for _, s := range sel[1:] {
			if s != dedup[len(dedup)-1] {
				dedup = append(dedup, s)
			}
		}
		n.Select = dedup
	}
	n.normalized = true
	return &n, nil
}

func defaultOrder(e Entity) Order {
	switch e {
	case EntityDomains:
		return Order{Field: Field{Name: FieldSum}, Desc: true}
	default:
		return Order{Field: Field{Name: FieldInfluence}, Desc: true}
	}
}

func validatePredicate(entity Entity, p *Predicate, depth int) error {
	if p == nil {
		return nil
	}
	if depth > maxDepth {
		return fmt.Errorf("predicate nesting deeper than %d", maxDepth)
	}
	set := 0
	if len(p.And) > 0 {
		set++
	}
	if len(p.Or) > 0 {
		set++
	}
	if p.Not != nil {
		set++
	}
	if p.Cmp != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("predicate must have exactly one of and/or/not or be a comparison")
	}
	for _, kid := range p.And {
		if err := validatePredicate(entity, kid, depth+1); err != nil {
			return err
		}
	}
	for _, kid := range p.Or {
		if err := validatePredicate(entity, kid, depth+1); err != nil {
			return err
		}
	}
	if p.Not != nil {
		return validatePredicate(entity, p.Not, depth+1)
	}
	if c := p.Cmp; c != nil {
		spec, err := resolveField(entity, c.Field)
		if err != nil {
			return err
		}
		switch c.Op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		default:
			return fmt.Errorf("unknown op %q", c.Op)
		}
		if c.Kind != spec.kind {
			return fmt.Errorf("field %q expects a %s value", c.Field.Name, kindName(spec.kind))
		}
		if c.Kind == kindString && c.Op != OpEq && c.Op != OpNe {
			return fmt.Errorf("field %q supports only eq/ne", c.Field.Name)
		}
		if c.Kind == kindNumber && (math.IsNaN(c.Num) || math.IsInf(c.Num, 0)) {
			return fmt.Errorf("field %q compared against a non-finite number", c.Field.Name)
		}
	}
	return nil
}

func kindName(k valueKind) string {
	switch k {
	case kindTime:
		return "RFC3339 time"
	case kindString:
		return "string"
	default:
		return "number"
	}
}

// Key returns the canonical cache key of the query: the compact JSON of
// its normalized form (map-valued weights marshal with sorted keys, so
// equal queries produce equal keys). It never mutates the query, so a
// decoded or normalized *Query is safe to share across goroutines — the
// marshal is cheap enough to repeat rather than memoize behind a lock.
func (q *Query) Key() (string, error) {
	n, err := q.Normalize()
	if err != nil {
		return "", err
	}
	data, err := n.MarshalJSON()
	if err != nil {
		return "", err
	}
	return string(data), nil
}
