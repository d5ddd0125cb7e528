package query

import "time"

// Builder assembles a Query fluently:
//
//	q := query.Bloggers().
//		Where(query.And(
//			query.F(query.FieldInfluence).Gt(0.2),
//			query.F(query.DomainKey("Sports")).Ge(0.05),
//		)).
//		OrderBy(query.Desc(query.DomainKey("Sports"))).
//		Limit(10).
//		Build()
//
// Build returns the raw AST; validation happens in Execute (or Normalize),
// so a builder chain never needs error handling mid-expression.
type Builder struct {
	q Query
}

// Bloggers starts a query over bloggers.
func Bloggers() *Builder { return &Builder{q: Query{Entity: EntityBloggers}} }

// Posts starts a query over posts.
func Posts() *Builder { return &Builder{q: Query{Entity: EntityPosts}} }

// Domains starts a query over per-domain aggregates.
func Domains() *Builder { return &Builder{q: Query{Entity: EntityDomains}} }

// Where sets the filter predicate (replacing any previous one).
func (b *Builder) Where(p *Predicate) *Builder { b.q.Where = p; return b }

// OrderBy sets the sort keys (replacing any previous ones).
func (b *Builder) OrderBy(orders ...Order) *Builder { b.q.OrderBy = orders; return b }

// Select projects extra fields into each row's fields object.
func (b *Builder) Select(fields ...string) *Builder { b.q.Select = fields; return b }

// Limit sets the page size (0 means DefaultLimit; negative is invalid).
func (b *Builder) Limit(n int) *Builder { b.q.Limit = n; return b }

// Offset sets the zero-based start of the page.
func (b *Builder) Offset(n int) *Builder { b.q.Offset = n; return b }

// AggregatePerDomain groups the filtered entities per domain. field names
// the aggregated facet; "" aggregates the per-domain weight itself.
func (b *Builder) AggregatePerDomain(op AggOp, field string) *Builder {
	b.q.Aggregate = &Aggregate{Op: op, Field: field}
	return b
}

// Build returns the assembled query.
func (b *Builder) Build() *Query { q := b.q; return &q }

// ------------------------------------------------------------ predicates

// And requires every sub-predicate to hold.
func And(ps ...*Predicate) *Predicate { return &Predicate{And: ps} }

// Or requires at least one sub-predicate to hold.
func Or(ps ...*Predicate) *Predicate { return &Predicate{Or: ps} }

// Not inverts a predicate.
func Not(p *Predicate) *Predicate { return &Predicate{Not: p} }

// FieldRef names a facet for comparison building.
type FieldRef struct{ f Field }

// F references a field by name (see the Field* constants and DomainKey).
func F(name string) FieldRef { return FieldRef{f: Field{Name: name}} }

// Interest references the weighted domain dot product Inf(b, IV) · iv —
// the advertisement/recommendation facet.
func Interest(weights map[string]float64) FieldRef {
	return FieldRef{f: Field{Name: FieldInterest, Weights: weights}}
}

// EqualWeights builds the dropdown-mode interest vector: every selected
// domain gets equal weight, with duplicates accumulating — the paper's
// Fig. 3 option 2 semantics, shared by the advert endpoint, the CLIs and
// core.System.AdvertiseDomains.
// Empty or unknown names are kept: they contribute zero to every dot
// product, so sloppy client lists like ["Sports", ""] score identically
// to the pre-engine path instead of failing validation.
func EqualWeights(domains []string) map[string]float64 {
	iv := make(map[string]float64, len(domains))
	w := 1 / float64(len(domains))
	for _, d := range domains {
		iv[d] += w
	}
	return iv
}

func (r FieldRef) cmp(op Op, v float64) *Predicate {
	return &Predicate{Cmp: &Comparison{Field: r.f, Op: op, Kind: kindNumber, Num: v}}
}

// Eq / Ne / Lt / Le / Gt / Ge compare the facet against a number.
func (r FieldRef) Eq(v float64) *Predicate { return r.cmp(OpEq, v) }
func (r FieldRef) Ne(v float64) *Predicate { return r.cmp(OpNe, v) }
func (r FieldRef) Lt(v float64) *Predicate { return r.cmp(OpLt, v) }
func (r FieldRef) Le(v float64) *Predicate { return r.cmp(OpLe, v) }
func (r FieldRef) Gt(v float64) *Predicate { return r.cmp(OpGt, v) }
func (r FieldRef) Ge(v float64) *Predicate { return r.cmp(OpGe, v) }

// Since / Until bound a time facet (posted >= t / posted <= t).
func (r FieldRef) Since(t time.Time) *Predicate {
	return &Predicate{Cmp: &Comparison{Field: r.f, Op: OpGe, Kind: kindTime, Time: t}}
}
func (r FieldRef) Until(t time.Time) *Predicate {
	return &Predicate{Cmp: &Comparison{Field: r.f, Op: OpLe, Kind: kindTime, Time: t}}
}

// Is / IsNot compare a string facet (author).
func (r FieldRef) Is(s string) *Predicate {
	return &Predicate{Cmp: &Comparison{Field: r.f, Op: OpEq, Kind: kindString, Str: s}}
}
func (r FieldRef) IsNot(s string) *Predicate {
	return &Predicate{Cmp: &Comparison{Field: r.f, Op: OpNe, Kind: kindString, Str: s}}
}

// --------------------------------------------------------------- ordering

// Desc orders by a field, highest first.
func Desc(name string) Order { return Order{Field: Field{Name: name}, Desc: true} }

// Asc orders by a field, lowest first.
func Asc(name string) Order { return Order{Field: Field{Name: name}} }

// DescInterest orders by the weighted domain dot product, highest first.
func DescInterest(weights map[string]float64) Order {
	return Order{Field: Field{Name: FieldInterest, Weights: weights}, Desc: true}
}
