package query

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/rank"
	"mass/internal/synth"
)

// fixture is one analyzed corpus shared by the package tests.
type fixture struct {
	c     *blog.Frozen
	res   *influence.Result
	posts map[blog.BloggerID]int // each author's post count, by a scan
}

var (
	fixOnce sync.Once
	fix     fixture
)

// testFixture analyzes a small synthetic corpus (with a classifier, so
// the domain facets are meaningful) exactly once.
func testFixture(t testing.TB) fixture {
	fixOnce.Do(func() {
		c, _, err := synth.Generate(synth.Config{Seed: 7, Bloggers: 60, Posts: 400})
		if err != nil {
			panic(err)
		}
		nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 20, 8))
		if err != nil {
			panic(err)
		}
		an, err := influence.NewAnalyzer(influence.Config{}, nb)
		if err != nil {
			panic(err)
		}
		res, err := an.Analyze(c)
		if err != nil {
			panic(err)
		}
		fix = fixture{c: c.Snapshot(), res: res, posts: map[blog.BloggerID]int{}}
		for _, p := range c.Posts {
			fix.posts[p.Author]++
		}
	})
	return fix
}

func mustExecute(t *testing.T, q *Query) *Result {
	t.Helper()
	f := testFixture(t)
	r, err := Execute(f.c, f.res, q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return r
}

func someDomain(t *testing.T) string {
	t.Helper()
	d := testFixture(t).res.Domains()
	if len(d) == 0 {
		t.Fatal("fixture has no domains")
	}
	return d[0]
}

// TestRankedFastPath: the unfiltered descending top-k must be served from
// the precomputed rankings and match them exactly.
func TestRankedFastPath(t *testing.T) {
	f := testFixture(t)
	r := mustExecute(t, Bloggers().Limit(5).Build())
	if r.Plan != "ranked/general" {
		t.Fatalf("plan = %q, want ranked/general", r.Plan)
	}
	want := f.res.TopGeneral(5)
	if len(r.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(want))
	}
	for i, e := range want {
		if r.Rows[i].ID != e.ID || r.Rows[i].Score != e.Score {
			t.Fatalf("row %d = %+v, want %+v", i, r.Rows[i], e)
		}
	}
	if r.Total != f.c.NumBloggers() {
		t.Fatalf("total = %d, want %d", r.Total, f.c.NumBloggers())
	}

	dom := someDomain(t)
	r = mustExecute(t, Bloggers().OrderBy(Desc(DomainKey(dom))).Limit(4).Offset(2).Build())
	if r.Plan != "ranked/domain" {
		t.Fatalf("plan = %q, want ranked/domain", r.Plan)
	}
	wantDom := f.res.TopDomain(dom, 6)[2:]
	for i, e := range wantDom {
		if r.Rows[i].ID != e.ID || r.Rows[i].Score != e.Score {
			t.Fatalf("domain row %d = %+v, want %+v", i, r.Rows[i], e)
		}
	}
}

// TestScanMatchesRankedOrder: a scan forced by a trivially-true filter
// must produce exactly the ranked ordering — the two executors implement
// one total order.
func TestScanMatchesRankedOrder(t *testing.T) {
	f := testFixture(t)
	r := mustExecute(t, Bloggers().
		Where(F(FieldInfluence).Ge(0)).
		OrderBy(Desc(FieldInfluence)).
		Limit(10).Build())
	if !strings.HasPrefix(r.Plan, "scan/") {
		t.Fatalf("plan = %q, want a scan", r.Plan)
	}
	want := f.res.TopGeneral(10)
	for i, e := range want {
		if r.Rows[i].ID != e.ID || r.Rows[i].Score != e.Score {
			t.Fatalf("row %d = %+v, want %+v", i, r.Rows[i], e)
		}
	}
}

// interestReference ranks every blogger by the dot product of its dense
// domain row with iv, summed in slot order, score descending then ID
// ascending, and keeps the first k: the test-local oracle for interest
// orderings.
func interestReference(res *influence.Result, iv map[string]float64, k int) []rank.Entry {
	d := res.Dense()
	nd := len(d.Domains)
	out := make([]rank.Entry, len(d.Bloggers))
	for i, b := range d.Bloggers {
		var dot float64
		for di, name := range d.Domains {
			dot += d.DomainScores[i*nd+di] * iv[name]
		}
		out[i] = rank.Entry{ID: string(b), Score: dot}
	}
	slices.SortFunc(out, func(a, b rank.Entry) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out[:min(k, len(out))]
}

// TestInterestMatchesTopK: ordering by an interest vector must reproduce
// the dense reference bit for bit (the advert scenario).
func TestInterestMatchesTopK(t *testing.T) {
	f := testFixture(t)
	domains := f.res.Domains()
	iv := map[string]float64{domains[0]: 0.7, domains[len(domains)-1]: 0.3}
	want := interestReference(f.res, iv, 7)
	r := mustExecute(t, Bloggers().OrderBy(DescInterest(iv)).Limit(7).Build())
	if len(r.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(want))
	}
	for i, e := range want {
		if r.Rows[i].ID != e.ID || r.Rows[i].Score != e.Score {
			t.Fatalf("row %d = %+v, want %+v", i, r.Rows[i], e)
		}
	}
}

// TestFilteredScanAgainstReference cross-checks the heap-based scan
// against a naive filter+sort reference over several predicates.
func TestFilteredScanAgainstReference(t *testing.T) {
	f := testFixture(t)
	dom := someDomain(t)
	d := f.res.Dense()

	// Median-ish thresholds so the filters actually split the corpus.
	var infSum, domSum float64
	slot, _ := f.res.DomainSlot(dom)
	nd := len(d.Domains)
	for i := range d.Bloggers {
		infSum += d.Influence[i]
		domSum += d.DomainScores[i*nd+slot]
	}
	infThresh := infSum / float64(len(d.Bloggers))
	domThresh := domSum / float64(len(d.Bloggers))

	q := Bloggers().
		Where(And(
			F(FieldInfluence).Gt(infThresh),
			Or(F(DomainKey(dom)).Ge(domThresh), F(FieldPosts).Ge(10)),
			Not(F(FieldGL).Lt(0)),
		)).
		OrderBy(Desc(DomainKey(dom)), Asc(FieldInfluence)).
		Limit(8).Offset(1).Build()
	r := mustExecute(t, q)

	// Naive reference.
	type ref struct {
		id       string
		domScore float64
		inf      float64
	}
	var matched []ref
	for i, b := range d.Bloggers {
		inf := d.Influence[i]
		ds := d.DomainScores[i*nd+slot]
		posts := float64(f.posts[b])
		if inf > infThresh && (ds >= domThresh || posts >= 10) && !(d.GL[i] < 0) {
			matched = append(matched, ref{id: string(b), domScore: ds, inf: inf})
		}
	}
	if r.Total != len(matched) {
		t.Fatalf("total = %d, want %d", r.Total, len(matched))
	}
	if len(matched) < 3 {
		t.Fatalf("degenerate fixture: only %d matches", len(matched))
	}
	// Sort: domain desc, influence asc, id asc.
	for i := 0; i < len(matched); i++ {
		for j := i + 1; j < len(matched); j++ {
			a, b := matched[i], matched[j]
			swap := false
			switch {
			case a.domScore != b.domScore:
				swap = a.domScore < b.domScore
			case a.inf != b.inf:
				swap = a.inf > b.inf
			default:
				swap = a.id > b.id
			}
			if swap {
				matched[i], matched[j] = matched[j], matched[i]
			}
		}
	}
	end := 1 + 8
	if end > len(matched) {
		end = len(matched)
	}
	window := matched[1:end]
	if len(r.Rows) != len(window) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(window))
	}
	for i, w := range window {
		if r.Rows[i].ID != w.id || r.Rows[i].Score != w.domScore {
			t.Fatalf("row %d = %+v, want %+v", i, r.Rows[i], w)
		}
	}
}

// TestPostPredicates exercises the post-side facets: time range, author
// equality, comment count, novelty.
func TestPostPredicates(t *testing.T) {
	f := testFixture(t)
	d := f.res.Dense()
	posts := make([]*blog.Post, len(d.Posts))
	for i, pid := range d.Posts {
		posts[i] = f.c.Post(pid)
	}
	// Pick a window covering roughly the middle half of the corpus span.
	var lo, hi time.Time
	for _, p := range posts {
		if lo.IsZero() || p.Posted.Before(lo) {
			lo = p.Posted
		}
		if p.Posted.After(hi) {
			hi = p.Posted
		}
	}
	span := hi.Sub(lo)
	from := lo.Add(span / 4)
	to := hi.Add(-span / 4)
	author := posts[0].Author

	q := Posts().
		Where(And(
			F(FieldPosted).Since(from),
			F(FieldPosted).Until(to),
			Or(F(FieldAuthor).Is(string(author)), F(FieldComments).Ge(2)),
			F(FieldNovelty).Gt(0),
		)).
		OrderBy(Desc(FieldQuality)).
		Limit(1000).Build()
	r := mustExecute(t, q)
	if r.Plan != "scan/posts" {
		t.Fatalf("plan = %q", r.Plan)
	}

	want := 0
	for i, p := range posts {
		inWindow := !p.Posted.Before(from) && !p.Posted.After(to)
		if inWindow && (p.Author == author || len(p.Comments) >= 2) && d.Novelty[i] > 0 {
			want++
		}
	}
	if r.Total != want || len(r.Rows) != want {
		t.Fatalf("total = %d rows = %d, want %d", r.Total, len(r.Rows), want)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Score > r.Rows[i-1].Score {
			t.Fatalf("rows not descending by quality at %d", i)
		}
	}
}

// TestProjection: selected fields ride along as a per-row field map.
func TestProjection(t *testing.T) {
	f := testFixture(t)
	r := mustExecute(t, Bloggers().Select(FieldGL, FieldPosts).Limit(3).Build())
	for _, row := range r.Rows {
		bi, ok := f.res.BloggerIndex(blog.BloggerID(row.ID))
		if !ok {
			t.Fatalf("unknown row ID %q", row.ID)
		}
		d := f.res.Dense()
		if row.Fields[FieldGL] != d.GL[bi] {
			t.Fatalf("gl = %v, want %v", row.Fields[FieldGL], d.GL[bi])
		}
		if int(row.Fields[FieldPosts]) != f.posts[blog.BloggerID(row.ID)] {
			t.Fatalf("posts = %v", row.Fields[FieldPosts])
		}
	}
}

// TestDomainsEntity: per-domain aggregates with filtering and ordering.
func TestDomainsEntity(t *testing.T) {
	f := testFixture(t)
	r := mustExecute(t, Domains().Select(FieldCount, FieldMean).Limit(100).Build())
	if r.Plan != "domains" {
		t.Fatalf("plan = %q", r.Plan)
	}
	d := f.res.Dense()
	if len(r.Rows) != len(d.Domains) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(d.Domains))
	}
	// Reference: sum per domain.
	nd := len(d.Domains)
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	for bi := range d.Bloggers {
		for di, s := range d.DomainScores[bi*nd : (bi+1)*nd] {
			if s != 0 {
				sums[d.Domains[di]] += s
				counts[d.Domains[di]]++
			}
		}
	}
	for i, row := range r.Rows {
		if row.Score != sums[row.ID] {
			t.Fatalf("sum(%s) = %v, want %v", row.ID, row.Score, sums[row.ID])
		}
		if row.Fields[FieldCount] != counts[row.ID] {
			t.Fatalf("count(%s) = %v, want %v", row.ID, row.Fields[FieldCount], counts[row.ID])
		}
		if i > 0 && row.Score > r.Rows[i-1].Score {
			t.Fatal("domain rows not descending by sum")
		}
	}

	// Filter: domains with at least one contributing blogger.
	r = mustExecute(t, Domains().Where(F(FieldCount).Gt(0)).OrderBy(Asc(FieldMean)).Limit(100).Build())
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Score < r.Rows[i-1].Score {
			t.Fatal("domain rows not ascending by mean")
		}
	}
}

// TestAggregatePerDomain: grouping filtered posts per domain.
func TestAggregatePerDomain(t *testing.T) {
	f := testFixture(t)
	r := mustExecute(t, Posts().
		Where(F(FieldComments).Ge(1)).
		AggregatePerDomain(AggMean, FieldNovelty).
		Limit(100).Build())
	if r.Plan != "aggregate" {
		t.Fatalf("plan = %q", r.Plan)
	}
	d := f.res.Dense()
	nd := len(d.Domains)
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	for i, pid := range d.Posts {
		if len(f.c.Post(pid).Comments) < 1 {
			continue
		}
		for di, w := range d.PostDomains[i*nd : (i+1)*nd] {
			if w != 0 {
				counts[d.Domains[di]]++
				sums[d.Domains[di]] += d.Novelty[i]
			}
		}
	}
	for _, row := range r.Rows {
		want := 0.0
		if counts[row.ID] > 0 {
			want = sums[row.ID] / counts[row.ID]
		}
		if row.Score != want {
			t.Fatalf("mean novelty(%s) = %v, want %v", row.ID, row.Score, want)
		}
	}
}

// TestValidation rejects malformed queries with useful errors.
func TestValidation(t *testing.T) {
	f := testFixture(t)
	for name, q := range map[string]*Query{
		"bad entity":            {Entity: "users"},
		"unknown field":         Bloggers().Where(F("karma").Gt(1)).Build(),
		"post field on blogger": Bloggers().Where(F(FieldNovelty).Gt(0)).Build(),
		"string op on number":   Bloggers().Where(F(FieldInfluence).Is("x")).Build(),
		"author lt":             Posts().Where(&Predicate{Cmp: &Comparison{Field: Field{Name: FieldAuthor}, Op: OpLt, Kind: kindString, Str: "a"}}).Build(),
		"interest no weights":   Bloggers().OrderBy(Desc(FieldInterest)).Build(),
		"weights on plain":      Bloggers().OrderBy(Order{Field: Field{Name: FieldInfluence, Weights: map[string]float64{"x": 1}}, Desc: true}).Build(),
		"aggregate on domains":  Domains().AggregatePerDomain(AggSum, "").Build(),
		"aggregate + orderBy":   Posts().AggregatePerDomain(AggSum, "").OrderBy(Desc(FieldInfluence)).Build(),
		"aggregate + select":    Posts().AggregatePerDomain(AggSum, "").Select(FieldQuality).Build(),
		"negative offset":       Bloggers().Offset(-1).Build(),
		"negative limit":        Bloggers().Limit(-5).Build(),
		"select author":         Posts().Select(FieldAuthor).Build(),
		"empty predicate":       Bloggers().Where(&Predicate{}).Build(),
	} {
		if _, err := Execute(f.c, f.res, q); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestDecodeRoundTrip: a builder query marshals to wire JSON that decodes
// back to the same normalized form.
func TestDecodeRoundTrip(t *testing.T) {
	dom := someDomain(t)
	q := Bloggers().
		Where(And(F(FieldInfluence).Gt(0.1), F(DomainKey(dom)).Ge(0.01))).
		OrderBy(DescInterest(map[string]float64{dom: 1})).
		Select(FieldGL).
		Limit(5).Offset(2).Build()
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%s): %v", data, err)
	}
	k1, err := q.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := back.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("keys differ:\n%s\n%s", k1, k2)
	}
}

// TestDecodeStrict: typos and malformed values must be decode errors,
// never silently ignored clauses.
func TestDecodeStrict(t *testing.T) {
	for name, body := range map[string]string{
		"unknown top-level": `{"entity":"bloggers","wherre":{}}`,
		"unknown pred key":  `{"entity":"bloggers","where":{"feild":"influence","op":"gt","value":1}}`,
		"bad op":            `{"entity":"bloggers","where":{"field":"influence","op":"gte","value":1}}`,
		"missing value":     `{"entity":"bloggers","where":{"field":"influence","op":"gt"}}`,
		"bool value":        `{"entity":"bloggers","where":{"field":"influence","op":"gt","value":true}}`,
		"bad time":          `{"entity":"posts","where":{"field":"posted","op":"ge","value":"yesterday"}}`,
		"mixed node":        `{"entity":"bloggers","where":{"and":[],"field":"influence","op":"gt","value":1}}`,
		"trailing data":     `{"entity":"bloggers"} {"entity":"posts"}`,
		"not json":          `{"entity":`,
		"array root":        `[{"entity":"bloggers"}]`,
	} {
		if _, err := Decode([]byte(body)); err == nil {
			t.Errorf("%s: no error for %s", name, body)
		}
	}
	// And the happy path.
	q, err := Decode([]byte(`{
		"entity": "posts",
		"where": {"and": [
			{"field": "posted", "op": "ge", "value": "2009-01-01T00:00:00Z"},
			{"not": {"field": "author", "op": "eq", "value": "blogger0001"}},
			{"or": [
				{"field": "novelty", "op": "gt", "value": 0.5},
				{"field": "sentiment", "op": "ge", "value": 0.4}
			]}
		]},
		"orderBy": [{"field": "quality", "desc": true}],
		"select": ["novelty", "comments"],
		"limit": 7
	}`))
	if err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	f := testFixture(t)
	if _, err := Execute(f.c, f.res, q); err != nil {
		t.Fatalf("decoded query failed to execute: %v", err)
	}
}

// TestDeepNesting: predicate depth is bounded, not stack-fatal.
func TestDeepNesting(t *testing.T) {
	body := `{"entity":"bloggers","where":` +
		strings.Repeat(`{"not":`, 200) +
		`{"field":"influence","op":"gt","value":0}` +
		strings.Repeat(`}`, 200) + `}`
	if _, err := Decode([]byte(body)); err == nil {
		t.Fatal("deep nesting accepted")
	}
}

// TestScanAllocsBounded asserts the headline property of the planned
// executor: the filtered, ordered top-k path allocates O(plan + k) —
// no per-blogger maps or slices — so allocations do not grow with the
// corpus.
func TestScanAllocsBounded(t *testing.T) {
	small, _, err := synth.Generate(synth.Config{Seed: 11, Bloggers: 50, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := synth.Generate(synth.Config{Seed: 11, Bloggers: 400, Posts: 1600})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 20, 8))
	if err != nil {
		t.Fatal(err)
	}
	an, err := influence.NewAnalyzer(influence.Config{}, nb)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(corpus *blog.Corpus) float64 {
		c := corpus.Snapshot()
		res, err := an.AnalyzeCached(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		dom := res.Domains()[0]
		q := Bloggers().
			Where(And(F(FieldInfluence).Gt(0), F(DomainKey(dom)).Ge(0))).
			OrderBy(Desc(DomainKey(dom))).
			Limit(10).Build()
		// Warm the lazy rankings etc. once.
		if _, err := Execute(c, res, q); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Execute(c, res, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocsSmall := measure(small)
	allocsBig := measure(big)
	if allocsBig > allocsSmall+4 {
		t.Fatalf("allocations grow with corpus size: %v (50 bloggers) vs %v (400 bloggers)", allocsSmall, allocsBig)
	}
	if allocsBig > 30 {
		t.Fatalf("filtered top-k allocates too much: %v allocs/op", allocsBig)
	}
}

// TestResultJSONShape pins the wire shape of a result row.
func TestResultJSONShape(t *testing.T) {
	r := mustExecute(t, Bloggers().Limit(1).Select(FieldGL).Build())
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"entity":"bloggers"`, `"rows":[{"id":`, `"score":`, `"fields":{"gl":`, `"total":`, `"plan":"ranked/general"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("result JSON missing %s:\n%s", want, data)
		}
	}
}

// TestUnknownDomainConsistency: ranked and scan paths agree on unknown
// domains (everyone scores zero, ID order).
func TestUnknownDomainConsistency(t *testing.T) {
	ranked := mustExecute(t, Bloggers().OrderBy(Desc(DomainKey("NoSuchDomain"))).Limit(5).Build())
	scanned := mustExecute(t, Bloggers().
		Where(F(FieldInfluence).Ge(0)).
		OrderBy(Desc(DomainKey("NoSuchDomain"))).
		Limit(5).Build())
	if ranked.Plan == scanned.Plan {
		t.Fatalf("expected distinct plans, both %q", ranked.Plan)
	}
	if fmt.Sprint(ranked.Rows) != fmt.Sprint(scanned.Rows) {
		t.Fatalf("plans disagree:\nranked:  %v\nscanned: %v", ranked.Rows, scanned.Rows)
	}
}
