package query

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"mass/internal/blog"
	"mass/internal/influence"
)

// virtualOwner assigns a blogger ID to one of nparts virtual shards.
func virtualOwner(id string, nparts int) int {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(nparts))
}

// virtualOwners partitions res's bloggers into nparts disjoint owned-row
// masks over the SAME snapshot; posts follow their author's row, as on a
// real cluster where a post lives on its author's shard. Because every
// virtual shard sees identical dense scores, running ExecuteShard once
// per part and merging must reproduce the single-engine Execute result
// exactly — this isolates the scatter/merge machinery from per-shard
// analysis drift.
func virtualOwners(res *influence.Result, nparts int) []*Owned {
	owners := make([]*Owned, nparts)
	for p := range owners {
		owners[p] = NewOwned(res.Dense().Bloggers, func(id blog.BloggerID) bool {
			return virtualOwner(string(id), nparts) == p
		})
	}
	return owners
}

func scatterScan(t *testing.T, q *Query, nparts int) *Result {
	t.Helper()
	f := testFixture(t)
	owners := virtualOwners(f.res, nparts)
	parts := make([]*ShardResult, nparts)
	for p := 0; p < nparts; p++ {
		var err error
		parts[p], err = ExecuteShard(f.c, f.res, q, owners[p])
		if err != nil {
			t.Fatalf("ExecuteShard part %d: %v", p, err)
		}
	}
	merged, err := MergeShards(parts, q)
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	return merged
}

// TestShardScanMergeExact: scatter + k-way merge over disjoint ownership
// partitions must equal the single-engine scan row-for-row (IDs, scores,
// projected fields, totals) for every query shape that hits the scan path.
func TestShardScanMergeExact(t *testing.T) {
	dom := someDomain(t)
	queries := map[string]*Query{
		"top influence": Bloggers().OrderBy(Desc(FieldInfluence)).Limit(15).Build(),
		"filtered gl": Bloggers().
			Where(F(FieldGL).Gt(0)).
			OrderBy(Desc(FieldInfluence)).Limit(10).Build(),
		"domain key offset": Bloggers().
			OrderBy(Desc(DomainKey(dom))).Limit(7).Offset(3).
			Select(FieldAP, FieldGL).Build(),
		"asc posts": Bloggers().OrderBy(Asc(FieldPosts)).Limit(12).Build(),
		"posts by quality": Posts().
			Where(F(FieldQuality).Ge(0)).
			OrderBy(Desc(FieldQuality)).Limit(20).Build(),
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			want := mustExecute(t, q)
			for _, nparts := range []int{1, 2, 5} {
				got := scatterScan(t, q, nparts)
				if got.Total != want.Total {
					t.Fatalf("%d parts: total %d, want %d", nparts, got.Total, want.Total)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%d parts: rows diverge\n got: %+v\nwant: %+v", nparts, got.Rows, want.Rows)
				}
			}
		})
	}
}

// TestShardScanDegraded: a nil part (a shard that missed its deadline)
// must drop out of the merge, not wedge or corrupt it.
func TestShardScanDegraded(t *testing.T) {
	f := testFixture(t)
	q := Bloggers().OrderBy(Desc(FieldInfluence)).Limit(10).Build()
	owners := virtualOwners(f.res, 3)
	parts := make([]*ShardResult, 3)
	for p := 0; p < 3; p++ {
		var err error
		parts[p], err = ExecuteShard(f.c, f.res, q, owners[p])
		if err != nil {
			t.Fatal(err)
		}
	}
	full, err := MergeShards(parts, q)
	if err != nil {
		t.Fatal(err)
	}
	lost := parts[1].Total
	parts[1] = nil
	partial, err := MergeShards(parts, q)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Total != full.Total-lost {
		t.Fatalf("degraded total %d, want %d", partial.Total, full.Total-lost)
	}
	for _, r := range partial.Rows {
		if virtualOwner(r.ID, 3) == 1 {
			t.Fatalf("row %q came from the dropped part", r.ID)
		}
	}
}

// rowsAlmostEqual compares row lists allowing last-ulp drift: merging
// per-shard partials reassociates float sums, so values can differ from
// the single-pass result by ~1 ulp even though the math is the same.
func rowsAlmostEqual(t *testing.T, got, want []Row) {
	t.Helper()
	const tol = 1e-9
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
	}
	close := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		m := 1.0
		if b > m || -b > m {
			m = b
			if m < 0 {
				m = -m
			}
		}
		return d <= tol*m
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("row %d: ID %q, want %q", i, got[i].ID, want[i].ID)
		}
		if !close(got[i].Score, want[i].Score) {
			t.Fatalf("row %d (%s): score %v, want %v", i, got[i].ID, got[i].Score, want[i].Score)
		}
		if len(got[i].Fields) != len(want[i].Fields) {
			t.Fatalf("row %d (%s): fields %v, want %v", i, got[i].ID, got[i].Fields, want[i].Fields)
		}
		for k, wv := range want[i].Fields {
			if gv, ok := got[i].Fields[k]; !ok || !close(gv, wv) {
				t.Fatalf("row %d (%s): field %s = %v, want %v", i, got[i].ID, k, gv, wv)
			}
		}
	}
}

// TestShardAggregateMergeExact: per-shard (count, sum) slabs merged by
// name union must reproduce the single-engine aggregate values for
// count, sum and mean.
func TestShardAggregateMergeExact(t *testing.T) {
	f := testFixture(t)
	for name, q := range map[string]*Query{
		"count bloggers": Bloggers().AggregatePerDomain(AggCount, "").Limit(50).Build(),
		"sum posts":      Posts().AggregatePerDomain(AggSum, "").Limit(50).Build(),
		"mean influence": Bloggers().AggregatePerDomain(AggMean, FieldInfluence).Limit(50).Build(),
		"filtered count": Posts().
			Where(F(FieldQuality).Gt(0)).
			AggregatePerDomain(AggCount, "").Limit(50).Build(),
	} {
		t.Run(name, func(t *testing.T) {
			want := mustExecute(t, q)
			owners := virtualOwners(f.res, 3)
			parts := make([]*ShardResult, 3)
			for p := 0; p < 3; p++ {
				var err error
				parts[p], err = ExecuteShard(f.c, f.res, q, owners[p])
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := MergeShards(parts, q)
			if err != nil {
				t.Fatal(err)
			}
			rowsAlmostEqual(t, got.Rows, want.Rows)
		})
	}
}

// TestShardDomainsMergeExact: domain-entity partials merged across
// ownership partitions equal the single-engine domains executor.
func TestShardDomainsMergeExact(t *testing.T) {
	f := testFixture(t)
	for name, q := range map[string]*Query{
		"default":        Domains().Limit(50).Build(),
		"by mean":        Domains().OrderBy(Desc(FieldMean)).Limit(50).Build(),
		"filtered count": Domains().Where(F(FieldCount).Gt(1)).Limit(50).Build(),
	} {
		t.Run(name, func(t *testing.T) {
			want := mustExecute(t, q)
			owners := virtualOwners(f.res, 4)
			parts := make([]*ShardResult, 4)
			for p := 0; p < 4; p++ {
				var err error
				parts[p], err = ExecuteShard(f.c, f.res, q, owners[p])
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := MergeShards(parts, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Total != want.Total {
				t.Fatalf("total %d, want %d", got.Total, want.Total)
			}
			rowsAlmostEqual(t, got.Rows, want.Rows)
		})
	}
}

// maskCases are the owned-row masks the ranked-part tests run under: no
// mask, every row, no row, and three disjoint virtual shards.
func maskCases(t *testing.T) map[string]*Owned {
	t.Helper()
	f := testFixture(t)
	bloggers := f.res.Dense().Bloggers
	cases := map[string]*Owned{
		"nil":       nil,
		"all true":  NewOwned(bloggers, func(blog.BloggerID) bool { return true }),
		"all false": NewOwned(bloggers, func(blog.BloggerID) bool { return false }),
	}
	for p, own := range virtualOwners(f.res, 3) {
		cases[fmt.Sprintf("part %d/3", p)] = own
	}
	return cases
}

// TestRankedPartMatchesScanPart: a ranked part (a walk of the
// precomputed ranking) must equal the masked scan part of the same
// compiled query in rows, keys and total, under every mask — including
// a domain the generation never interned and windows past the owned
// count.
func TestRankedPartMatchesScanPart(t *testing.T) {
	f := testFixture(t)
	queries := map[string]*Query{
		"general":             Bloggers().OrderBy(Desc(FieldInfluence)).Limit(10).Build(),
		"general select":      Bloggers().OrderBy(Desc(FieldInfluence)).Limit(5).Offset(3).Select(FieldAP, FieldGL, FieldPosts).Build(),
		"general past owned":  Bloggers().OrderBy(Desc(FieldInfluence)).Limit(10).Offset(len(f.res.Dense().Bloggers)).Build(),
		"unknown domain":      Bloggers().OrderBy(Desc(DomainKey("NoSuchDomain"))).Limit(6).Offset(2).Build(),
		"unknown domain wide": Bloggers().OrderBy(Desc(DomainKey("NoSuchDomain"))).Limit(1000).Build(),
	}
	for _, d := range f.res.Domains() {
		queries["domain "+d] = Bloggers().OrderBy(Desc(DomainKey(d))).Limit(7).Offset(2).Select(FieldInfluence).Build()
		queries["domain past owned "+d] = Bloggers().OrderBy(Desc(DomainKey(d))).Limit(4).Offset(25).Build()
	}
	for qname, q := range queries {
		e, err := compile(f.c, f.res, q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(e.plan, "ranked/") {
			t.Fatalf("%s: plan %q, want a ranked plan", qname, e.plan)
		}
		if ranked := e.rankOrder() != nil; ranked == (qname == "unknown domain" || qname == "unknown domain wide") {
			t.Fatalf("%s: has ranking = %v", qname, ranked)
		}
		for mname, own := range maskCases(t) {
			got, want := e.part(own), e.scanPart(own)
			if got.Total != want.Total || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s, mask %s: ranked part diverges from the scan part\n got: total %d %+v\nwant: total %d %+v",
					qname, mname, got.Total, got.Rows, want.Total, want.Rows)
			}
		}
	}
}

// TestRankedPartScansPrefix pins the work a ranked part does: a top-10
// walks only the ranking's prefix up to its tenth owned row, far fewer
// rows than the part holds, so a silent fallback to the full scan fails
// here.
func TestRankedPartScansPrefix(t *testing.T) {
	f := testFixture(t)
	rows := len(f.res.Dense().Bloggers)
	q := Bloggers().OrderBy(Desc(FieldInfluence)).Limit(10).Build()
	for mname, own := range maskCases(t) {
		part, err := ExecuteShard(f.c, f.res, q, own)
		if err != nil {
			t.Fatal(err)
		}
		// The walk stops at the tenth owned row of the ranking, or at once
		// when the part owns nothing.
		k := 10
		if own != nil {
			k = min(k, own.Count)
		}
		want, owned := 0, 0
		for _, i := range f.res.GeneralOrder() {
			if owned == k {
				break
			}
			want++
			if own == nil || own.Rows[i] {
				owned++
			}
		}
		if part.Scanned != want {
			t.Fatalf("mask %s: scanned %d rows, want %d", mname, part.Scanned, want)
		}
		if own == nil && part.Scanned*5 > rows {
			t.Fatalf("unmasked top-10 scanned %d of %d rows", part.Scanned, rows)
		}
	}
	scan, err := ExecuteShard(f.c, f.res, Bloggers().Where(F(FieldInfluence).Ge(0)).OrderBy(Desc(FieldInfluence)).Limit(10).Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Scanned != rows {
		t.Fatalf("filtered scan inspected %d rows, want all %d", scan.Scanned, rows)
	}
}
