package query

import (
	"hash/fnv"
	"reflect"
	"testing"

	"mass/internal/blog"
)

// virtualOwners partitions the fixture's bloggers into nparts disjoint
// ownership filters over the SAME snapshot. Because every virtual shard
// sees identical dense scores, running ExecuteShard once per part and
// merging must reproduce the single-engine Execute result exactly — this
// isolates the scatter/merge machinery from per-shard analysis drift.
func virtualOwners(nparts int) []func(string) bool {
	owner := func(id string) int {
		h := fnv.New64a()
		h.Write([]byte(id))
		return int(h.Sum64() % uint64(nparts))
	}
	owners := make([]func(string) bool, nparts)
	for p := 0; p < nparts; p++ {
		p := p
		owners[p] = func(id string) bool { return owner(id) == p }
	}
	return owners
}

// postOwners routes each post by its author's owner, mirroring the real
// cluster routing where a post lives on its author's shard.
func postOwners(c *blog.Corpus, owners []func(string) bool) []func(string) bool {
	out := make([]func(string) bool, len(owners))
	for p := range owners {
		bown := owners[p]
		out[p] = func(id string) bool {
			post, ok := c.Posts[blog.PostID(id)]
			if !ok {
				return false
			}
			return bown(string(post.Author))
		}
	}
	return out
}

func scatterScan(t *testing.T, q *Query, nparts int) *Result {
	t.Helper()
	f := testFixture(t)
	owners := virtualOwners(nparts)
	if q.Entity == EntityPosts {
		owners = postOwners(f.c, owners)
	}
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
	owners := virtualOwners(3)
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
		if !owners[0](r.ID) && !owners[2](r.ID) {
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
			owners := virtualOwners(3)
			if q.Entity == EntityPosts {
				owners = postOwners(f.c, owners)
			}
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
			owners := virtualOwners(4)
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
