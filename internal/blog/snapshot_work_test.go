package blog_test

import (
	"testing"

	"mass/internal/synth"
)

// snapshotAllocBudget bounds the allocations of one Corpus.Snapshot at
// serving scale. A snapshot copies the two entity maps and the link
// slice, so its allocations are those of two map clones and do not grow
// with the number of bloggers, posts or links per blogger; a per-blogger
// index copied on every snapshot costs thousands.
const snapshotAllocBudget = 128

// TestSnapshotAllocBudget: a snapshot of a 1200-blogger, 15000-post synth
// corpus stays within snapshotAllocBudget allocations.
func TestSnapshotAllocBudget(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 2010, Bloggers: 1200, Posts: 15000})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { _ = c.Snapshot() })
	t.Logf("%d bloggers, %d posts, %d links: %.0f allocs per snapshot", len(c.Bloggers), len(c.Posts), len(c.Links), allocs)
	if allocs > snapshotAllocBudget {
		t.Fatalf("Snapshot made %.0f allocs, budget %d", allocs, snapshotAllocBudget)
	}
}
