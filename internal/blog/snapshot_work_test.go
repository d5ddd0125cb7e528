package blog_test

import (
	"maps"
	"runtime"
	"slices"
	"testing"

	"mass/internal/blog"
	"mass/internal/synth"
)

// snapshotBytesBudget bounds the bytes one Corpus.Snapshot allocates
// after a fixed batch of mutations. A generation clones only the overlay
// written since the base, so the figure depends on the batch, not on the
// corpus; a snapshot that copies the entity maps costs about 1 MB on the
// 15,000-post corpus.
const snapshotBytesBudget = 16 << 10

// applyTenMutations lands the same ten mutations on any synth corpus:
// bloggers, posts, comments on a new and on a preloaded post, an upsert
// and links.
func applyTenMutations(t *testing.T, c *blog.Corpus) {
	t.Helper()
	old := slices.Sorted(maps.Keys(c.Posts))[0]
	steps := []func() error{
		func() error { return c.AddBlogger(&blog.Blogger{ID: "fresh-1"}) },
		func() error { return c.AddPost(&blog.Post{ID: "fresh-p1", Author: "blogger0000", Body: "new post"}) },
		func() error { return c.AddPost(&blog.Post{ID: "fresh-p2", Author: "fresh-1", Body: "another"}) },
		func() error { return c.AddComment("fresh-p1", blog.Comment{Commenter: "blogger0001", Text: "hi"}) },
		func() error { return c.AddComment(old, blog.Comment{Commenter: "blogger0002", Text: "late"}) },
		func() error { return c.AddComment(old, blog.Comment{Commenter: "fresh-1", Text: "later"}) },
		func() error { return c.UpsertBlogger(&blog.Blogger{ID: "blogger0003", Profile: "updated"}) },
		func() error { return c.AddLink("blogger0004", "blogger0005") },
		func() error { return c.AddLink("fresh-1", "blogger0000") },
		func() error { return c.AddPost(&blog.Post{ID: "fresh-p3", Author: "blogger0001", Body: "third"}) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
}

// snapshotBytes reports the bytes allocated by one Snapshot call.
func snapshotBytes(c *blog.Corpus) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := c.Snapshot()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotWorkSizeIndependent: after the same ten mutations, a
// snapshot of a ~300-post and of a ~15,000-post synth corpus allocates
// the same bytes, within snapshotBytesBudget.
func TestSnapshotWorkSizeIndependent(t *testing.T) {
	var got [2]uint64
	for i, cfg := range []synth.Config{{Seed: 2010, Bloggers: 30, Posts: 300}, {Seed: 2010, Bloggers: 1200, Posts: 15000}} {
		c, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Snapshot() // the first generation builds the base
		applyTenMutations(t, c)
		got[i] = snapshotBytes(c)
		t.Logf("%d bloggers, %d posts, %d links: %d B per snapshot", len(c.Bloggers), len(c.Posts), len(c.Links), got[i])
		if got[i] > snapshotBytesBudget {
			t.Fatalf("snapshot allocated %d B, budget %d", got[i], snapshotBytesBudget)
		}
	}
	if got[1] > got[0]+1<<10 {
		t.Fatalf("snapshot bytes grow with the corpus: %d B (300 posts) vs %d B (15,000 posts)", got[0], got[1])
	}
}
