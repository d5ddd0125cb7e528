package blog

import "testing"

func snapshotFixture(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus()
	for _, id := range []BloggerID{"ann", "bob"} {
		if err := c.AddBlogger(&Blogger{ID: id, Name: string(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddPost(&Post{ID: "p1", Author: "ann", Body: "hello world"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink("ann", "bob"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSnapshotIsolatedFromMutation(t *testing.T) {
	c := snapshotFixture(t)
	snap := c.Snapshot()

	if err := c.AddBlogger(&Blogger{ID: "cee"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPost(&Post{ID: "p2", Author: "cee", Body: "late arrival"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddComment("p1", Comment{Commenter: "bob", Text: "nice"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink("bob", "cee"); err != nil {
		t.Fatal(err)
	}
	if err := c.UpsertBlogger(&Blogger{ID: "bob", Profile: "updated"}); err != nil {
		t.Fatal(err)
	}

	if snap.NumBloggers() != 2 || snap.NumPosts() != 1 || len(snap.Links()) != 1 {
		t.Fatalf("snapshot changed shape: %d bloggers, %d posts, %d links",
			snap.NumBloggers(), snap.NumPosts(), len(snap.Links()))
	}
	if got := snap.Post("p1").Comments; len(got) != 0 {
		t.Fatalf("COW violated: comment leaked into snapshot (%v)", got)
	}
	if snap.Blogger("bob").Profile != "" {
		t.Fatal("COW violated: upsert mutated shared blogger")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}

	// The mutable side sees everything.
	if got := c.Posts["p1"].Comments; len(got) != 1 || got[0].Commenter != "bob" {
		t.Fatalf("mutable corpus lost the comment: %v", got)
	}
	if c.Bloggers["bob"].Profile != "updated" {
		t.Fatal("mutable corpus lost the upsert")
	}
	if err := c.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommentErrors(t *testing.T) {
	c := snapshotFixture(t)
	if err := c.AddComment("nope", Comment{Commenter: "bob"}); err == nil {
		t.Fatal("expected error for unknown post")
	}
	if err := c.AddComment("p1", Comment{Commenter: "ghost"}); err == nil {
		t.Fatal("expected error for unknown commenter")
	}
}

func TestUpsertBloggerKeepsExistingFields(t *testing.T) {
	c := snapshotFixture(t)
	// An ID-only upsert (a stub reference) must not erase known fields.
	if err := c.UpsertBlogger(&Blogger{ID: "ann"}); err != nil {
		t.Fatal(err)
	}
	if c.Bloggers["ann"].Name != "ann" {
		t.Fatal("stub upsert erased the name")
	}
	if err := c.UpsertBlogger(&Blogger{ID: "new", Friends: []BloggerID{"ann"}}); err != nil {
		t.Fatal(err)
	}
	if len(c.Bloggers["new"].Friends) != 1 {
		t.Fatal("insert path lost friends")
	}
}
