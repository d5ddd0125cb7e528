package core

import (
	"context"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/query"
)

// TestSnapshotQueryAcrossGenerations: each generation's System carries
// its own seq into the shared query cache, so a held snapshot keeps
// answering from its own corpus after newer generations publish, and a
// stale generation's cached rows are never served for a newer one.
func TestSnapshotQueryAcrossGenerations(t *testing.T) {
	e, err := NewEngine(blog.Figure1Corpus(), EngineOptions{
		FlushEvery:    1 << 20,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	q := query.Posts().OrderBy(query.Asc(query.FieldInfluence)).Limit(100).Build()
	snap1 := e.Current()
	r1, err := snap1.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	if err := e.AddBatch(Batch{Posts: []*blog.Post{{ID: "gen2", Author: "Zoe", Body: "a brand new basketball report"}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap2 := e.Current()
	if snap2.Seq <= snap1.Seq {
		t.Fatalf("seq did not advance: %d -> %d", snap1.Seq, snap2.Seq)
	}
	r2, err := snap2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Total != r1.Total+1 {
		t.Fatalf("generation 2 total = %d, want %d (stale cached result served?)", r2.Total, r1.Total+1)
	}
	// The held generation-1 snapshot still answers from its own corpus.
	r1again, err := snap1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1again.Total != r1.Total {
		t.Fatalf("generation 1 snapshot drifted: total %d -> %d", r1.Total, r1again.Total)
	}
}
