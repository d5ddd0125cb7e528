package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/query"
	"mass/internal/trend"
)

// TestSnapshotQueryAcrossGenerations: each generation's System answers
// from its own corpus, so a held snapshot keeps doing so after newer
// generations publish, and a stale generation's rows are never served for
// a newer one.
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

// TestGenerationMemoIsolation: the trend memo and the query execution
// count live on the generation they describe. Within one generation a
// repeated trend config returns the same pointer and a repeated query an
// equal result (queries are memoized per cluster view, not here); a new
// generation computes afresh; and a reader pinning the older generation,
// also while the flush that replaces it runs, keeps hitting that
// generation's trend memo and never touches the live one's state.
func TestGenerationMemoIsolation(t *testing.T) {
	e, err := NewEngine(blog.Figure1Corpus(), EngineOptions{
		FlushEvery:    1 << 20,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	q := query.Bloggers().Limit(5).Build()
	cfg := trend.Config{Buckets: 4, TopEmerging: 3}
	read := func(s *Snapshot) (*query.Result, *trend.Report, error) {
		r, err := s.Query(q)
		if err != nil {
			return nil, nil, err
		}
		tr, err := s.Trends(cfg)
		return r, tr, err
	}
	old := e.Current()
	r1, t1, err := read(old)
	if err != nil {
		t.Fatal(err)
	}
	if r, tr, err := read(old); err != nil || !reflect.DeepEqual(r, r1) || tr != t1 {
		t.Fatalf("repeated reads within a generation must return an equal result and the memoized report (err %v)", err)
	}

	// A reader pins the old generation while the writer publishes a new one.
	stop := make(chan struct{})
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r, tr, err := read(old); err != nil || !reflect.DeepEqual(r, r1) || tr != t1 {
				errs <- fmt.Errorf("pinned generation stopped serving its own state (err %v)", err)
				return
			}
		}
	}()
	err = e.AddBatch(Batch{Posts: []*blog.Post{{ID: "memo-gen2", Author: "Zoe", Body: "a brand new basketball report",
		Posted: time.Date(2009, 6, 8, 12, 0, 0, 0, time.UTC)}}})
	if err == nil {
		err = e.Refresh(context.Background())
	}
	if err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	live := e.Current()
	r2, t2, err := read(live)
	rOld, tOld, errOld := read(old) // concurrently with the pinned reader
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err != nil || errOld != nil {
		t.Fatal(err, errOld)
	}
	if !reflect.DeepEqual(rOld, r1) || tOld != t1 {
		t.Fatal("a second reader of the pinned generation missed its state")
	}
	if live == old || live.QueryCache() == old.QueryCache() {
		t.Fatal("the new generation must carry its own query count")
	}
	if reflect.DeepEqual(r2, r1) || t2 == t1 {
		t.Fatal("a new generation must compute afresh, not serve the old generation's results")
	}

	// The old generation's reader counts on its own generation: a query
	// there executes there, and the live count does not move.
	liveComputes, oldComputes := live.QueryCache().Computes(), old.QueryCache().Computes()
	if _, err := old.Query(query.Posts().Limit(3).Build()); err != nil {
		t.Fatal(err)
	}
	if got := old.QueryCache().Computes(); got != oldComputes+1 {
		t.Fatalf("old generation computes = %d, want %d (one per execution)", got, oldComputes+1)
	}
	if got := live.QueryCache().Computes(); got != liveComputes {
		t.Fatalf("a read of the old generation touched the live count: computes %d -> %d", liveComputes, got)
	}
	if r, tr, err := read(live); err != nil || !reflect.DeepEqual(r, r2) || tr != t2 {
		t.Fatalf("the live generation lost its state (err %v)", err)
	}
}
