package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
)

// deltaEngineOptions keeps the background flusher quiet (huge thresholds)
// so each Refresh below is one deliberate flush, and raises the delta
// fallback bound so link-only flushes deterministically take the push path.
func deltaEngineOptions() EngineOptions {
	opts := EngineOptions{
		FlushEvery:    1 << 30,
		FlushInterval: time.Hour,
	}
	opts.Influence.PageRank.FallbackMass = 0.5
	return opts
}

// addFreshLink adds one link the engine's corpus does not already have
// (engine AddLink dedups, and only a fresh edge appends a Link record, so
// the Links counter reveals whether an edge was new).
func addFreshLink(t *testing.T, e *Engine, ids []blog.BloggerID, round int) {
	t.Helper()
	for i := 0; i < len(ids)*len(ids); i++ {
		from := ids[(round*7+i)%len(ids)]
		to := ids[(round*13+i*3+1)%len(ids)]
		if from == to {
			continue
		}
		before := e.Status().Links
		if err := e.AddBatch(Batch{Links: []blog.Link{{From: from, To: to}}}); err != nil {
			t.Fatal(err)
		}
		if e.Status().Links > before {
			return
		}
	}
	t.Fatal("no fresh edge available")
}

// TestEngineDeltaCounters pins the cumulative EngineStatus counters across
// the three GL paths: link-only flush → delta, node-set change → fallback,
// link-only again → delta re-armed.
func TestEngineDeltaCounters(t *testing.T) {
	e := startEngine(t, synthCorpus(t, 51, 40, 120), deltaEngineOptions())
	ids := e.Current().Corpus().BloggerIDs()

	st := e.Status()
	if st.PageRankDelta != 0 || st.PageRankFallback != 0 || st.PageRankPushed != 0 {
		t.Fatalf("fresh engine must start with zero delta counters: %+v", st)
	}

	// Link-only flush: the push solver absorbs it.
	addFreshLink(t, e, ids, 0)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = e.Status()
	if st.PageRankDelta != 1 || st.PageRankFallback != 0 {
		t.Fatalf("link-only flush must count one delta solve: %+v", st)
	}
	if st.PageRankPushed == 0 {
		t.Fatal("delta solve must report pushed nodes")
	}
	pushed := st.PageRankPushed

	// Node-set change: full invalidation, counted as a fallback.
	if err := e.AddBatch(Batch{Bloggers: []*blog.Blogger{{ID: "delta-counter-newcomer"}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddBatch(Batch{Links: []blog.Link{{From: "delta-counter-newcomer", To: ids[0]}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = e.Status()
	if st.PageRankDelta != 1 || st.PageRankFallback != 1 {
		t.Fatalf("node-set flush must count one fallback, delta unchanged: %+v", st)
	}
	if st.PageRankPushed != pushed {
		t.Fatalf("fallback must not advance the pushed counter: %d vs %d", st.PageRankPushed, pushed)
	}

	// Delta path re-arms after the fallback rebuilt the push state.
	addFreshLink(t, e, ids, 1)
	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = e.Status()
	if st.PageRankDelta != 2 || st.PageRankFallback != 1 {
		t.Fatalf("delta path must re-arm after a fallback: %+v", st)
	}
	if st.PageRankPushed <= pushed {
		t.Fatalf("second delta solve must advance the pushed counter: %d vs %d", st.PageRankPushed, pushed)
	}
}

// TestEngineDeltaChurnRace exercises the overlay machinery under -race:
// link churn (overlay appends and compactions), occasional node-set changes
// (fresh-base rebuilds), explicit refreshes, and readers walking LinkCSR /
// LinkView / Status on whatever snapshot is current, all concurrently with
// the background flusher.
func TestEngineDeltaChurnRace(t *testing.T) {
	opts := EngineOptions{
		FlushEvery:    4,
		FlushInterval: 10 * time.Millisecond,
	}
	opts.Influence.PageRank.FallbackMass = 0.5
	e := startEngine(t, synthCorpus(t, 53, 30, 100), opts)
	base := e.Current().Corpus().BloggerIDs()

	const writers, readers, perWriter = 3, 3, 40
	errs := make(chan error, writers+readers+1)
	stop := make(chan struct{})

	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				from := base[(g*17+i)%len(base)]
				to := base[(g*5+i*3+1)%len(base)]
				if from != to {
					if err := e.AddBatch(Batch{Links: []blog.Link{{From: from, To: to}}}); err != nil {
						errs <- err
						return
					}
				}
				if i%13 == 0 {
					// Node-set change: forces the fresh-base path under the
					// same churn.
					id := blog.BloggerID(fmt.Sprintf("churn-%d-%d", g, i))
					if err := e.AddBatch(Batch{Bloggers: []*blog.Blogger{{ID: id}}}); err != nil {
						errs <- err
						return
					}
					if err := e.AddBatch(Batch{Links: []blog.Link{{From: id, To: base[i%len(base)]}}}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}

	var loopWG sync.WaitGroup
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Refresh(context.Background()); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		loopWG.Add(1)
		go func() {
			defer loopWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Current()
				c := s.Corpus()
				v := c.LinkViewFrom(nil)
				if v.CSR().NumNodes() != c.NumBloggers() {
					errs <- fmt.Errorf("snapshot view has %d nodes, corpus %d",
						v.CSR().NumNodes(), c.NumBloggers())
					return
				}
				_ = c.LinkCSR()
				_ = e.Status()
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	loopWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := e.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Current().Corpus().Validate(); err != nil {
		t.Fatal(err)
	}
	// The final graph must agree edge-for-edge with a cold rebuild.
	final := e.Current().Corpus()
	flat := final.LinkCSR()
	if flat.NumNodes() != final.NumBloggers() {
		t.Fatalf("final view has %d nodes, corpus %d", flat.NumNodes(), final.NumBloggers())
	}
}
