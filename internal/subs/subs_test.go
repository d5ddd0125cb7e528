package subs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/query"
	"mass/internal/synth"
)

// genChain builds a sequence of analyzed generations the way the engine
// does: one mutable corpus, each generation a frozen snapshot analyzed
// through the incremental cache.
type genChain struct {
	t      *testing.T
	an     *influence.Analyzer
	cache  *influence.Cache
	corpus *blog.Corpus
	seq    uint64
	prev   *influence.Result
}

func newGenChain(t *testing.T, seed int64, bloggers, posts int) *genChain {
	t.Helper()
	c, _, err := synth.Generate(synth.Config{Seed: seed, Bloggers: bloggers, Posts: posts})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 30, 2011))
	if err != nil {
		t.Fatal(err)
	}
	an, err := influence.NewAnalyzer(influence.Config{Workers: 2}, nb)
	if err != nil {
		t.Fatal(err)
	}
	return &genChain{t: t, an: an, cache: influence.NewCache(), corpus: c}
}

// next mutates the working corpus and publishes the result as the next
// generation. A nil mutate republishes the same state under a new seq.
func (g *genChain) next(mutate func(c *blog.Corpus)) Generation {
	g.t.Helper()
	if mutate != nil {
		mutate(g.corpus)
	}
	frozen := g.corpus.Snapshot()
	res, err := g.an.AnalyzeCached(frozen, g.prev, g.cache)
	if err != nil {
		g.t.Fatal(err)
	}
	g.seq++
	g.prev = res
	return Generation{Seq: g.seq, Query: func(q *query.Query) (*query.Result, bool, error) {
		r, err := query.Execute(frozen, res, q)
		return r, false, err
	}}
}

// addPosts appends n fresh posts (with one comment each) by existing
// authors — the typical live flush.
func addPosts(t *testing.T, round, n int) func(c *blog.Corpus) {
	return func(c *blog.Corpus) {
		t.Helper()
		authors := c.BloggerIDs()
		var maxPosted time.Time
		for _, p := range c.Posts {
			if p.Posted.After(maxPosted) {
				maxPosted = p.Posted
			}
		}
		for i := 0; i < n; i++ {
			pid := blog.PostID(fmt.Sprintf("live-%d-%d", round, i))
			if err := c.AddPost(&blog.Post{
				ID: pid, Author: authors[(round*7+i)%len(authors)],
				Posted: maxPosted.Add(time.Duration(i+1) * time.Minute),
				Body:   fmt.Sprintf("fresh travel notes and sports commentary, round %d issue %d", round, i),
			}); err != nil {
				t.Fatal(err)
			}
			if err := c.AddComment(pid, blog.Comment{
				Commenter: authors[(round*3+i+5)%len(authors)], Text: "great update, thanks",
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func mustDecode(t *testing.T, body string) *query.Query {
	t.Helper()
	q, err := query.Decode([]byte(body))
	if err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return q
}

func resultJSON(t *testing.T, res *query.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// execute runs a fresh full query against one generation.
func execute(t *testing.T, gen Generation, q *query.Query) *query.Result {
	t.Helper()
	n, err := q.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := gen.Query(n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The entity-scan standing queries the replay test sweeps: plans,
// predicates, multi-key orders, pagination and projections, plus the
// newest-posts and domain-ranking shapes a live dashboard subscribes to.
var entityQueries = []string{
	`{"entity":"bloggers"}`,
	`{"entity":"bloggers","orderBy":[{"field":"ap","desc":true}],"limit":5,"select":["ap","gl","posts"]}`,
	`{"entity":"bloggers","where":{"field":"posts","op":"gt","value":2},"orderBy":[{"field":"gl","desc":true},{"field":"influence","desc":true}],"limit":8,"offset":3}`,
	`{"entity":"posts","limit":15}`,
	`{"entity":"posts","where":{"field":"comments","op":"ge","value":1},"orderBy":[{"field":"quality","desc":true}],"limit":10,"select":["quality","novelty"]}`,
	`{"entity":"posts","where":{"or":[{"field":"novelty","op":"gt","value":0.5},{"field":"sentiment","op":"ge","value":0.4}]},"orderBy":[{"field":"sentiment","desc":true},{"field":"novelty"}],"limit":12,"offset":2}`,
	`{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":50}`,
	`{"entity":"bloggers","orderBy":[{"field":"domain:Travel","desc":true}],"limit":10}`,
}

// TestHubReplayByteIdentical is the end-to-end equivalence: a client
// that seeds its replica from the registration response and replays
// every pushed diff reconstructs, at every generation, a result
// byte-identical to a fresh full query at that seq — for entity scans
// and per-domain (aggregate/domains) queries alike. With each consumer
// reading once per generation, every subscription is evaluated exactly
// once per generation and gets exactly one event.
func TestHubReplayByteIdentical(t *testing.T) {
	g := newGenChain(t, 11, 50, 300)
	gen0 := g.next(nil)
	h := NewHub(gen0)
	defer h.Shutdown()

	queries := append([]string{}, entityQueries...)
	queries = append(queries,
		`{"entity":"domains"}`,
		`{"entity":"posts","aggregate":{"op":"mean","field":"quality"}}`,
	)
	type tracked struct {
		body string
		sub  *Subscription
		cs   *ClientState
	}
	var subsList []tracked
	for _, body := range queries {
		q := mustDecode(t, body)
		sub, st, err := h.Subscribe(q)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		seq, res := st.Seq, st.Result
		if seq != gen0.Seq {
			t.Fatalf("%s: registered at seq %d, want %d", body, seq, gen0.Seq)
		}
		if got, want := resultJSON(t, res), resultJSON(t, execute(t, gen0, q)); got != want {
			t.Fatalf("%s: registration result diverged\ngot:  %s\nwant: %s", body, got, want)
		}
		subsList = append(subsList, tracked{body, sub, NewClientState(seq, res)})
	}

	const rounds = 3
	for round := 1; round <= rounds; round++ {
		gen := g.next(addPosts(t, round, 4))
		_, wait := subsList[0].sub.Next()
		h.Publish(gen)
		select {
		case <-wait:
		default:
			t.Fatalf("Publish of gen %d did not wake a current consumer", gen.Seq)
		}
		for _, tr := range subsList {
			ev, _ := tr.sub.Next()
			if ev == nil {
				t.Fatalf("%s: no event for gen %d", tr.body, gen.Seq)
			}
			if extra, _ := tr.sub.Next(); extra != nil {
				t.Fatalf("%s: second event for gen %d: %+v", tr.body, gen.Seq, extra)
			}
			outcome, err := tr.cs.Apply(ev)
			if outcome != Applied {
				t.Fatalf("%s: gen %d apply outcome %v (%v)", tr.body, gen.Seq, outcome, err)
			}
			got := resultJSON(t, tr.cs.Result())
			want := resultJSON(t, execute(t, gen, mustDecode(t, tr.body)))
			if got != want {
				t.Fatalf("%s: gen %d replayed result diverged\ngot:  %s\nwant: %s", tr.body, gen.Seq, got, want)
			}
		}
	}
	want := uint64(len(subsList) * rounds)
	if _, pushed, evals := h.Stats(); evals != want || pushed != want {
		t.Fatalf("%d evaluations and %d pushed diffs, want %d of each", evals, pushed, want)
	}
}

// TestUnchangedEventAdvancesSeq: republishing identical analysis state
// under a new seq pushes a pure seq-advance event that keeps the chain
// unbroken without carrying rows.
func TestUnchangedEventAdvancesSeq(t *testing.T) {
	g := newGenChain(t, 13, 20, 100)
	gen0 := g.next(nil)
	h := NewHub(gen0)
	defer h.Shutdown()
	q := mustDecode(t, `{"entity":"bloggers","limit":5}`)
	sub, st, err := h.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	seq, res := st.Seq, st.Result
	cs := NewClientState(seq, res)
	h.Publish(Generation{Seq: gen0.Seq + 1, Query: gen0.Query})
	ev, _ := sub.Next()
	if ev == nil {
		t.Fatal("no event")
	}
	if !ev.Unchanged || len(ev.Rows) != 0 || ev.Order != nil {
		t.Fatalf("expected bare unchanged event, got %+v", ev)
	}
	if outcome, err := cs.Apply(ev); outcome != Applied || err != nil {
		t.Fatalf("apply: %v %v", outcome, err)
	}
	if cs.Seq() != gen0.Seq+1 {
		t.Fatalf("client at seq %d", cs.Seq())
	}
	if got, want := resultJSON(t, cs.Result()), resultJSON(t, res); got != want {
		t.Fatalf("unchanged apply mutated replica\ngot:  %s\nwant: %s", got, want)
	}
}

// TestLaggingConsumerCatchesUp: a consumer that skips three generations
// gets exactly one event, chaining from the last state it was given to
// the newest generation. It applies cleanly (never a gap) and replays to
// a fresh query at the newest seq.
func TestLaggingConsumerCatchesUp(t *testing.T) {
	g := newGenChain(t, 17, 30, 150)
	gen0 := g.next(nil)
	h := NewHub(gen0)
	defer h.Shutdown()
	q := mustDecode(t, `{"entity":"posts","orderBy":[{"field":"quality","desc":true}],"limit":10}`)
	sub, st, err := h.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	seq, res := st.Seq, st.Result
	cs := NewClientState(seq, res)

	var last Generation
	for round := 1; round <= 3; round++ {
		last = g.next(addPosts(t, round, 3))
		h.Publish(last)
	}
	ev, _ := sub.Next()
	if ev == nil {
		t.Fatal("no event after stall")
	}
	if ev.PrevSeq != seq || ev.Seq != last.Seq {
		t.Fatalf("event %d -> %d, want %d -> %d", ev.PrevSeq, ev.Seq, seq, last.Seq)
	}
	if extra, _ := sub.Next(); extra != nil {
		t.Fatalf("second event after catch-up: %+v", extra)
	}
	if outcome, err := cs.Apply(ev); outcome != Applied {
		t.Fatalf("apply outcome %v (%v), want Applied", outcome, err)
	}
	got := resultJSON(t, cs.Result())
	want := resultJSON(t, execute(t, last, q))
	if got != want {
		t.Fatalf("caught-up replica diverged\ngot:  %s\nwant: %s", got, want)
	}
}

// TestUnreadSubscriptionCostsNothing pins the pull model's work count:
// published generations cost an unread subscription no evaluation, and
// the next read — an event or a resync snapshot — costs exactly one,
// however many generations it spans.
func TestUnreadSubscriptionCostsNothing(t *testing.T) {
	g := newGenChain(t, 41, 30, 150)
	h := NewHub(g.next(nil))
	defer h.Shutdown()
	streamed, _, err := h.Subscribe(mustDecode(t, `{"entity":"bloggers","limit":5}`))
	if err != nil {
		t.Fatal(err)
	}
	polled, _, err := h.Subscribe(mustDecode(t, `{"entity":"posts","limit":7}`))
	if err != nil {
		t.Fatal(err)
	}
	const gens = 4
	var last Generation
	for round := 1; round <= gens; round++ {
		last = g.next(addPosts(t, round, 2))
		h.Publish(last)
	}
	if _, pushed, evals := h.Stats(); evals != 0 || pushed != 0 {
		t.Fatalf("after %d unread generations: %d evaluations and %d events, want 0", gens, evals, pushed)
	}
	if ev, _ := streamed.Next(); ev == nil || ev.Seq != last.Seq {
		t.Fatalf("Next after %d generations: %+v", gens, ev)
	}
	if _, pushed, evals := h.Stats(); evals != 1 || pushed != 1 {
		t.Fatalf("after one Next: %d evaluations and %d events, want 1 and 1", evals, pushed)
	}
	if st := polled.Snapshot(); st.Seq != last.Seq {
		t.Fatalf("Snapshot at seq %d, want %d", st.Seq, last.Seq)
	}
	polled.Snapshot()
	if _, pushed, evals := h.Stats(); evals != 2 || pushed != 1 {
		t.Fatalf("after two Snapshots: %d evaluations and %d events, want 2 and 1", evals, pushed)
	}
}

// TestPublishNeverBlocks: with a stalled subscriber that never reads,
// Publish must still return immediately — the flush path's
// non-negotiable.
func TestPublishNeverBlocks(t *testing.T) {
	g := newGenChain(t, 19, 20, 100)
	gen0 := g.next(nil)
	h := NewHub(gen0)
	defer h.Shutdown()
	if _, _, err := h.Subscribe(mustDecode(t, `{"entity":"bloggers"}`)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			h.Publish(Generation{Seq: gen0.Seq + uint64(i) + 1, Query: gen0.Query})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked")
	}
}

// TestAttachSingleConsumer: the consumer slot is exclusive and
// releasable.
func TestAttachSingleConsumer(t *testing.T) {
	g := newGenChain(t, 23, 20, 100)
	h := NewHub(g.next(nil))
	defer h.Shutdown()
	sub, _, err := h.Subscribe(mustDecode(t, `{"entity":"bloggers"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Attach(); err != ErrAttached {
		t.Fatalf("second attach: %v", err)
	}
	sub.Detach()
	if err := sub.Attach(); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
}

// TestCancelAndShutdown: cancel closes Done and unregisters; Subscribe
// after Shutdown reports ErrClosed.
func TestCancelAndShutdown(t *testing.T) {
	g := newGenChain(t, 29, 20, 100)
	h := NewHub(g.next(nil))
	sub, _, err := h.Subscribe(mustDecode(t, `{"entity":"posts"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Cancel(sub.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	default:
		t.Fatal("Done not closed after cancel")
	}
	if _, err := h.Get(sub.ID()); err != ErrNotFound {
		t.Fatalf("Get after cancel: %v", err)
	}
	if err := h.Cancel(sub.ID()); err != ErrNotFound {
		t.Fatalf("double cancel: %v", err)
	}
	h.Shutdown()
	h.Shutdown() // idempotent
	if _, _, err := h.Subscribe(mustDecode(t, `{"entity":"posts"}`)); err != ErrClosed {
		t.Fatalf("Subscribe after shutdown: %v", err)
	}
}

// TestIdleGC: a subscription with no attached consumer past the TTL is
// collected; an attached one survives.
func TestIdleGC(t *testing.T) {
	g := newGenChain(t, 31, 20, 100)
	h := NewHub(g.next(nil))
	defer h.Shutdown()
	idle, _, err := h.Subscribe(mustDecode(t, `{"entity":"bloggers"}`))
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := h.Subscribe(mustDecode(t, `{"entity":"posts"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Attach(); err != nil {
		t.Fatal(err)
	}
	h.collectIdle(time.Now().Add(idleTTL + time.Second))
	if _, err := h.Get(idle.ID()); err != ErrNotFound {
		t.Fatalf("idle subscription survived GC: %v", err)
	}
	if _, err := h.Get(live.ID()); err != nil {
		t.Fatalf("attached subscription collected: %v", err)
	}
	select {
	case <-idle.Done():
	default:
		t.Fatal("GC'd subscription's Done not closed")
	}
}

// TestHubChurnRace is the hub-level churn test (run with -race):
// subscribe/consume/cancel churn, with consumers evaluating on their own
// goroutines while they wait on Publish wakeups, against a publisher
// pumping generations, ending in Shutdown racing the lot.
func TestHubChurnRace(t *testing.T) {
	g := newGenChain(t, 37, 30, 150)
	gen0 := g.next(nil)
	gen1 := g.next(addPosts(t, 1, 3))
	h := NewHub(gen0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Publisher: alternate two real generations under increasing seqs,
	// so every other generation drops the newer posts again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := gen1.Seq
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			src := gen0
			if i%2 == 0 {
				src = gen1
			}
			h.Publish(Generation{Seq: seq, Query: src.Query})
		}
	}()
	// Churners: subscribe, consume a little, cancel or abandon.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bodies := []string{`{"entity":"bloggers","limit":5}`, `{"entity":"posts","limit":7}`, `{"entity":"domains"}`}
			for i := 0; i < 50; i++ {
				sub, _, err := h.Subscribe(mustDecode(t, bodies[(w+i)%len(bodies)]))
				if err != nil {
					if err == ErrClosed {
						return
					}
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := sub.Attach(); err == nil {
						for n := 0; n < 3; n++ {
							if ev, wait := sub.Next(); ev == nil {
								select {
								case <-wait:
								case <-sub.Done():
								case <-time.After(time.Millisecond):
								}
							}
						}
						sub.Detach()
					}
				}
				sub.Snapshot()
				if i%3 != 0 { // every third is abandoned to the churn
					h.Cancel(sub.ID())
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	h.Shutdown() // races the publisher and churners deliberately
	close(stop)
	wg.Wait()
}
