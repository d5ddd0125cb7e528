package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/query"
	"mass/internal/subs"
	"mass/internal/synth"
)

// Standing subscriptions over cluster views: the hub lives in the
// cluster, every generation is a View, and a subscription's window is
// whatever Cluster.Query answers at that view — at any shard count.

// freshCorpus is a private copy of the coordinator fixture for tests that
// write: a 1-shard cluster serves its preload corpus object in place.
func freshCorpus(t testing.TB) *blog.Corpus {
	t.Helper()
	c, _, err := synth.Generate(synth.Config{Seed: 11, Bloggers: 40, Posts: 250})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustQuery(t testing.TB, body string) *query.Query {
	t.Helper()
	q, err := query.Decode([]byte(body))
	if err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return q
}

func toJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// consume applies every event sub has for its consumer to cs, failing
// on a broken chain, and returns the last one (nil when sub was current).
func consume(t testing.TB, sub *subs.Subscription, cs *subs.ClientState) *subs.Event {
	t.Helper()
	var last *subs.Event
	for {
		ev, _ := sub.Next()
		if ev == nil {
			return last
		}
		if ev.PrevSeq != cs.Seq() || ev.Seq <= ev.PrevSeq {
			t.Fatalf("event %d -> %d does not extend the replica at %d", ev.PrevSeq, ev.Seq, cs.Seq())
		}
		if outcome, err := cs.Apply(ev); outcome != subs.Applied {
			t.Fatalf("apply outcome %v (%v)", outcome, err)
		}
		last = ev
	}
}

// writeRound lands one round of the shared write sequence: new posts
// (later than anything held) by spread authors, comments on a new and an
// old post, and a link.
func writeRound(t testing.TB, cl *Cluster, round int, authors []blog.BloggerID, oldPost blog.PostID, after time.Time) {
	t.Helper()
	var b core.Batch
	for i := 0; i < 3; i++ {
		b.Posts = append(b.Posts, &blog.Post{
			ID:     blog.PostID(fmt.Sprintf("sub-r%d-%d", round, i)),
			Author: authors[(round*5+i*7)%len(authors)],
			Posted: after.Add(time.Duration(round*10+i) * time.Minute),
			Body:   fmt.Sprintf("travel diary and match report, round %d part %d", round, i),
		})
	}
	b.Comments = []core.BatchComment{
		{Post: b.Posts[0].ID, Comment: blog.Comment{Commenter: authors[(round+3)%len(authors)], Text: "great trip"}},
		{Post: oldPost, Comment: blog.Comment{Commenter: authors[(round+9)%len(authors)], Text: "still relevant"}},
	}
	b.Links = []blog.Link{{From: authors[round%len(authors)], To: authors[(round*11+1)%len(authors)]}}
	if err := cl.AddBatch(b); err != nil {
		t.Fatal(err)
	}
}

// latest is the newest posting time in c.
func latest(c *blog.Corpus) (time.Time, blog.PostID) {
	var at time.Time
	var id blog.PostID
	for _, p := range c.Posts {
		if p.Posted.After(at) || (p.Posted.Equal(at) && p.ID > id) {
			at, id = p.Posted, p.ID
		}
	}
	return at, id
}

// TestClusterHubReplayMatchesQuery is TestHubReplayByteIdentical over a
// cluster at one and three shards: a client seeded from the registration
// state that replays every event reconstructs, at each generation, the
// window Cluster.Query answers at the view the event was evaluated at —
// influence-ordered and per-domain queries included, whose values are
// per-shard at N>1 exactly as POST /api/v1/query serves them.
func TestClusterHubReplayMatchesQuery(t *testing.T) {
	bodies := []string{
		`{"entity":"bloggers"}`,
		`{"entity":"bloggers","orderBy":[{"field":"ap","desc":true}],"limit":5,"select":["ap","gl","posts"]}`,
		`{"entity":"posts","limit":15}`,
		`{"entity":"posts","where":{"field":"comments","op":"ge","value":1},"orderBy":[{"field":"quality","desc":true}],"limit":10,"select":["quality","novelty"]}`,
		`{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":50}`,
		`{"entity":"bloggers","orderBy":[{"field":"domain:Travel","desc":true}],"limit":10}`,
		`{"entity":"domains"}`,
		`{"entity":"posts","aggregate":{"op":"mean","field":"quality"}}`,
	}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			c := freshCorpus(t)
			after, oldPost := latest(c)
			authors := c.BloggerIDs()
			cl, err := New(c, Options{Shards: n, Engine: quietEngine()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			hub := cl.Subscriptions()
			subsList := make([]*subs.Subscription, len(bodies))
			replicas := make([]*subs.ClientState, len(bodies))
			for i, body := range bodies {
				v := cl.View()
				sub, st, err := hub.Subscribe(mustQuery(t, body))
				if err != nil {
					t.Fatalf("%s: %v", body, err)
				}
				want, _, err := cl.Query(v, mustQuery(t, body))
				if err != nil {
					t.Fatal(err)
				}
				if got := toJSON(t, st.Result); got != toJSON(t, want) {
					t.Fatalf("%s: registration diverged\ngot:  %s\nwant: %s", body, got, toJSON(t, want))
				}
				subsList[i], replicas[i] = sub, subs.NewClientState(st.Seq, st.Result)
			}
			for round := 1; round <= 3; round++ {
				writeRound(t, cl, round, authors, oldPost, after)
				if err := cl.Refresh(context.Background()); err != nil {
					t.Fatal(err)
				}
				v := cl.View()
				for i, body := range bodies {
					ev := consume(t, subsList[i], replicas[i])
					if ev == nil {
						t.Fatalf("%s: no event in round %d", body, round)
					}
					if n > 1 && toJSON(t, ev.Seqs) != toJSON(t, v.Seqs()) {
						t.Fatalf("%s: event at seqs %v, view at %v", body, ev.Seqs, v.Seqs())
					}
					if n == 1 && (ev.Seqs != nil || ev.Seq != v.MaxSeq()) {
						t.Fatalf("%s: one-shard event seq %d seqs %v, engine at %d", body, ev.Seq, ev.Seqs, v.MaxSeq())
					}
					want, _, err := cl.Query(v, mustQuery(t, body))
					if err != nil {
						t.Fatal(err)
					}
					if got := toJSON(t, replicas[i].Result()); got != toJSON(t, want) {
						t.Fatalf("%s: round %d replay diverged\ngot:  %s\nwant: %s", body, round, got, toJSON(t, want))
					}
				}
			}
		})
	}
}

// TestSubscriptionWindowsN3MatchN1 is the differential oracle for
// standing queries: one write sequence at three shards and at one, a
// Refresh after each round, and queries that order, filter and project
// only fields exact at any shard count. Every replayed window (rows and
// total) at N=3 equals N=1's.
func TestSubscriptionWindowsN3MatchN1(t *testing.T) {
	bodies := []string{
		`{"entity":"posts","orderBy":[{"field":"posted","desc":true}],"limit":15,"select":["posted","comments"]}`,
		`{"entity":"posts","where":{"field":"comments","op":"ge","value":1},"orderBy":[{"field":"comments","desc":true},{"field":"posted"}],"limit":12,"offset":2,"select":["comments"]}`,
		`{"entity":"posts","where":{"field":"author","op":"eq","value":"%s"},"orderBy":[{"field":"posted"}],"limit":10,"select":["posted"]}`,
		`{"entity":"bloggers","orderBy":[{"field":"posts","desc":true}],"limit":10,"select":["posts"]}`,
		`{"entity":"bloggers","where":{"field":"posts","op":"gt","value":6},"orderBy":[{"field":"posts"}],"limit":20,"select":["posts"]}`,
	}
	type side struct {
		cl       *Cluster
		subs     []*subs.Subscription
		replicas []*subs.ClientState
	}
	c1 := freshCorpus(t)
	after, oldPost := latest(c1)
	authors := c1.BloggerIDs()
	bodies[2] = fmt.Sprintf(bodies[2], authors[5])
	sides := make([]*side, 2)
	for k, n := range []int{1, 3} {
		c := c1
		if n > 1 {
			c = freshCorpus(t)
		}
		cl, err := New(c, Options{Shards: n, Engine: quietEngine()})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		s := &side{cl: cl}
		for _, body := range bodies {
			sub, st, err := cl.Subscriptions().Subscribe(mustQuery(t, body))
			if err != nil {
				t.Fatalf("N=%d %s: %v", n, body, err)
			}
			s.subs = append(s.subs, sub)
			s.replicas = append(s.replicas, subs.NewClientState(st.Seq, st.Result))
		}
		sides[k] = s
	}
	window := func(cs *subs.ClientState) string {
		r := cs.Result()
		return toJSON(t, struct {
			Total int
			Rows  []query.Row
		}{r.Total, r.Rows})
	}
	for round := 0; round <= 4; round++ {
		for _, s := range sides {
			if round > 0 {
				writeRound(t, s.cl, round, authors, oldPost, after)
				if err := s.cl.Refresh(context.Background()); err != nil {
					t.Fatal(err)
				}
				for i := range bodies {
					if consume(t, s.subs[i], s.replicas[i]) == nil {
						t.Fatalf("N=%d %s: no event in round %d", s.cl.NumShards(), bodies[i], round)
					}
				}
			}
		}
		for i, body := range bodies {
			if got, want := window(sides[1].replicas[i]), window(sides[0].replicas[i]); got != want {
				t.Fatalf("%s: round %d window at N=3 diverged from N=1\nN=3: %s\nN=1: %s", body, round, got, want)
			}
		}
	}
}

// TestSubscriptionChurn races subscribe/consume/cancel churn and
// slow-consumer disconnects against concurrent ingest flushes, ending
// with Close racing live subscribers, at one shard and at three. Run
// with -race. It also holds the pull contract end to end: a consumer
// that reads every event applies each one cleanly, never seeing a gap,
// however far the flushes ran ahead of it.
func TestSubscriptionChurn(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) { subscriptionChurn(t, n) })
	}
}

func subscriptionChurn(t *testing.T, shards int) {
	cl, err := New(freshCorpus(t), Options{Shards: shards, Engine: core.EngineOptions{
		FlushEvery:    8,
		FlushInterval: 25 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hub := cl.Subscriptions()
	base := cl.Shard(0).Current().Corpus().BloggerIDs()

	const ingesters, subscribers, perIngester = 3, 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, ingesters+subscribers)
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perIngester; i++ {
				pid := blog.PostID(fmt.Sprintf("sub-live-%d-%d", g, i))
				if err := cl.AddBatch(core.Batch{Posts: []*blog.Post{{
					ID: pid, Author: base[(g*5+i)%len(base)],
					Body: fmt.Sprintf("live sports coverage update %d from feed %d", i, g),
				}}}); err != nil {
					errs <- err
					return
				}
				if err := cl.AddBatch(core.Batch{Comments: []core.BatchComment{{Post: pid, Comment: blog.Comment{
					Commenter: base[(g+i+3)%len(base)], Text: "nice write-up",
				}}}}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	bodies := []string{
		`{"entity":"bloggers","limit":5}`,
		`{"entity":"posts","orderBy":[{"field":"quality","desc":true}],"limit":8}`,
		`{"entity":"domains"}`,
	}
	for w := 0; w < subscribers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				q, err := query.Decode([]byte(bodies[(w+i)%len(bodies)]))
				if err != nil {
					errs <- err
					return
				}
				sub, st, err := hub.Subscribe(q)
				if err != nil {
					return // hub closed under us: the churn we want
				}
				cs := subs.NewClientState(st.Seq, st.Result)
				deadline := time.Now().Add(20 * time.Millisecond)
				for time.Now().Before(deadline) {
					ev, wait := sub.Next()
					if ev == nil {
						select {
						case <-wait:
						case <-sub.Done():
						case <-time.After(5 * time.Millisecond):
						}
						continue
					}
					if outcome, err := cs.Apply(ev); outcome != subs.Applied {
						errs <- fmt.Errorf("consumer reading every event got outcome %v: %v", outcome, err)
						return
					}
				}
				if i%2 == 0 { // half disconnect politely, half stall out
					hub.Cancel(sub.ID())
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Whether a churn window overlapped a flush depends on the schedule,
	// so delivery is pinned with one consumer registered before a known
	// flush.
	sub, st, err := hub.Subscribe(mustQuery(t, bodies[1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch(core.Batch{Posts: []*blog.Post{{
		ID: "sub-live-final", Author: base[0], Body: "closing sports coverage update",
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ev, _ := sub.Next()
	if ev == nil {
		t.Fatal("no event after a flush")
	}
	if outcome, err := subs.NewClientState(st.Seq, st.Result).Apply(ev); outcome != subs.Applied {
		t.Fatalf("apply outcome %v (%v)", outcome, err)
	}
	if st := cl.Status(); st.PushedDiffs == 0 || st.Subscribers == 0 {
		t.Fatalf("cluster status reports %d pushed diffs, %d subscribers", st.PushedDiffs, st.Subscribers)
	}
	if err := cl.Close(); err != nil { // closes the abandoned subscriptions
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	default:
		t.Fatal("Close left a subscription open")
	}
}
