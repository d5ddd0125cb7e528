package cluster

// The read side of a cluster. A View pins one snapshot per shard, and
// Query answers from it: a pass-through at one shard, the owner shard
// alone for an author-pinned posts query, and otherwise a scatter of
// query.ExecuteShard finished by one query.MergeShards. Every scattered
// part is restricted by its snapshot's owned-row mask (Snapshot.Owned),
// built once per generation from the ring, so a read never hashes a
// blogger ID per row; unfiltered top and domain-top parts walk the
// shard's precomputed ranking instead of scanning. Stats and Status take
// their owned-blogger counts from the same masks.
//
// A View is stable: Cluster.View hands every reader the same *View until
// a shard publishes (or a cross-shard link lands), and that view owns one
// bounded LRU memo of finished reads. Query memoizes merged results there
// at every shard count, and the API layer memoizes encoded responses
// there, so a read repeated within one cut costs a map lookup. The memo
// dies with its view: there is nothing to invalidate.

import (
	"strconv"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/query"
)

// View pins one immutable snapshot per shard — the cluster-wide analogue
// of a single engine's Snapshot. Everything answered from one View is
// mutually consistent per shard (though shards advance independently, so
// the seq vector is the coherent version, not any single number).
type View struct {
	Snaps []*core.Snapshot

	cl *Cluster
	// boundary is the cluster's boundary-edge generation when the view was
	// built: Stats reads the boundary set, so a new edge is a new view.
	boundary uint64
	maxSeq   uint64
	seqKey   string
	etag     string
	memo     memo
}

// View returns the current cut: one snapshot per shard. The same *View
// comes back for as long as no shard has published and no boundary edge
// has landed; only then is a new one built and swapped in. A quarantined
// shard contributes its last published snapshot — stale but readable,
// which is what lets the breaker fast-fail queries without losing the
// shard's data from results entirely once it recovers.
func (cl *Cluster) View() *View {
	for {
		cur := cl.view.Load()
		if cur != nil && cl.isCurrent(cur) {
			return cur
		}
		next := cl.buildView()
		if cl.view.CompareAndSwap(cur, next) {
			return next
		}
		// Another reader swapped in a view first; it is at least as new as
		// cur, so check it rather than racing it.
	}
}

// isCurrent reports whether v still pins every shard's current snapshot
// and the current boundary set.
func (cl *Cluster) isCurrent(v *View) bool {
	if v.boundary != cl.boundaryGen.Load() {
		return false
	}
	for i, sh := range cl.shards {
		if sh.eng.Load().Current() != v.Snaps[i] {
			return false
		}
	}
	return true
}

// buildView pins the current generation of every shard and renders the
// view's validators once.
func (cl *Cluster) buildView() *View {
	v := &View{cl: cl, boundary: cl.boundaryGen.Load(), Snaps: make([]*core.Snapshot, len(cl.shards))}
	parts := make([]string, len(cl.shards))
	for i, sh := range cl.shards {
		s := sh.eng.Load().Current()
		v.Snaps[i] = s
		v.maxSeq = max(v.maxSeq, s.Seq)
		parts[i] = strconv.FormatUint(s.Seq, 10)
	}
	v.seqKey = strings.Join(parts, ".")
	v.etag = `"mass-seq-` + v.seqKey + `"`
	return v
}

// Seqs is the per-shard generation vector.
func (v *View) Seqs() []uint64 {
	out := make([]uint64, len(v.Snaps))
	for i, s := range v.Snaps {
		out[i] = s.Seq
	}
	return out
}

// MaxSeq is the highest shard generation — the scalar the Meta.Seq field
// carries for cluster responses (the full vector rides next to it).
func (v *View) MaxSeq() uint64 { return v.maxSeq }

// SeqKey renders the seq vector dot-joined ("3.5.4"); with one shard it is
// the bare generation number.
func (v *View) SeqKey() string { return v.seqKey }

// ETag formats the seq vector as a strong validator: "mass-seq-3.5.4" for
// three shards. With one shard this is exactly the single-engine
// Snapshot.ETag(), so conditional GETs behave identically.
func (v *View) ETag() string { return v.etag }

// Recall returns the finished read memoized under key on this view.
// Query's merged results are keyed by the normalized query's JSON (which
// starts with '{'); the API's encoded responses by their HTTP method and
// URI, so the two never collide. While the memo is bypassed (see
// memoBypassed) Recall always misses without counting.
func (v *View) Recall(key string) (any, bool) {
	if v.cl.memoBypassed() {
		return nil, false
	}
	val, ok := v.memo.get(key)
	if ok {
		v.cl.memoHits.Add(1)
	} else {
		v.cl.memoMisses.Add(1)
	}
	return val, ok
}

// Memoize stores a finished read under key, charging size bytes against
// the memo's bound. Store only what a cold read of this view returns:
// never an error or a degraded partial. The value is shared with every
// later reader and must not be mutated.
func (v *View) Memoize(key string, val any, size int) {
	if !v.cl.memoBypassed() {
		v.memo.put(key, val, size)
	}
}

// memoBypassed reports whether reads must be computed cold: while a shard's
// breaker is open a read's plan and coverage differ from a healthy one,
// and while the slow-shard test hook is set a read's timing is the point,
// so neither may be answered from, or leave anything in, the memo.
func (cl *Cluster) memoBypassed() bool {
	if cl.slowShard.Load() != nil {
		return true
	}
	for _, sh := range cl.shards {
		if sh.breakerOpen() {
			return true
		}
	}
	return false
}

// MemoStats reports the read-memo lookups that hit and missed, over every
// view so far. Bypassed reads count as neither.
func (cl *Cluster) MemoStats() (hits, misses uint64) {
	return cl.memoHits.Load(), cl.memoMisses.Load()
}

// SetSlowShardHook installs fn to run inside every scatter worker before
// the shard sub-query executes — deterministic slow-shard injection for
// tests outside this package. Pass nil to clear. Not for production use.
func (cl *Cluster) SetSlowShardHook(fn func(shard int)) {
	if fn == nil {
		cl.slowShard.Store(nil)
		return
	}
	cl.slowShard.Store(&fn)
}

// scatterPart is one shard's contribution to a scattered read.
type scatterPart struct {
	shard    int
	val      *query.ShardResult
	err      error
	panicked bool
}

// scatter runs fn on one goroutine per admitted shard and gathers with a
// deadline. No shard's part waits on another's, so a wedged shard cannot
// delay the healthy ones; it parks at most one goroutine per read until its
// breaker opens. Shards with an open circuit breaker are never launched
// — the read is flagged degraded immediately instead of burning the full
// ShardTimeout against a shard known to be down (that fast-fail is the
// breaker's whole point). A worker that panics is isolated: its shard is
// dropped from the result like a timed-out one and the failure counts
// toward the shard's breaker, never toward the caller. A shard that has
// not answered within ShardTimeout is dropped from the result (nil slot),
// the read is flagged degraded, and the miss counts against its breaker;
// an answer counts as a success. Late results land in a buffered channel
// and are discarded — an uncancelable in-flight sub-query never blocks
// anything. Per-shard errors fail the whole read (the executor is
// deterministic, so an error on one shard means the query itself is bad).
func (cl *Cluster) scatter(v *View, fn func(si int, snap *core.Snapshot) (*query.ShardResult, error)) (vals []*query.ShardResult, degraded bool, err error) {
	cl.scatterQueries.Add(1)
	n := len(v.Snaps)
	ch := make(chan scatterPart, n)
	launched := 0
	admitted := make([]bool, n)
	for i := 0; i < n; i++ {
		if cl.shards[i].breakerOpen() {
			continue
		}
		admitted[i] = true
		launched++
		go func(si int) {
			p := scatterPart{shard: si}
			func() {
				defer func() {
					if r := recover(); r != nil {
						p.panicked, p.val, p.err = true, nil, nil
					}
				}()
				if hook := cl.slowShard.Load(); hook != nil {
					(*hook)(si)
				}
				p.val, p.err = fn(si, v.Snaps[si])
			}()
			ch <- p
		}(i)
	}
	vals = make([]*query.ShardResult, n)
	degraded = launched < n
	answered := make([]bool, n)
	deadline := time.NewTimer(cl.opts.ShardTimeout)
	defer deadline.Stop()
	finish := func() ([]*query.ShardResult, bool, error) {
		if degraded {
			cl.degradedQueries.Add(1)
		}
		if err != nil {
			return nil, degraded, err
		}
		return vals, degraded, nil
	}
	for got := 0; got < launched; {
		select {
		case p := <-ch:
			got++
			answered[p.shard] = true
			if p.panicked {
				degraded = true
				cl.shards[p.shard].recordFailure(cl)
				continue
			}
			cl.shards[p.shard].recordSuccess()
			if p.err != nil && err == nil {
				err = p.err
			}
			vals[p.shard] = p.val
		case <-deadline.C:
			degraded = true
			for i := range answered {
				if admitted[i] && !answered[i] {
					cl.shards[i].recordFailure(cl)
				}
			}
			return finish()
		}
	}
	return finish()
}

// authorEqTarget detects the single-shard routing opportunity: a posts
// query whose WHERE is (possibly nested ANDs containing) an author
// equality. All posts by one author live on the author's owner shard, so
// the whole query — scan, totals, pagination — collapses to that shard's
// own executor.
func authorEqTarget(q *query.Query) (string, bool) {
	if q.Entity != query.EntityPosts || q.Where == nil {
		return "", false
	}
	return findAuthorEq(q.Where)
}

func findAuthorEq(p *query.Predicate) (string, bool) {
	switch {
	case p.Cmp != nil:
		c := p.Cmp
		if c.Field.Name == query.FieldAuthor && c.Op == query.OpEq && c.Str != "" {
			return c.Str, true
		}
	case len(p.And) > 0:
		// Any conjunct pins the author: the other conjuncts still run on
		// the routed shard.
		for _, kid := range p.And {
			if author, ok := findAuthorEq(kid); ok {
				return author, true
			}
		}
	}
	return "", false
}

// Query executes q against a pinned view and memoizes the merged result
// on it, so a query repeated within one view executes once. With one shard
// it runs the engine's own executor. With several it routes an
// author-pinned posts query to the author's owner shard while that
// shard's breaker is closed; otherwise it scatters query.ExecuteShard
// under each shard's owned-row mask and finishes with query.MergeShards,
// so a quarantined owner is skipped and the answer labelled like any
// other scatter.
// degraded reports that at least one shard was skipped or missed its
// deadline and the result covers the rest; such a result is not memoized.
func (cl *Cluster) Query(v *View, q *query.Query) (r *query.Result, degraded bool, err error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, false, err
	}
	key, err := n.Key()
	if err != nil {
		return nil, false, err
	}
	if hit, ok := v.Recall(key); ok {
		return hit.(*query.Result), false, nil
	}
	r, degraded, err = cl.execute(v, n)
	if err == nil && !degraded {
		v.Memoize(key, r, resultBytes(r))
	}
	return r, degraded, err
}

// resultBytes approximates a result's resident size for the memo bound.
func resultBytes(r *query.Result) int {
	n := 64 + len(r.Plan)
	for _, row := range r.Rows {
		n += 48 + len(row.ID) + 48*len(row.Fields)
	}
	return n
}

// execute answers a normalized query from the view without the memo.
func (cl *Cluster) execute(v *View, n *query.Query) (*query.Result, bool, error) {
	if len(v.Snaps) == 1 {
		r, err := v.Snaps[0].Query(n)
		return r, false, err
	}
	if author, ok := authorEqTarget(n); ok {
		if shard := cl.ring.Owner(author); !cl.shards[shard].breakerOpen() {
			routed, err := v.Snaps[shard].Query(n)
			if err != nil {
				return nil, false, err
			}
			routed.Plan = "route/" + routed.Plan
			return routed, false, nil
		}
	}
	parts, degraded, err := cl.scatter(v, func(si int, snap *core.Snapshot) (*query.ShardResult, error) {
		return query.ExecuteShard(snap.Corpus(), snap.Result(), n, snap.Owned())
	})
	if err != nil {
		return nil, degraded, err
	}
	r, err := query.MergeShards(parts, n)
	if err != nil {
		return nil, degraded, err
	}
	r.Plan = "scatter/" + r.Plan
	return r, degraded, nil
}

// Stats computes the exact global corpus summary from a pinned view:
// owned bloggers counted once (from each snapshot's owned-row mask),
// per-blogger activity summed across shards before taking maxima (a
// blogger's comments may land on posts owned by other shards), and
// boundary edges folded into the link and in-degree counts. With one shard it is the engine's own Stats.
func (cl *Cluster) Stats(v *View) blog.Stats {
	if len(v.Snaps) == 1 {
		return v.Snaps[0].Stats()
	}
	corpora := make([]*blog.Frozen, len(v.Snaps))
	bloggers, words := 0, 0
	for i, snap := range v.Snaps {
		corpora[i] = snap.Corpus()
		bloggers += snap.Owned().Count
		words += snap.Result().Words()
	}
	s := blog.ComputeStats(nil, cl.boundarySnapshot(), corpora...)
	s.Bloggers = bloggers
	if s.Posts > 0 {
		s.AvgPostLenWords = float64(words) / float64(s.Posts)
	}
	return s
}
