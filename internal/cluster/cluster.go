package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/core"
	"mass/internal/query"
	"mass/internal/subs"
	"mass/internal/wal"
)

// Options configures a sharded engine cluster.
type Options struct {
	// Shards is the number of engine shards; < 1 is normalized to 1.
	Shards int
	// Engine configures every shard engine identically (analysis options,
	// flush debounce). Durability.Dir, Owns and OnPublish inside it are
	// ignored: the cluster derives them from DataDir, the ring and its hub.
	Engine core.EngineOptions
	// DataDir is the cluster data directory: shard-<i>/ per engine WAL, a
	// boundary/ WAL for cross-shard links, and cluster.json recording the
	// ring geometry. Empty runs fully in-memory.
	DataDir string
	// ShardTimeout bounds how long a scatter waits for each shard before
	// returning a degraded partial result. Default 2s.
	ShardTimeout time.Duration

	// ProbeInterval is the supervisor's cadence: how often degraded shards
	// are probed, quarantined shards restarted, and recovering shards
	// offered a half-open rejoin. Default 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe. Default ShardTimeout.
	ProbeTimeout time.Duration
	// BreakerThreshold is the consecutive failure count (scatter timeouts,
	// panics, ingest errors) that trips a shard's circuit breaker open.
	// Default 3.
	BreakerThreshold int
	// IngestRetries bounds the capped-backoff retries of a routed write
	// against a transiently failing shard before it spills. Default 3.
	IngestRetries int
	// IngestRetryDelay is the initial retry backoff, doubling per attempt
	// up to maxIngestRetryDelay. Default 5ms.
	IngestRetryDelay time.Duration
	// SpillLimit caps each shard's spill queue (ops buffered while the
	// shard is down); past it ingest sheds with OverloadError. Default
	// 4096.
	SpillLimit int
	// ShardFS, when set, overrides the filesystem for shard i's engine WAL
	// and spill queue — per-shard fsync fault injection for tests. nil
	// entries (and a nil func) fall back to Engine.Durability.FS.
	ShardFS func(shard int) wal.FS
}

// globalFallbackMass bounds the residual L1 mass GlobalPageRank hands to
// the push solver unless its options set one; above it the merged graph is
// solved densely instead (counted in MergeFallbacks). Hash partitioning
// keeps per-shard solves close enough to the global fixed point that the
// seeded residual stays well under this in steady state.
const globalFallbackMass = 2.0

// maxIngestRetryDelay caps the doubling backoff of a routed write's
// retries.
const maxIngestRetryDelay = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ShardTimeout
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.IngestRetries <= 0 {
		o.IngestRetries = 3
	}
	if o.IngestRetryDelay <= 0 {
		o.IngestRetryDelay = 5 * time.Millisecond
	}
	if o.SpillLimit <= 0 {
		o.SpillLimit = 4096
	}
	return o
}

// manifest pins the ring geometry of a data directory. Reopening with a
// different shard count would silently route keys to the wrong WALs, so a
// mismatch is a hard error (resharding is a rebuild, not a reopen).
type manifest struct {
	Shards       int `json:"shards"`
	VirtualNodes int `json:"virtualNodes"`
}

// Cluster is N independent core.Engine shards behind one consistent-hash
// ring, plus the shared state that cannot live in any single shard: the
// boundary set of cross-shard link edges (with its own WAL), the post →
// shard routing map, the scatter-gather counters, the subscription hub,
// and the supervisor that cycles crashed/wedged shards back to Healthy.
type Cluster struct {
	opts   Options
	ring   *Ring
	shards []*shardSlot

	mu        sync.Mutex // guards boundary + postOwner
	boundary  map[blog.Link]struct{}
	bwal      *wal.Log
	postOwner map[blog.PostID]int

	// hub serves standing subscriptions over cluster views (publish). It
	// is nil until New has built every shard; pubMu guards that and keeps
	// each view handed to the hub newer than the last.
	pubMu sync.Mutex
	hub   *subs.Hub

	scatterQueries  atomic.Uint64
	degradedQueries atomic.Uint64
	mergeFallbacks  atomic.Uint64

	// Supervision counters (surfaced through FullStatus / /api/v1/engine).
	breakerOpens    atomic.Uint64 // transitions into Quarantined
	shardRestarts   atomic.Uint64 // engines torn down and re-created
	spilledRecords  atomic.Uint64 // ops acknowledged into spill queues
	replayedRecords atomic.Uint64 // spilled ops replayed into their shard
	shedRequests    atomic.Uint64 // ingests rejected with OverloadError

	// supervisor lifecycle: the loop exits when supQuit closes, confirmed
	// by supDone; supKick nudges it out of its probe-interval sleep.
	supQuit   chan struct{}
	supDone   chan struct{}
	supKick   chan struct{}
	closeOnce sync.Once

	// slowShard, when set, runs inside the scatter worker before the shard
	// sub-query — a test hook for deterministic slow-shard injection. It
	// is atomic because a degraded read returns while its slow worker is
	// still running, and the test may clear the hook right after.
	slowShard atomic.Pointer[func(shard int)]
}

// shardEngineOpts derives shard i's engine options: the publish hook
// feeding the cluster's subscription hub, its ownership test at N > 1 (so
// every snapshot carries its owned-row mask), its durability
// directory under DataDir (shard-<i>/ at N > 1, DataDir itself at N == 1
// — the bare-engine layout), and the per-shard fault-injection FS when
// configured. The supervisor re-uses it to rebuild a crashed shard's
// engine over the same directory.
func (cl *Cluster) shardEngineOpts(i int) core.EngineOptions {
	eopts := cl.opts.Engine
	eopts.OnPublish = cl.publish
	eopts.Owns = nil
	if cl.opts.Shards > 1 {
		eopts.Owns = func(id blog.BloggerID) bool { return cl.Owner(id) == i }
	}
	switch {
	case cl.opts.DataDir != "" && cl.opts.Shards > 1:
		eopts.Durability = cl.opts.Engine.Durability
		eopts.Durability.Dir = filepath.Join(cl.opts.DataDir, fmt.Sprintf("shard-%d", i))
	case cl.opts.DataDir != "":
		eopts.Durability = cl.opts.Engine.Durability
		eopts.Durability.Dir = cl.opts.DataDir
	default:
		eopts.Durability = core.DurabilityOptions{}
	}
	if cl.opts.ShardFS != nil {
		if fs := cl.opts.ShardFS(i); fs != nil {
			eopts.Durability.FS = fs
		}
	}
	return eopts
}

// shardFS picks the filesystem shard i's spill queue writes through.
func (cl *Cluster) shardFS(i int) wal.FS {
	if cl.opts.ShardFS != nil {
		if fs := cl.opts.ShardFS(i); fs != nil {
			return fs
		}
	}
	return cl.opts.Engine.Durability.FS
}

// New boots a cluster, splitting the preload corpus across the shards by
// blogger ownership. With one shard the whole corpus lands on shard 0 and
// every path through the cluster is a pass-through — byte-identical to a
// bare engine. A non-empty DataDir layers durability: each shard recovers
// its own WAL (recovered state replaces that shard's slice of the
// preload, exactly as a bare engine treats its preload), and the boundary
// edge set replays from its own log.
func New(c *blog.Corpus, opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	ring := NewRing(opts.Shards, DefaultVirtualNodes)
	cl := &Cluster{
		opts:      opts,
		ring:      ring,
		boundary:  make(map[blog.Link]struct{}),
		postOwner: make(map[blog.PostID]int),
		supQuit:   make(chan struct{}),
		supDone:   make(chan struct{}),
		supKick:   make(chan struct{}, 1),
	}
	if opts.DataDir != "" {
		if err := cl.checkManifest(); err != nil {
			return nil, err
		}
	}
	parts, boundary := splitCorpus(c, ring)
	// One shard has no cross-shard edges, so no boundary log — and its
	// engine logs straight into DataDir, the exact layout a bare durable
	// engine uses, so an existing single-engine directory opens as a
	// 1-shard cluster unchanged (modulo the manifest riding alongside).
	if opts.DataDir != "" && opts.Shards > 1 {
		bw, rec, err := wal.Open(wal.Options{Dir: filepath.Join(opts.DataDir, "boundary")})
		if err != nil {
			return nil, fmt.Errorf("cluster: boundary wal: %w", err)
		}
		cl.bwal = bw
		for _, op := range rec.Ops {
			if op.Kind == wal.OpLink {
				cl.boundary[blog.Link{From: op.From, To: op.To}] = struct{}{}
			}
		}
	}
	for i := 0; i < opts.Shards; i++ {
		sh := &shardSlot{idx: i}
		// The spill queue opens before the engine: a crash mid-replay
		// leaves spilled records on disk, and the shard must come up
		// Recovering (breaker open) until they drain back in.
		spillDir := ""
		if opts.DataDir != "" {
			spillDir = filepath.Join(opts.DataDir, fmt.Sprintf("spill-%d", i))
		}
		q, err := newSpillQueue(opts.SpillLimit, spillDir, cl.shardFS(i))
		if err != nil {
			cl.closeShards(len(cl.shards))
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh.spill = q
		e, err := core.NewEngine(parts[i], cl.shardEngineOpts(i))
		if err != nil {
			q.close()
			cl.closeShards(len(cl.shards))
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh.eng.Store(e)
		if len(q.pending()) > 0 {
			sh.health.Store(int32(HealthRecovering))
		}
		cl.shards = append(cl.shards, sh)
	}
	// Persist preload boundary edges not already recovered from the log.
	for _, l := range boundary {
		if err := cl.addBoundary(l); err != nil {
			cl.closeShards(len(cl.shards))
			return nil, err
		}
	}
	// Seed post routing from what the shards actually hold — covers both
	// the preload split and WAL-recovered state uniformly — plus what sits
	// in their spill queues, so comments on a spilled post route correctly
	// before the replay lands.
	for i, sh := range cl.shards {
		for pid := range sh.eng.Load().Current().Corpus().Posts() {
			cl.postOwner[pid] = i
		}
		for _, op := range sh.spill.pending() {
			if op.Kind == wal.OpPost && op.Post != nil {
				cl.postOwner[op.Post.ID] = i
			}
		}
	}
	cl.pubMu.Lock()
	cl.hub = subs.NewHub(cl.generation())
	cl.pubMu.Unlock()
	go cl.supervise()
	cl.kickSupervisor() // drain any boot-recovered spill promptly
	return cl, nil
}

// publish hands the subscription hub the current view as its newest
// generation. It runs after every shard publish (the engines'
// OnPublish) and on every breaker transition, so a subscription serves
// what POST /api/v1/query serves. A no-op while New is still booting.
func (cl *Cluster) publish() {
	cl.pubMu.Lock()
	defer cl.pubMu.Unlock()
	if cl.hub != nil {
		cl.hub.Publish(cl.generation())
	}
}

// generation binds the current view: Cluster.Query at it, its seq vector
// at several shards, and seq Σ shard seqs — the engine's seq at one
// shard, which the hub raises past the last generation's when a shard
// restart or a breaker transition would not move it.
func (cl *Cluster) generation() subs.Generation {
	v := cl.View()
	gen := subs.Generation{Query: func(q *query.Query) (*query.Result, bool, error) { return cl.Query(v, q) }}
	for _, s := range v.Snaps {
		gen.Seq += s.Seq
	}
	if len(v.Snaps) > 1 {
		gen.Seqs = v.Seqs()
	}
	return gen
}

func (cl *Cluster) closeShards(n int) {
	for i := 0; i < n && i < len(cl.shards); i++ {
		cl.shards[i].eng.Load().Close()
		cl.shards[i].spill.close()
	}
	if cl.bwal != nil {
		cl.bwal.Close()
	}
}

// checkManifest validates (or writes) the data directory's ring geometry.
func (cl *Cluster) checkManifest() error {
	if err := os.MkdirAll(cl.opts.DataDir, 0o777); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	path := filepath.Join(cl.opts.DataDir, "cluster.json")
	want := manifest{Shards: cl.opts.Shards, VirtualNodes: cl.ring.VirtualNodes()}
	raw, err := os.ReadFile(path)
	if err == nil {
		var got manifest
		if err := json.Unmarshal(raw, &got); err != nil {
			return fmt.Errorf("cluster: corrupt manifest %s: %w", path, err)
		}
		if got != want {
			return fmt.Errorf("cluster: data dir built for %d shards x %d vnodes, reopened with %d x %d — resharding requires a rebuild",
				got.Shards, got.VirtualNodes, want.Shards, want.VirtualNodes)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("cluster: %w", err)
	}
	raw, _ = json.Marshal(want)
	if err := os.WriteFile(path, append(raw, '\n'), 0o666); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// splitCorpus partitions a preload corpus by ring ownership: full blogger
// profiles to their owner shard, posts (comments ride inside them) to the
// author's shard with commenter stubs admitted alongside, intra-shard
// links to the common owner, cross-shard links to the boundary set — with
// endpoint stubs admitted on each endpoint's own shard so the merged node
// set stays exactly the global one.
func splitCorpus(c *blog.Corpus, ring *Ring) (parts []*blog.Corpus, boundary []blog.Link) {
	n := ring.Shards()
	if c == nil {
		c = blog.NewCorpus()
	}
	if n == 1 {
		return []*blog.Corpus{c}, nil
	}
	parts = make([]*blog.Corpus, n)
	for i := range parts {
		parts[i] = blog.NewCorpus()
	}
	stub := func(shard int, id blog.BloggerID) {
		if _, ok := parts[shard].Bloggers[id]; !ok {
			parts[shard].AddBlogger(&blog.Blogger{ID: id})
		}
	}
	// Full profiles first so the stub admissions below never shadow them.
	for id, b := range c.Bloggers {
		parts[ring.Owner(string(id))].AddBlogger(b)
	}
	// A profile's friend list must resolve on its own shard (Validate
	// enforces referential integrity per corpus), so friends of an owned
	// blogger are stubbed alongside — mirroring the engine ingest paths,
	// which self-stub unknown friends.
	for id, b := range c.Bloggers {
		s := ring.Owner(string(id))
		for _, f := range b.Friends {
			stub(s, f)
		}
	}
	for _, p := range c.Posts {
		s := ring.Owner(string(p.Author))
		stub(s, p.Author)
		for _, cm := range p.Comments {
			stub(s, cm.Commenter)
		}
		parts[s].AddPost(p)
	}
	for _, l := range c.Links {
		sf, st := ring.Owner(string(l.From)), ring.Owner(string(l.To))
		stub(sf, l.From)
		stub(st, l.To)
		if sf == st {
			parts[sf].Links = append(parts[sf].Links, l)
		} else {
			boundary = append(boundary, l)
		}
	}
	return parts, boundary
}

// Owner reports the shard owning a blogger ID.
func (cl *Cluster) Owner(id blog.BloggerID) int { return cl.ring.Owner(string(id)) }

// NumShards reports the shard count.
func (cl *Cluster) NumShards() int { return len(cl.shards) }

// Shard returns shard i's current engine. After a supervised restart this
// is the replacement engine, so callers must not cache the pointer across
// calls when they care about liveness.
func (cl *Cluster) Shard(i int) *core.Engine { return cl.shards[i].eng.Load() }

// BoundaryEdges reports the current cross-shard edge count.
func (cl *Cluster) BoundaryEdges() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.boundary)
}

// boundarySnapshot copies the boundary set, sorted for determinism.
func (cl *Cluster) boundarySnapshot() []blog.Link {
	cl.mu.Lock()
	out := make([]blog.Link, 0, len(cl.boundary))
	for l := range cl.boundary {
		out = append(out, l)
	}
	cl.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// addBoundary admits one cross-shard edge: dedup into the set and append
// to the boundary WAL. Its endpoints' stubs are the caller's to admit.
func (cl *Cluster) addBoundary(l blog.Link) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, dup := cl.boundary[l]; dup {
		return nil
	}
	if cl.bwal != nil {
		if err := cl.bwal.Append(wal.Op{Kind: wal.OpLink, From: l.From, To: l.To}); err != nil {
			return err
		}
	}
	cl.boundary[l] = struct{}{}
	return nil
}

// AddBatch routes one ingest batch across the shards (see write).
func (cl *Cluster) AddBatch(b core.Batch) error { return cl.write(core.BatchWrite, b.Ops()) }

// IngestPage routes one crawled page across the shards (see write).
// Implements crawler.Sink, so a streaming crawl can feed the cluster
// directly.
func (cl *Cluster) IngestPage(page *blogserver.Page) error {
	if page == nil {
		return fmt.Errorf("cluster: nil page")
	}
	return cl.write(core.PageWrite, core.PageOps(page))
}

// write routes one write's ops once (see route) and applies each shard's
// part, then the stubs for cross-shard links, then the links themselves.
// Atomicity is per shard, not global: a part one shard rejects does not
// undo parts already applied on others (the error still reports it). A
// write is shed with OverloadError only before any of it is applied: every
// target shard's spill capacity is checked against the plan first, and
// once one part has landed the rest spill past SpillLimit if they must —
// so a shed write is always safe to retry.
func (cl *Cluster) write(mode core.WriteMode, ops []wal.Op) error {
	parts, stubs, cross, err := cl.route(ops)
	if err != nil {
		return err
	}
	for s, sh := range cl.shards {
		// Only a down target can shed; a shard the write does not touch,
		// or a healthy one, is never locked here.
		if len(parts[s])+len(stubs[s]) == 0 || !sh.breakerOpen() {
			continue
		}
		sh.mu.Lock()
		full := sh.breakerOpen() && len(sh.spill.pending())+len(parts[s])+len(stubs[s]) > cl.opts.SpillLimit
		sh.mu.Unlock()
		if full {
			return cl.partErr(s, cl.shed(sh))
		}
	}
	landed := false
	apply := func(s int, mode core.WriteMode, ops []wal.Op) error {
		if len(ops) == 0 {
			return nil
		}
		if err := cl.applyShard(cl.shards[s], mode, ops, landed); err != nil {
			return cl.partErr(s, err)
		}
		landed = true
		cl.mu.Lock()
		for _, op := range ops {
			if op.Kind == wal.OpPost && op.Post != nil {
				cl.postOwner[op.Post.ID] = s
			}
		}
		cl.mu.Unlock()
		return nil
	}
	for s := range cl.shards {
		if err := apply(s, mode, parts[s]); err != nil {
			return err
		}
	}
	for s := range cl.shards {
		if err := apply(s, core.StubWrite, stubs[s]); err != nil {
			return err
		}
	}
	for _, l := range cross {
		if err := cl.addBoundary(l); err != nil {
			return err
		}
	}
	return nil
}

// route splits a write's ops along ring ownership: bloggers and
// intra-shard links to their owner, posts to their author's shard,
// comments to their post's. A cross-shard link goes to the boundary set,
// with a stub for each endpoint on its owner shard so the merged node set
// stays exactly the global one. At one shard every op routes to shard 0,
// so the engine judges the whole write. At several, a comment on a post
// the cluster has never seen cannot be routed and is rejected here.
func (cl *Cluster) route(ops []wal.Op) (parts, stubs [][]wal.Op, cross []blog.Link, err error) {
	parts, stubs = make([][]wal.Op, len(cl.shards)), make([][]wal.Op, len(cl.shards))
	stub := func(s int, id blog.BloggerID) {
		stubs[s] = append(stubs[s], wal.Op{Kind: wal.OpBlogger, Blogger: &blog.Blogger{ID: id}})
	}
	posts := make(map[blog.PostID]int)
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, op := range ops {
		s := 0
		switch {
		case op.Kind == wal.OpBlogger && op.Blogger != nil:
			s = cl.Owner(op.Blogger.ID)
		case op.Kind == wal.OpPost && op.Post != nil:
			s = cl.Owner(op.Post.Author)
			posts[op.Post.ID] = s
		case op.Kind == wal.OpComment:
			var ok bool
			if s, ok = posts[op.PostID]; !ok {
				if s, ok = cl.postOwner[op.PostID]; !ok && len(cl.shards) > 1 {
					return nil, nil, nil, fmt.Errorf("core: comment on unknown post %q", op.PostID)
				}
			}
		case op.Kind == wal.OpLink:
			s = cl.Owner(op.From)
			if t := cl.Owner(op.To); t != s {
				if op.From == "" || op.To == "" {
					return nil, nil, nil, fmt.Errorf("cluster: link endpoints must be non-empty")
				}
				stub(s, op.From)
				stub(t, op.To)
				cross = append(cross, blog.Link{From: op.From, To: op.To})
				continue
			}
		}
		parts[s] = append(parts[s], op)
	}
	return parts, stubs, cross, nil
}

// partErr attributes shard s's rejection of its part of a write. A
// one-shard cluster is a bare engine, so the engine's error passes through
// unchanged.
func (cl *Cluster) partErr(s int, err error) error {
	if len(cl.shards) == 1 {
		return err
	}
	return fmt.Errorf("cluster: shard %d: %w", s, err)
}

// Subscriptions is the cluster's continuous-query hub: a standing query
// registered here is evaluated through Query at the newest cluster view
// when its consumer reads, at any shard count.
func (cl *Cluster) Subscriptions() *subs.Hub { return cl.hub }

// Refresh forces every shard to fold in its pending mutations and publish.
// Shards with an open breaker are skipped — their engine is mid-teardown
// or mid-recovery, and the supervisor republishes them on rejoin.
func (cl *Cluster) Refresh(ctx context.Context) error {
	for _, sh := range cl.shards {
		if sh.breakerOpen() {
			continue
		}
		if err := sh.eng.Load().Refresh(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close ends every subscription, stops the supervisor, drains the shards
// one by one — each engine's Close runs a final flush and checkpoint —
// then closes the spill queues and the boundary WAL.
func (cl *Cluster) Close() error {
	cl.hub.Shutdown()
	cl.closeOnce.Do(func() { close(cl.supQuit) })
	<-cl.supDone
	var first error
	for _, sh := range cl.shards {
		if err := sh.eng.Load().Close(); err != nil && first == nil {
			first = err
		}
		if err := sh.spill.close(); err != nil && first == nil {
			first = err
		}
	}
	if cl.bwal != nil {
		if err := cl.bwal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Status aggregates per-shard health into the single-engine shape: with
// one shard it is exactly that engine's status; with several, counters
// sum, Seq/LastAnalysis take the max, Converged ANDs, and the corpus
// totals count each blogger once (by ownership) even though link stubs
// replicate across shards. Links adds the boundary edges no shard holds.
// The subscription counters come from the cluster's hub.
func (cl *Cluster) Status() core.EngineStatus {
	if len(cl.shards) == 1 {
		out := cl.shards[0].eng.Load().Status()
		out.Subscribers, out.PushedDiffs, out.FullEvalFallbacks = cl.hub.Stats()
		return out
	}
	var out core.EngineStatus
	out.Converged = true
	out.PageRankSkipped = true
	out.RecoveryTruncatedAt = -1
	for _, sh := range cl.shards {
		e := sh.eng.Load()
		st := e.Status()
		if st.Seq > out.Seq {
			out.Seq = st.Seq
		}
		out.Pending += st.Pending
		out.TotalMutations += st.TotalMutations
		out.Posts += st.Posts
		out.Links += st.Links
		if st.LastAnalysis > out.LastAnalysis {
			out.LastAnalysis = st.LastAnalysis
		}
		if st.Iterations > out.Iterations {
			out.Iterations = st.Iterations
		}
		out.Converged = out.Converged && st.Converged
		out.ReusedPosteriors += st.ReusedPosteriors
		out.ReusedNovelty += st.ReusedNovelty
		out.ReusedSentiments += st.ReusedSentiments
		out.PageRankSkipped = out.PageRankSkipped && st.PageRankSkipped
		out.PageRankDelta += st.PageRankDelta
		out.PageRankFallback += st.PageRankFallback
		out.PageRankPushed += st.PageRankPushed
		out.WALRecords += st.WALRecords
		out.WALSyncs += st.WALSyncs
		out.Checkpoints += st.Checkpoints
		out.RecoveredRecords += st.RecoveredRecords
		if st.RecoveryTruncatedAt > out.RecoveryTruncatedAt {
			out.RecoveryTruncatedAt = st.RecoveryTruncatedAt
		}
		out.Closed = out.Closed || st.Closed
		if out.LastError == "" {
			out.LastError = st.LastError
		}
		// Count owned bloggers only: link stubs replicate a blogger onto
		// shards that merely point at it.
		out.Bloggers += e.Current().Owned().Count
	}
	out.Links += cl.BoundaryEdges()
	out.Subscribers, out.PushedDiffs, out.FullEvalFallbacks = cl.hub.Stats()
	return out
}

// Progress reports what an ingest acknowledgment carries — mutations
// pending across the shards and the highest published generation, the
// Pending and Seq of Status — without Status's per-shard status pass.
func (cl *Cluster) Progress() (pending int, seq uint64) {
	for _, sh := range cl.shards {
		e := sh.eng.Load()
		pending += e.Pending()
		seq = max(seq, e.Current().Seq)
	}
	return pending, seq
}

// ClusterStatus is Status plus the cluster-only counters (the
// /api/v1/engine payload extension at shards > 1).
type ClusterStatus struct {
	core.EngineStatus
	Shards          int      `json:"shards"`
	ShardSeqs       []uint64 `json:"shardSeqs"`
	ScatterQueries  uint64   `json:"scatterQueries"`
	DegradedQueries uint64   `json:"degradedQueries"`
	BoundaryEdges   int      `json:"boundaryEdges"`
	MergeFallbacks  uint64   `json:"mergeFallbacks"`
	// Supervision: per-shard lifecycle states plus the breaker, restart,
	// spill/replay and shedding counters.
	ShardHealth     []string `json:"shardHealth"`
	BreakerOpens    uint64   `json:"breakerOpens"`
	ShardRestarts   uint64   `json:"shardRestarts"`
	SpilledRecords  uint64   `json:"spilledRecords"`
	ReplayedRecords uint64   `json:"replayedRecords"`
	ShedRequests    uint64   `json:"shedRequests"`
	SpillPending    int      `json:"spillPending"`
}

// FullStatus reports Status plus the cluster-level counters.
func (cl *Cluster) FullStatus() ClusterStatus {
	seqs := make([]uint64, len(cl.shards))
	health := make([]string, len(cl.shards))
	pending := 0
	for i, sh := range cl.shards {
		seqs[i] = sh.eng.Load().Current().Seq
		health[i] = sh.healthState().String()
		sh.mu.Lock()
		pending += len(sh.spill.pending())
		sh.mu.Unlock()
	}
	return ClusterStatus{
		EngineStatus:    cl.Status(),
		Shards:          len(cl.shards),
		ShardSeqs:       seqs,
		ScatterQueries:  cl.scatterQueries.Load(),
		DegradedQueries: cl.degradedQueries.Load(),
		BoundaryEdges:   cl.BoundaryEdges(),
		MergeFallbacks:  cl.mergeFallbacks.Load(),
		ShardHealth:     health,
		BreakerOpens:    cl.breakerOpens.Load(),
		ShardRestarts:   cl.shardRestarts.Load(),
		SpilledRecords:  cl.spilledRecords.Load(),
		ReplayedRecords: cl.replayedRecords.Load(),
		ShedRequests:    cl.shedRequests.Load(),
		SpillPending:    pending,
	}
}

// ShardReadiness is one shard's row in the healthz readiness report.
type ShardReadiness struct {
	Shard  int    `json:"shard"`
	Health string `json:"health"`
	// Durability is "ok", "failed" (the WAL hit its sticky fail-stop), or
	// "off" (in-memory shard).
	Durability string `json:"durability"`
	Seq        uint64 `json:"seq"`
	// SpillPending counts acknowledged ops waiting to replay into this
	// shard.
	SpillPending int    `json:"spillPending,omitempty"`
	Restarts     uint64 `json:"restarts,omitempty"`
}

// Readiness reports per-shard health + durability for /api/v1/healthz,
// and whether the cluster as a whole has lost durability (every durable
// shard fail-stopped — the 503 condition; an in-memory cluster is never
// fail-stopped).
func (cl *Cluster) Readiness() (shards []ShardReadiness, failStopped bool) {
	shards = make([]ShardReadiness, len(cl.shards))
	durable, failed := 0, 0
	for i, sh := range cl.shards {
		e := sh.eng.Load()
		r := ShardReadiness{
			Shard:    i,
			Health:   sh.healthState().String(),
			Seq:      e.Current().Seq,
			Restarts: sh.restarts.Load(),
		}
		switch {
		case !e.Durable():
			r.Durability = "off"
		case e.DurabilityErr() != nil:
			r.Durability = "failed"
			durable++
			failed++
		default:
			r.Durability = "ok"
			durable++
		}
		sh.mu.Lock()
		r.SpillPending = len(sh.spill.pending())
		sh.mu.Unlock()
		shards[i] = r
	}
	return shards, durable > 0 && failed == durable
}
