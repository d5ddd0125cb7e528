// Package blog defines the data model of the blogosphere MASS analyzes:
// bloggers, posts, comments, and hyperlinks between blogs, assembled into a
// Corpus. Per-blogger facts (posts per author, comments made, link
// degrees) are not indexed here: the influence analysis derives them.
//
// A Corpus is the mutable side. Corpus.Snapshot freezes it into a Frozen
// generation, which every reader of published state takes: a base of map
// clones shared by all generations until the next compaction, plus an
// overlay of the entities written since, so freezing costs what was
// written since the base rather than the corpus (see snapshot.go).
//
// The model mirrors the paper's §II: a set of bloggers with their posts,
// the comments on the posts and the corresponding commenters, plus the
// external-link network that feeds the General-Links (GL) authority score.
package blog

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/graph"
)

// BloggerID identifies a blogger uniquely within a corpus.
type BloggerID string

// PostID identifies a post uniquely within a corpus.
type PostID string

// Comment is one comment left by Commenter on the enclosing post. Sentiment
// is not stored here; the comment analyzer derives it from Text.
type Comment struct {
	Commenter BloggerID `xml:"commenter,attr"`
	Text      string    `xml:"text"`
	Posted    time.Time `xml:"posted,attr"`
}

// Post is a single blog post by Author. Comments are in arrival order.
type Post struct {
	ID       PostID    `xml:"id,attr"`
	Author   BloggerID `xml:"author,attr"`
	Title    string    `xml:"title"`
	Body     string    `xml:"body"`
	Posted   time.Time `xml:"posted,attr"`
	Comments []Comment `xml:"comments>comment"`
	// Tags are the author's folksonomy labels on the post; tag-based
	// social interest discovery (paper reference [6]) mines interest
	// groups from them.
	Tags []string `xml:"tags>tag,omitempty"`
	// TrueDomain is the generator's planted ground-truth domain. Empty for
	// real crawls; used only for evaluation, never by the analyzer.
	TrueDomain string `xml:"trueDomain,attr,omitempty"`
}

// Blogger is one member of the blogosphere. Profile is free text (interests,
// bio) used by the personalized-recommendation scenario.
type Blogger struct {
	ID      BloggerID `xml:"id,attr"`
	Name    string    `xml:"name"`
	Profile string    `xml:"profile"`
	// Friends is the blogger's declared friend list (demo §IV: crawling may
	// be restricted to a friend network).
	Friends []BloggerID `xml:"friends>friend"`
}

// Link is a hyperlink from one blogger's space to another's ("when a person
// finds a blog interesting, s/he may directly add a link to it"). These
// links form the authority (GL) graph.
type Link struct {
	From BloggerID `xml:"from,attr"`
	To   BloggerID `xml:"to,attr"`
}

// Corpus is the mutable blogosphere: the entities, the mutation journal
// and the link graph's epoch and view. Call Reindex after bulk mutation;
// the constructors and AddX helpers keep the journal and epoch current
// automatically. Snapshot freezes it into a read-only generation (Frozen).
type Corpus struct {
	Bloggers map[BloggerID]*Blogger
	Posts    map[PostID]*Post
	Links    []Link

	// linkSet holds every distinct edge of Links, so AddLink can tell a
	// duplicate (no epoch bump) from a new edge. It is nil after
	// construction, a Reindex or a Snapshot; the next AddLink or
	// AddLinkDedup rebuilds it from Links.
	linkSet map[Link]struct{}

	// linkEpoch counts every mutation that can change the hyperlink graph
	// (blogger added, effective link added, reindex). Two corpora from the
	// same mutation lineage with equal epochs therefore have identical link
	// graphs, which lets an incremental analyzer skip re-running PageRank.
	linkEpoch uint64

	// journal records the mutations (see Journal). Links is a
	// prefix-extension of every earlier state of the same lineage, so
	// incremental link views extend across epochs only while the lineage
	// is unchanged. forked marks a snapshot whose next mutation must open
	// a new lineage.
	journal Journal
	forked  bool

	// linkView caches the incremental link-graph view for the current
	// linkEpoch (see LinkView). Generations inherit the pointer, so across
	// one epoch the whole lineage builds the view at most once.
	linkView atomic.Pointer[LinkView]

	// Generation state (see Snapshot). base is shared by every generation
	// since the last compaction (nil before the first Snapshot); ov holds
	// the entities the API wrote since it; shared is the overlay clone the
	// last generation got, handed out again while ovDirty is false.
	// snapMu serializes Snapshot calls, which update these fields.
	snapMu  sync.Mutex
	base    *frozenBase
	ov      overlay
	shared  overlay
	ovDirty bool
	work    snapshotWork
}

// LinkView pins one link epoch's incremental graph view: a DeltaCSR
// overlay over a frozen base CSR, plus the prefix of Corpus.Links folded
// into it. Views are immutable once published (the overlay is extended by
// cloning, never in place), so one view can be shared by the live corpus,
// its snapshots, and the analyzer's solver state simultaneously.
type LinkView struct {
	epoch   uint64
	lineage uint64
	nLinks  int
	delta   *graph.DeltaCSR

	// flat is the lazily compacted plain-CSR rendering of the view, for
	// consumers that need sorted rows (baselines, GlobalPageRank) or a
	// warm-sweep fallback. Built at most once per view; concurrent
	// racing builders store equivalent results and one wins.
	flat atomic.Pointer[graph.CSR]
}

// Delta returns the view's incremental overlay (immutable; do not mutate).
func (v *LinkView) Delta() *graph.DeltaCSR { return v.delta }

// CSR returns the flat CSR rendering of the view, compacting the overlay
// on first use and caching the result on the view.
func (v *LinkView) CSR() *graph.CSR {
	if f := v.flat.Load(); f != nil {
		return f
	}
	f := v.delta.Flatten()
	v.flat.Store(f)
	return f
}

// linkCompactThreshold is the overlay size at which an extended view is
// merged back into a fresh base CSR: an eighth of the base edge count,
// clamped to [64, 8192]. The lower clamp keeps tiny graphs from compacting
// on every flush; the upper one bounds the per-flush overlay clone cost,
// which is O(overlay), independently of graph size. Snapshot applies the
// same rule to the entity overlay over a generation's base.
func linkCompactThreshold(baseEdges int) int {
	t := baseEdges / 8
	if t < 64 {
		t = 64
	}
	if t > 8192 {
		t = 8192
	}
	return t
}

// LinkCSR returns the frozen CSR view of the hyperlink graph: nodes are
// the corpus's bloggers in sorted-ID order (so dense index i is exactly
// position i of BloggerIDs), edges are the deduplicated Links. The view is
// built once per link epoch and cached — generations taken at the same
// epoch share it, so a flush whose link graph is unchanged pays nothing
// here.
//
// Like every read method on Corpus, LinkCSR is safe to call concurrently
// with other reads but not with mutations; the ingestion engine only
// analyzes frozen generations (see Frozen).
func (c *Corpus) LinkCSR() *graph.CSR {
	return c.LinkViewFrom(nil).CSR()
}

// LinkView returns the incremental link-graph view for the current epoch,
// building a fresh one (empty overlay over a newly frozen base) if none is
// cached. Callers that can supply the previous epoch's view should prefer
// LinkViewFrom, which extends it in O(delta) instead.
func (c *Corpus) LinkView() *LinkView {
	return c.LinkViewFrom(nil)
}

// LinkViewFrom returns the link view for the corpus's current epoch. When
// prev is a view of the same lineage with the same node set, the new view
// is built by cloning prev's overlay and applying only the Links appended
// since prev — O(delta), the tentpole path that keeps a link-batch flush
// from paying O(graph). Otherwise (nil prev, a blogger-set change, a
// Reindex, or an overlay past the compaction threshold) it falls back to
// freezing a fresh base CSR — full invalidation, exactly the pre-delta
// behavior.
//
// The result is cached on the corpus per epoch and shared with the
// generations taken at that epoch. Like LinkCSR, safe concurrently with
// reads, not with mutations.
func (c *Corpus) LinkViewFrom(prev *LinkView) *LinkView {
	return cachedLinkView(&c.linkView, c.linkGraph(), prev)
}

func (c *Corpus) linkGraph() linkGraph {
	return linkGraph{links: c.Links, epoch: c.linkEpoch, lineage: c.journal.Lineage, nodes: len(c.Bloggers), ids: c.BloggerIDs}
}

// linkGraph is what a link view is built from: one corpus state's link
// records, node count and sorted node IDs, with its lineage and epoch.
// Corpus and Frozen both describe themselves as one.
type linkGraph struct {
	links          []Link
	epoch, lineage uint64
	nodes          int
	ids            func() []BloggerID
}

// cachedLinkView returns the view cached in slot when it is g's epoch's,
// and otherwise builds one (extending prev when it can) and caches it.
func cachedLinkView(slot *atomic.Pointer[LinkView], g linkGraph, prev *LinkView) *LinkView {
	if v := slot.Load(); v != nil && v.epoch == g.epoch && v.lineage == g.lineage {
		return v
	}
	v := g.build(prev)
	slot.Store(v)
	return v
}

// extendableFrom reports whether prev can seed an O(delta) extension for
// g: same append-only lineage, a Links prefix, and an unchanged node
// count. Node count equality implies node set equality within a lineage,
// because the corpus API never removes bloggers without a Reindex.
func (g linkGraph) extendableFrom(prev *LinkView) bool {
	return prev != nil &&
		prev.lineage == g.lineage &&
		prev.nLinks <= len(g.links) &&
		prev.delta.NumNodes() == g.nodes
}

func (g linkGraph) build(prev *LinkView) *LinkView {
	if g.extendableFrom(prev) {
		base := prev.delta.Base()
		d := prev.delta.Clone()
		for _, l := range g.links[prev.nLinks:] {
			fi, okF := base.Index(string(l.From))
			ti, okT := base.Index(string(l.To))
			if !okF || !okT {
				// Unknown endpoints can only appear in a corpus that fails
				// Validate; dropping the edge matches the fresh build.
				continue
			}
			d.AddEdge(int32(fi), int32(ti))
		}
		if d.OverlaySize() > linkCompactThreshold(base.NumEdges()) {
			d = graph.NewDeltaCSR(d.Compact())
		}
		return &LinkView{epoch: g.epoch, lineage: g.lineage, nLinks: len(g.links), delta: d}
	}

	csr := bloggerGraph(g.ids(), func(add func(from, to BloggerID)) {
		for _, l := range g.links {
			add(l.From, l.To)
		}
	})
	return &LinkView{
		epoch:   g.epoch,
		lineage: g.lineage,
		nLinks:  len(g.links),
		delta:   graph.NewDeltaCSR(csr),
	}
}

// bloggerGraph freezes the blogger-to-blogger edges that edges passes to
// add into a CSR whose nodes are bloggers, given in sorted-ID order, so
// dense index i is position i of bloggers. Parallel edges collapse. An
// edge with an endpoint outside the blogger set, which only a corpus that
// fails Validate can hold, is dropped.
func bloggerGraph(bloggers []BloggerID, edges func(add func(from, to BloggerID))) *graph.CSR {
	ids := make([]string, len(bloggers))
	idx := make(map[BloggerID]int32, len(bloggers))
	for i, id := range bloggers {
		ids[i] = string(id)
		idx[id] = int32(i)
	}
	var from, to []int32
	edges(func(f, t BloggerID) {
		fi, okF := idx[f]
		ti, okT := idx[t]
		if okF && okT {
			from = append(from, fi)
			to = append(to, ti)
		}
	})
	return graph.NewCSR(ids, from, to)
}

// LinkEpoch returns the corpus's link-graph mutation counter. Snapshots
// carry the epoch of the corpus they were taken from; an unchanged epoch
// between two snapshots of the same corpus lineage means the blogger set
// and link edges are identical.
func (c *Corpus) LinkEpoch() uint64 { return c.linkEpoch }

// NewCorpus returns an empty corpus with initialized maps.
func NewCorpus() *Corpus {
	return &Corpus{
		Bloggers: map[BloggerID]*Blogger{},
		Posts:    map[PostID]*Post{},
		journal:  Journal{Lineage: lineages.Add(1)},
	}
}

// AddBlogger inserts b. It returns an error on duplicate or empty ID.
func (c *Corpus) AddBlogger(b *Blogger) error {
	if b == nil || b.ID == "" {
		return fmt.Errorf("blog: blogger must have a non-empty ID")
	}
	if _, dup := c.Bloggers[b.ID]; dup {
		return fmt.Errorf("blog: duplicate blogger %q", b.ID)
	}
	c.mutating()
	c.Bloggers[b.ID] = b
	c.wroteBlogger(b, true)
	c.journal.Bloggers = append(c.journal.Bloggers, b.ID)
	// A new blogger is a new graph node (it changes the CSR node set and
	// the PageRank teleport denominator), so this bump is never spurious —
	// but it does force incremental consumers onto the fresh-base path.
	c.linkEpoch++
	return nil
}

// AddPost inserts p. The author and every commenter must already exist in
// the corpus.
func (c *Corpus) AddPost(p *Post) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("blog: post must have a non-empty ID")
	}
	if _, dup := c.Posts[p.ID]; dup {
		return fmt.Errorf("blog: duplicate post %q", p.ID)
	}
	if _, ok := c.Bloggers[p.Author]; !ok {
		return fmt.Errorf("blog: post %q has unknown author %q", p.ID, p.Author)
	}
	for i, cm := range p.Comments {
		if _, ok := c.Bloggers[cm.Commenter]; !ok {
			return fmt.Errorf("blog: post %q comment %d has unknown commenter %q", p.ID, i, cm.Commenter)
		}
	}
	c.mutating()
	c.Posts[p.ID] = p
	c.wrotePost(p, true)
	c.journal.Posts = append(c.journal.Posts, p.ID)
	return nil
}

// AddLink records a hyperlink between two existing bloggers. Self-links are
// rejected: a link to one's own space carries no authority signal.
func (c *Corpus) AddLink(from, to BloggerID) error {
	if from == to {
		return fmt.Errorf("blog: self-link %q rejected", from)
	}
	if _, ok := c.Bloggers[from]; !ok {
		return fmt.Errorf("blog: link from unknown blogger %q", from)
	}
	if _, ok := c.Bloggers[to]; !ok {
		return fmt.Errorf("blog: link to unknown blogger %q", to)
	}
	// An exact-duplicate edge cannot change the link graph — parallel edges
	// collapse in every CSR view — so it must not bump the epoch and
	// invalidate cached views (the link record itself is still kept, for
	// crawl fidelity on save/load). Only an effectively new edge bumps.
	c.mutating()
	l := Link{From: from, To: to}
	if !c.hasLink(l) {
		c.linkSet[l] = struct{}{}
		c.linkEpoch++
	}
	c.Links = append(c.Links, l)
	return nil
}

// hasLink reports whether Links already holds l, building linkSet first
// if it is nil.
func (c *Corpus) hasLink(l Link) bool {
	if c.linkSet == nil {
		c.linkSet = make(map[Link]struct{}, len(c.Links))
		for _, e := range c.Links {
			c.linkSet[e] = struct{}{}
		}
	}
	_, ok := c.linkSet[l]
	return ok
}

// Reindex restarts the corpus's derived state from Bloggers, Posts and
// Links. Call it after deserializing or bulk-editing a corpus. Bulk edits
// may have changed the link graph arbitrarily — including non-append
// rewrites of Links — so the link epoch advances and a new journal lineage
// starts, forcing incremental link views onto the fresh-base path and
// incremental analysis caches back to journal position 0.
func (c *Corpus) Reindex() {
	c.linkEpoch++
	c.journal, c.forked = Journal{Lineage: lineages.Add(1), Bloggers: c.BloggerIDs(), Posts: c.PostIDs()}, false
	c.linkSet = nil
}

// BloggerIDs returns all blogger IDs in sorted order, for deterministic
// iteration.
func (c *Corpus) BloggerIDs() []BloggerID {
	return sortedKeys(maps.All(c.Bloggers), len(c.Bloggers))
}

// PostIDs returns all post IDs in sorted order.
func (c *Corpus) PostIDs() []PostID {
	return sortedKeys(maps.All(c.Posts), len(c.Posts))
}

func sortedKeys[K cmp.Ordered, V any](all iter.Seq2[K, V], n int) []K {
	ids := make([]K, 0, n)
	for id := range all {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Validate checks referential integrity of the whole corpus: every post
// author, commenter, link endpoint and friend must exist, and IDs must be
// non-empty. It returns the first problem found.
func (c *Corpus) Validate() error {
	return validate(func(id BloggerID) bool { return c.Bloggers[id] != nil }, maps.All(c.Bloggers), maps.All(c.Posts), c.Links)
}

// validate is Validate over any corpus state: known reports whether a
// blogger ID resolves, and bloggers and posts range the entity maps.
func validate(known func(BloggerID) bool, bloggers iter.Seq2[BloggerID, *Blogger], posts iter.Seq2[PostID, *Post], links []Link) error {
	for id, b := range bloggers {
		if id == "" || b == nil || b.ID != id {
			return fmt.Errorf("blog: blogger map entry %q inconsistent", id)
		}
		for _, f := range b.Friends {
			if !known(f) {
				return fmt.Errorf("blog: blogger %q has unknown friend %q", id, f)
			}
		}
	}
	for id, p := range posts {
		if id == "" || p == nil || p.ID != id {
			return fmt.Errorf("blog: post map entry %q inconsistent", id)
		}
		if !known(p.Author) {
			return fmt.Errorf("blog: post %q has unknown author %q", id, p.Author)
		}
		for i, cm := range p.Comments {
			if !known(cm.Commenter) {
				return fmt.Errorf("blog: post %q comment %d unknown commenter %q", id, i, cm.Commenter)
			}
		}
	}
	for _, l := range links {
		if !known(l.From) {
			return fmt.Errorf("blog: link from unknown blogger %q", l.From)
		}
		if !known(l.To) {
			return fmt.Errorf("blog: link to unknown blogger %q", l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("blog: self-link on %q", l.From)
		}
	}
	return nil
}
