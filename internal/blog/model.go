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
// and the link graph's epoch. Call Reindex after bulk mutation;
// the constructors and AddX helpers keep the journal and epoch current
// automatically. Snapshot freezes it into a read-only generation (Frozen).
type Corpus struct {
	Bloggers map[BloggerID]*Blogger
	Posts    map[PostID]*Post
	Links    []Link

	// linkSet holds every distinct edge of Links, so AddLink can tell a
	// duplicate (no epoch bump) from a new edge. It is nil after
	// construction, a Reindex or a Clone; the next AddLink or AddLinkDedup
	// rebuilds it from Links.
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

// LinkView pins one generation's incremental link-graph view: a DeltaCSR
// overlay over a frozen base CSR, plus the prefix of the generation's
// Links folded into it (see Frozen.LinkViewFrom). Views are immutable once
// published (the overlay is extended by cloning, never in place), so the
// generation that built a view and the analyzer's solver state, which
// extends it for the next generation, share it safely.
type LinkView struct {
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
	c.journal, c.forked = Journal{Lineage: lineages.Add(1), Bloggers: c.BloggerIDs(), Posts: sortedKeys(maps.All(c.Posts), len(c.Posts))}, false
	c.linkSet = nil
}

// BloggerIDs returns all blogger IDs in sorted order, for deterministic
// iteration.
func (c *Corpus) BloggerIDs() []BloggerID {
	return sortedKeys(maps.All(c.Bloggers), len(c.Bloggers))
}

func sortedKeys[K cmp.Ordered, V any](all iter.Seq2[K, V], n int) []K {
	ids := make([]K, 0, n)
	for id := range all {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
