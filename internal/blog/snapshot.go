package blog

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
)

// Corpus generations.
//
// A live ingestion engine mutates one corpus while query traffic reads
// frozen generations of it. Snapshot freezes one, a *Frozen, at a cost
// proportional to what was written since the last compaction rather than
// to the corpus:
//
//   - a base holds clones of the two entity maps taken at the last
//     compaction, stamped with the journal lineage. Every generation until
//     the next compaction shares it.
//   - an overlay holds the bloggers and posts the API added or replaced
//     since the base. Snapshot clones it when it was written since the
//     previous snapshot, and hands out the previous clone otherwise.
//   - Links is shared as a capped prefix, because the API only appends.
//
// Snapshot rebuilds the base (compacts) when the overlay outgrows
// linkCompactThreshold of the base's entity count — an eighth, clamped to
// [64, 8192] — so compaction copies at most eight entries per entry
// written, amortized, and no overlay clone is larger than that bound. It
// also rebuilds the base when the lineage changed (Reindex, FromParts)
// and when the map sizes disagree with base plus overlay, which means a
// map was written around the API: such a corpus stays correct and pays a
// full copy per generation. An entry replaced around the API at an
// unchanged size is not seen before the next Reindex.
//
// The *Blogger and *Post structs are shared between the corpus and its
// generations. The contract that makes sharing safe is copy-on-write on
// the mutable side: the owner never modifies an entity in place once a
// generation may hold it; it replaces the map entry with an edited clone
// (AddComment and UpsertBlogger below do exactly that). Links is
// append-only for the same reason: to rewrite it, assign a new slice,
// then Reindex. Readers of a generation therefore never observe a torn or
// changing entity.

// frozenBase is the entity maps as of one compaction. It is never written
// after construction.
type frozenBase struct {
	lineage  uint64
	bloggers map[BloggerID]*Blogger
	posts    map[PostID]*Post
}

// overlay is the entities written since a base. newBloggers and newPosts
// count its entries whose IDs the base lacks (additions, as opposed to
// copy-on-write replacements), so base plus overlay sizes the corpus.
type overlay struct {
	bloggers              map[BloggerID]*Blogger
	posts                 map[PostID]*Post
	newBloggers, newPosts int
}

func (o overlay) size() int { return len(o.bloggers) + len(o.posts) }

// snapshotWork counts the map entries Snapshot copied: into bases by
// compaction, and into overlay clones.
type snapshotWork struct {
	compacted, cloned int
}

// Snapshot returns a read-only generation of the corpus. Continue
// mutating the receiver exclusively through the API (AddBlogger, AddPost,
// AddComment, AddLink, AddLinkDedup, UpsertBlogger) and the generation
// stays immutable. Safe to call concurrently with reads and other
// Snapshot calls, not with mutations.
func (c *Corpus) Snapshot() *Frozen {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	if b := c.base; b == nil || b.lineage != c.journal.Lineage ||
		len(c.Bloggers) != len(b.bloggers)+c.ov.newBloggers || len(c.Posts) != len(b.posts)+c.ov.newPosts ||
		c.ov.size() > linkCompactThreshold(len(b.bloggers)+len(b.posts)) {
		c.base = &frozenBase{lineage: c.journal.Lineage, bloggers: maps.Clone(c.Bloggers), posts: maps.Clone(c.Posts)}
		c.ov, c.shared, c.ovDirty = overlay{}, overlay{}, false
		c.work.compacted += len(c.Bloggers) + len(c.Posts)
	} else if c.ovDirty {
		c.shared = c.ov
		c.shared.bloggers, c.shared.posts = maps.Clone(c.ov.bloggers), maps.Clone(c.ov.posts)
		c.ovDirty = false
		c.work.cloned += c.ov.size()
	}
	return &Frozen{
		base:      c.base,
		ov:        c.shared,
		links:     slices.Clip(c.Links),
		linkEpoch: c.linkEpoch,
		journal:   c.Journal(),
	}
}

// wroteBlogger records b, just stored by the API, in the overlay; added
// reports that its ID is new to the corpus. Before the first Snapshot
// there is no base and nothing to record.
func (c *Corpus) wroteBlogger(b *Blogger, added bool) {
	if c.base == nil {
		return
	}
	if c.ov.bloggers == nil {
		c.ov.bloggers = map[BloggerID]*Blogger{}
	}
	c.ov.bloggers[b.ID] = b
	if added {
		c.ov.newBloggers++
	}
	c.ovDirty = true
}

// wrotePost is wroteBlogger for posts.
func (c *Corpus) wrotePost(p *Post, added bool) {
	if c.base == nil {
		return
	}
	if c.ov.posts == nil {
		c.ov.posts = map[PostID]*Post{}
	}
	c.ov.posts[p.ID] = p
	if added {
		c.ov.newPosts++
	}
	c.ovDirty = true
}

// Clone returns an independent mutable copy of the corpus in O(corpus):
// fresh entity maps and Links, the entity structs shared copy-on-write.
// The copy shares the journal until its first mutation forks it onto a
// new lineage.
func (c *Corpus) Clone() *Corpus {
	return &Corpus{
		Bloggers:  maps.Clone(c.Bloggers),
		Posts:     maps.Clone(c.Posts),
		Links:     slices.Clone(c.Links),
		linkEpoch: c.linkEpoch,
		journal:   c.Journal(),
		forked:    true,
	}
}

// AddComment appends a comment to an existing post, copy-on-write: the post
// struct is cloned and the map entry replaced, so generations sharing the
// old struct are unaffected. The commenter must already exist.
func (c *Corpus) AddComment(pid PostID, cm Comment) error {
	p, ok := c.Posts[pid]
	if !ok {
		return fmt.Errorf("blog: comment on unknown post %q", pid)
	}
	if _, ok := c.Bloggers[cm.Commenter]; !ok {
		return fmt.Errorf("blog: comment on %q by unknown commenter %q", pid, cm.Commenter)
	}
	c.mutating()
	clone := *p
	clone.Comments = append(append(make([]Comment, 0, len(p.Comments)+1), p.Comments...), cm)
	c.Posts[pid] = &clone
	c.wrotePost(&clone, false)
	c.journal.Comments = append(c.journal.Comments, pid)
	return nil
}

// AddLinkDedup records a hyperlink unless the identical edge already
// exists — crawls report most edges from both endpoints, and a live feed
// may re-deliver them.
func (c *Corpus) AddLinkDedup(from, to BloggerID) (added bool, err error) {
	if c.hasLink(Link{From: from, To: to}) {
		return false, nil
	}
	if err := c.AddLink(from, to); err != nil {
		return false, err
	}
	return true, nil
}

// UpsertBlogger inserts b, or enriches an existing entry copy-on-write:
// non-empty Name/Profile and a non-nil Friends list overwrite the stored
// values on a clone of the struct, never in place. This is the streaming
// crawler's "fill in the stub I created earlier" operation.
func (c *Corpus) UpsertBlogger(b *Blogger) error {
	if b == nil || b.ID == "" {
		return fmt.Errorf("blog: blogger must have a non-empty ID")
	}
	existing, ok := c.Bloggers[b.ID]
	if !ok {
		c.mutating()
		nb := *b
		nb.Friends = append([]BloggerID(nil), b.Friends...)
		c.Bloggers[b.ID] = &nb
		c.wroteBlogger(&nb, true)
		c.journal.Bloggers = append(c.journal.Bloggers, b.ID)
		c.linkEpoch++ // new graph node
		return nil
	}
	clone := *existing
	if b.Name != "" {
		clone.Name = b.Name
	}
	if b.Profile != "" {
		clone.Profile = b.Profile
	}
	if b.Friends != nil {
		clone.Friends = append([]BloggerID(nil), b.Friends...)
	}
	c.Bloggers[b.ID] = &clone
	c.wroteBlogger(&clone, false)
	return nil
}

// Mutation journal. Every corpus records, in mutation order, the bloggers
// added, the posts added and the post of every comment appended, so an
// incremental consumer (the influence analysis cache) can remember its
// position and later read only the entries past it. NewCorpus, Reindex
// and FromParts start a new lineage; a generation carries its corpus's
// journal, capped to its length, and a Clone shares it until its own
// first mutation forks it onto a new lineage.

// lineages hands out lineage tokens; 0 is never issued.
var lineages atomic.Uint64

// Journal is a read-only view of a corpus's mutation journal. Within one
// lineage, the shorter of two journals is a prefix of the longer.
type Journal struct {
	Lineage uint64
	// Bloggers and Posts are the IDs added, in order (sorted when Reindex
	// opened the lineage).
	Bloggers []BloggerID
	Posts    []PostID
	// Comments holds the post of every comment AddComment appended.
	Comments []PostID
}

// Journal returns the corpus's journal. The slices are shared and capped;
// do not modify them.
func (c *Corpus) Journal() Journal {
	j := c.journal
	return Journal{j.Lineage, slices.Clip(j.Bloggers), slices.Clip(j.Posts), slices.Clip(j.Comments)}
}

// mutating is called before every mutation that the journal or the link
// graph records: a clone's first mutation forks it onto a new lineage.
func (c *Corpus) mutating() {
	if c.forked {
		c.forked, c.journal.Lineage = false, lineages.Add(1)
	}
}
