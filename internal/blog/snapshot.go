package blog

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
)

// Copy-on-write corpus snapshotting.
//
// A live ingestion engine mutates one corpus while query traffic reads a
// frozen view of it. Snapshot produces that view cheaply: the entity maps
// and the link slice are copied so the two corpora are structurally
// independent, but the Blogger and Post structs themselves are shared. The
// contract that makes sharing safe is copy-on-write on the mutable side:
// after taking a snapshot, the owner must never modify a shared entity in
// place — it replaces the map entry with an edited clone (AddComment and
// UpsertBlogger below do exactly that). Readers of the snapshot therefore
// never observe a torn or changing entity.

// Snapshot returns an independent read-only view of the corpus. The
// returned corpus owns fresh entity maps and a fresh Links slice; only the
// *Blogger and *Post structs are shared with the receiver. Continue
// mutating the receiver exclusively through the COW helpers (AddBlogger,
// AddPost, AddComment, AddLink, UpsertBlogger) and the snapshot stays
// immutable.
func (c *Corpus) Snapshot() *Corpus {
	s := &Corpus{
		Bloggers:  maps.Clone(c.Bloggers),
		Posts:     maps.Clone(c.Posts),
		Links:     slices.Clone(c.Links),
		linkEpoch: c.linkEpoch,
		journal:   c.Journal(),
		forked:    true,
	}
	// The snapshot has the same link epoch, so an already-built link view
	// stays valid for it (LinkView revalidates by epoch). Views are
	// immutable once published, so sharing the pointer is safe.
	s.linkView.Store(c.linkView.Load())
	return s
}

// AddComment appends a comment to an existing post, copy-on-write: the post
// struct is cloned and the map entry replaced, so snapshots sharing the old
// struct are unaffected. The commenter must already exist.
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
	return nil
}

// Mutation journal. Every corpus records, in mutation order, the bloggers
// added, the posts added and the post of every comment appended, so an
// incremental consumer (the influence analysis cache) can remember its
// position and later read only the entries past it. NewCorpus, Reindex
// and FromParts start a new lineage; a snapshot shares its origin's
// journal, capped to its own length, until its own first mutation forks
// it onto a new lineage.

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
// graph records: a snapshot's first mutation forks it onto a new lineage.
func (c *Corpus) mutating() {
	if c.forked {
		c.forked, c.journal.Lineage = false, lineages.Add(1)
	}
}
