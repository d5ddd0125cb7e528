package blog

import (
	"iter"
	"maps"
	"sync/atomic"

	"mass/internal/graph"
)

// Frozen is one read-only generation of a corpus, taken by
// Corpus.Snapshot: a shared base plus the overlay of entities written
// since it (see Snapshot). Every method is safe for concurrent use, and
// the generation never changes once taken.
type Frozen struct {
	base      *frozenBase
	ov        overlay
	links     []Link
	linkEpoch uint64
	journal   Journal

	// linkView caches the link view for linkEpoch, as on Corpus.
	linkView atomic.Pointer[LinkView]
}

// Blogger returns the blogger with the given ID, nil when there is none.
func (f *Frozen) Blogger(id BloggerID) *Blogger {
	if b, ok := f.ov.bloggers[id]; ok {
		return b
	}
	return f.base.bloggers[id]
}

// Post returns the post with the given ID, nil when there is none.
func (f *Frozen) Post(id PostID) *Post {
	if p, ok := f.ov.posts[id]; ok {
		return p
	}
	return f.base.posts[id]
}

// NumBloggers reports how many bloggers the generation holds.
func (f *Frozen) NumBloggers() int { return len(f.base.bloggers) + f.ov.newBloggers }

// NumPosts reports how many posts the generation holds.
func (f *Frozen) NumPosts() int { return len(f.base.posts) + f.ov.newPosts }

// Bloggers ranges every blogger once, in no particular order.
func (f *Frozen) Bloggers() iter.Seq2[BloggerID, *Blogger] {
	return merged(f.base.bloggers, f.ov.bloggers)
}

// Posts ranges every post once, in no particular order.
func (f *Frozen) Posts() iter.Seq2[PostID, *Post] { return merged(f.base.posts, f.ov.posts) }

// merged ranges base's entries that over does not shadow, then over's.
// With an empty overlay it is base's own iterator.
func merged[K comparable, V any](base, over map[K]V) iter.Seq2[K, V] {
	if len(over) == 0 {
		return maps.All(base)
	}
	return func(yield func(K, V) bool) {
		for k, v := range base {
			if _, shadowed := over[k]; !shadowed && !yield(k, v) {
				return
			}
		}
		for k, v := range over {
			if !yield(k, v) {
				return
			}
		}
	}
}

// BloggerIDs returns all blogger IDs in sorted order.
func (f *Frozen) BloggerIDs() []BloggerID { return sortedKeys(f.Bloggers(), f.NumBloggers()) }

// PostIDs returns all post IDs in sorted order.
func (f *Frozen) PostIDs() []PostID { return sortedKeys(f.Posts(), f.NumPosts()) }

// Links returns the generation's link records, in insertion order. The
// slice is shared and capped; do not modify it.
func (f *Frozen) Links() []Link { return f.links }

// Journal returns the journal as of the generation (see Corpus.Journal).
func (f *Frozen) Journal() Journal { return f.journal }

// LinkEpoch returns the link epoch the generation was taken at (see
// Corpus.LinkEpoch).
func (f *Frozen) LinkEpoch() uint64 { return f.linkEpoch }

// Validate checks the generation's referential integrity, as
// Corpus.Validate does.
func (f *Frozen) Validate() error {
	return validate(func(id BloggerID) bool { return f.Blogger(id) != nil }, f.Bloggers(), f.Posts(), f.links)
}

// LinkCSR is Corpus.LinkCSR for the generation.
func (f *Frozen) LinkCSR() *graph.CSR { return f.LinkViewFrom(nil).CSR() }

// LinkView is Corpus.LinkView for the generation.
func (f *Frozen) LinkView() *LinkView { return f.LinkViewFrom(nil) }

// LinkViewFrom is Corpus.LinkViewFrom for the generation: the view is
// cached on the generation per epoch.
func (f *Frozen) LinkViewFrom(prev *LinkView) *LinkView {
	return cachedLinkView(&f.linkView, f.linkGraph(), prev)
}

func (f *Frozen) linkGraph() linkGraph {
	return linkGraph{links: f.links, epoch: f.linkEpoch, lineage: f.journal.Lineage, nodes: f.NumBloggers(), ids: f.BloggerIDs}
}

// BloggerGraph freezes the blogger-to-blogger edges that edges passes to
// add into a CSR whose nodes are the generation's bloggers in sorted-ID
// order, so dense index i is position i of BloggerIDs. Parallel edges
// collapse. An edge with an endpoint outside the blogger set, which only
// a corpus that fails Validate can hold, is dropped.
func (f *Frozen) BloggerGraph(edges func(add func(from, to BloggerID))) *graph.CSR {
	return bloggerGraph(f.BloggerIDs(), edges)
}
