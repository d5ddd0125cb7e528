package blog

import (
	"fmt"
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

	// linkView caches the generation's link view (see LinkViewFrom).
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

// Validate checks the generation's referential integrity: every post
// author, commenter, link endpoint and friend must exist, IDs must be
// non-empty and match their map keys, and no link may be a self-link. It
// returns the first problem found.
func (f *Frozen) Validate() error {
	known := func(id BloggerID) bool { return f.Blogger(id) != nil }
	for id, b := range f.Bloggers() {
		if id == "" || b == nil || b.ID != id {
			return fmt.Errorf("blog: blogger map entry %q inconsistent", id)
		}
		for _, fr := range b.Friends {
			if !known(fr) {
				return fmt.Errorf("blog: blogger %q has unknown friend %q", id, fr)
			}
		}
	}
	for id, p := range f.Posts() {
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
	for _, l := range f.links {
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

// LinkCSR returns the frozen CSR view of the hyperlink graph: nodes are
// the generation's bloggers in sorted-ID order (so dense index i is
// exactly position i of BloggerIDs), edges are the deduplicated Links. It
// is the flat rendering of the generation's link view (LinkViewFrom).
func (f *Frozen) LinkCSR() *graph.CSR { return f.LinkViewFrom(nil).CSR() }

// LinkViewFrom returns the generation's incremental link-graph view,
// building it on first use and caching it on the generation; later calls
// return the cached view whatever prev they pass. When prev is a view of
// the same lineage with the same node set, the view is built by cloning
// prev's overlay and applying only the Links appended since prev, in
// O(delta), which keeps a link-batch flush from paying O(graph).
// Otherwise (nil prev, a blogger-set change, a Reindex, or an overlay
// past the compaction threshold) it freezes a fresh base CSR.
func (f *Frozen) LinkViewFrom(prev *LinkView) *LinkView {
	if v := f.linkView.Load(); v != nil {
		return v
	}
	v := f.buildLinkView(prev)
	f.linkView.Store(v)
	return v
}

// buildLinkView is LinkViewFrom's uncached build. Node count equality
// implies node set equality within a lineage, because the corpus API
// never removes bloggers without a Reindex.
func (f *Frozen) buildLinkView(prev *LinkView) *LinkView {
	v := &LinkView{lineage: f.journal.Lineage, nLinks: len(f.links)}
	if prev == nil || prev.lineage != v.lineage || prev.nLinks > len(f.links) || prev.delta.NumNodes() != f.NumBloggers() {
		v.delta = graph.NewDeltaCSR(f.BloggerGraph(func(add func(from, to BloggerID)) {
			for _, l := range f.links {
				add(l.From, l.To)
			}
		}))
		return v
	}
	base := prev.delta.Base()
	d := prev.delta.Clone()
	for _, l := range f.links[prev.nLinks:] {
		fi, okF := base.Index(string(l.From))
		ti, okT := base.Index(string(l.To))
		if !okF || !okT {
			// Unknown endpoints can only appear in a generation that fails
			// Validate; dropping the edge matches the fresh build.
			continue
		}
		d.AddEdge(int32(fi), int32(ti))
	}
	if d.OverlaySize() > linkCompactThreshold(base.NumEdges()) {
		d = graph.NewDeltaCSR(d.Compact())
	}
	v.delta = d
	return v
}

// BloggerGraph freezes the blogger-to-blogger edges that edges passes to
// add into a CSR whose nodes are the generation's bloggers in sorted-ID
// order, so dense index i is position i of BloggerIDs. Parallel edges
// collapse. An edge with an endpoint outside the blogger set, which only
// a generation that fails Validate can hold, is dropped.
func (f *Frozen) BloggerGraph(edges func(add func(from, to BloggerID))) *graph.CSR {
	bloggers := f.BloggerIDs()
	ids := make([]string, len(bloggers))
	idx := make(map[BloggerID]int32, len(bloggers))
	for i, id := range bloggers {
		ids[i] = string(id)
		idx[id] = int32(i)
	}
	var from, to []int32
	edges(func(a, b BloggerID) {
		fi, okF := idx[a]
		ti, okT := idx[b]
		if okF && okT {
			from = append(from, fi)
			to = append(to, ti)
		}
	})
	return graph.NewCSR(ids, from, to)
}
