package influence

import (
	"slices"
	"time"

	"mass/internal/blog"
	"mass/internal/novelty"
	"mass/internal/sentiment"
)

// Serializable warm state.
//
// The analysis cache is what makes a flush cheap: tokenization, novelty
// shingles, classifier posteriors, comment sentiment and the GL PageRank
// vector all carry across analyses. CacheState is the exact serializable
// image of that cache, so a durability layer can checkpoint it next to the
// corpus and a restarted engine's first flush is as warm as the last flush
// before the crash. Export and restore are inverses by construction:
// RestoreCache(ch.ExportState()) reproduces every reuse decision the
// original cache would have made, including the novelty detector, which is
// rebuilt by re-indexing the persisted shingle sets (novelty.Observe) in
// the detector's insertion order. The scored values travel with the state,
// so no duplicate lookup is repeated. The insertion order need not be
// chronological: a post's score depends only on which posts are indexed
// and their posting times, never on the order they were inserted in, so
// a restored detector keeps taking back-dated posts as single inserts.

// CacheState is the serializable warm state of a Cache plus the published
// influence vector that warm-starts the fixed-point solver after recovery.
type CacheState struct {
	// Domains are the interned domain names in slot order; cached posterior
	// rows are dense prefixes over this order.
	Domains []string
	// Posts holds one entry per cached post, sorted by ID.
	Posts []PostFacetsState
	// NovOrder lists the posts the novelty detector indexes, in insertion
	// order; restoring replays it to rebuild the inverted shingle index.
	NovOrder []blog.PostID
	// GLBloggers/GL are the cached PageRank vector and the sorted blogger
	// list it is aligned to (empty when no solve has completed).
	GLBloggers []blog.BloggerID
	GL         []float64
	// InfBloggers/Influence carry the last published Inf(b) scores, aligned
	// pairwise — the solver's warm start after recovery. They live here
	// rather than in the cache because the cache never stores solver output.
	InfBloggers []blog.BloggerID
	Influence   []float64
}

// PostFacetsState is the serializable image of one post's cached facets.
type PostFacetsState struct {
	ID blog.PostID
	// Posted is the post's posting time. A durable snapshot does not store
	// it twice: its decoder fills it in from the snapshot's corpus.
	Posted    time.Time
	Words     float64
	Tokenized bool

	HasPrepared bool
	Shingles    []uint64 // sorted shingle hashes (textutil.ShingleHashes)
	Indicator   float64

	// HasNov/Nov carry the post's scored novelty value; every post in
	// NovOrder has one. Restore then only has to re-index shingles
	// (novelty.Detector.Observe), not re-run the duplicate lookup.
	HasNov bool
	Nov    float64

	HasPosterior bool
	Posterior    []float64 // dense prefix over CacheState.Domains

	Sentiments []sentiment.Polarity // per comment, prefix of Post.Comments
}

// ExportState snapshots the cache into its serializable form. The caller
// owns the result; nothing is shared with the live cache. Every post's
// shingles go into one flat array: the indexed posts' read back from the
// detector, which alone holds them. Like every cache operation, it must
// run while no analysis is in flight.
func (ch *Cache) ExportState() *CacheState {
	st := &CacheState{
		Domains:  append([]string(nil), ch.domains.names...),
		NovOrder: make([]blog.PostID, len(ch.novDocs)),
		Posts:    make([]PostFacetsState, 0, len(ch.pSorted)),
	}
	held := 0 // shingles of prepared posts the detector does not index
	for i := range ch.posts {
		held += ch.posts[i].prepared.Size()
	}
	flat, off := ch.det.AppendDocuments(make([]uint64, 0, ch.det.Postings()+held))
	doc := make([]int32, len(ch.posts)) // detector document per post slot
	for k, s := range ch.novDocs {
		st.NovOrder[k] = ch.postIDs[s]
		doc[s] = int32(k)
	}
	for _, s := range ch.pSorted {
		f := &ch.posts[s]
		ps := PostFacetsState{ID: ch.postIDs[s], Posted: f.posted, Words: f.words, Tokenized: f.tokenized}
		if f.hasPrepared {
			var lo, hi int
			if f.scored {
				lo, hi = off[doc[s]], off[doc[s]+1]
			} else {
				lo = len(flat)
				flat = f.prepared.AppendShingles(flat)
				hi = len(flat)
			}
			ps.HasPrepared = true
			if hi > lo {
				ps.Shingles = flat[lo:hi:hi]
			}
			ps.Indicator = f.prepared.Indicator()
		}
		if f.scored {
			ps.HasNov = true
			ps.Nov = f.nov
		}
		if f.posterior != nil {
			ps.HasPosterior = true
			ps.Posterior = slices.Clone(f.posterior)
		}
		if len(f.sentiments) > 0 {
			ps.Sentiments = append([]sentiment.Polarity(nil), f.sentiments...)
		}
		st.Posts = append(st.Posts, ps)
	}
	for _, s := range ch.bSorted {
		if int(s) < len(ch.gl) {
			st.GLBloggers = append(st.GLBloggers, ch.bloggerIDs[s])
			st.GL = append(st.GL, ch.gl[s])
		}
	}
	return st
}

// RestoreCache rebuilds a Cache from exported state. The restored cache
// follows no corpus lineage, so its first analysis resets to journal
// position 0 and takes over every restored facet by post ID. Structurally
// invalid pieces degrade instead of failing: a posterior row longer than
// the domain index is truncated, and a novelty order naming a post twice,
// or a post without prepared shingles or a scored value, resets the
// duplicate-detection state — the restored cache then re-derives those
// facets on the next analysis, which keeps the scores correct at the cost
// of some rework. The GL vector is restored unkeyed; call BindGL with the
// recovered corpus to arm the skip path.
func RestoreCache(st *CacheState) *Cache {
	ch := NewCache()
	if st == nil {
		return ch
	}
	for _, d := range st.Domains {
		ch.domains.intern(d)
	}
	nd := ch.domains.Len()
	var src []int32 // per slot: its entry in st.Posts
	for i := range st.Posts {
		ps := &st.Posts[i]
		if _, dup := ch.postSlot[ps.ID]; dup || ps.ID == "" {
			continue
		}
		f := postFacets{posted: ps.Posted, words: ps.Words, tokenized: ps.Tokenized, nov: ps.Nov}
		if ps.HasPrepared {
			f.prepared = novelty.RestorePrepared(nil, ps.Indicator)
			f.hasPrepared = true
		}
		if ps.HasPosterior {
			f.posterior = make([]float64, min(len(ps.Posterior), nd))
			copy(f.posterior, ps.Posterior)
		}
		if len(ps.Sentiments) > 0 {
			f.sentiments = append([]sentiment.Polarity(nil), ps.Sentiments...)
		}
		ch.postSlot[ps.ID] = int32(len(ch.postIDs))
		ch.postIDs = append(ch.postIDs, ps.ID)
		ch.posts = append(ch.posts, f)
		ch.pSorted = append(ch.pSorted, int32(len(ch.pSorted)))
		src = append(src, int32(i))
	}
	slices.SortFunc(ch.pSorted, ch.cmpPosts)
	for _, pid := range st.NovOrder {
		s, ok := ch.postSlot[pid]
		if !ok || !ch.posts[s].hasPrepared || !st.Posts[src[s]].HasNov || ch.posts[s].scored {
			for _, s := range ch.novDocs {
				ch.posts[s].scored = false
			}
			ch.novDocs = nil
			break
		}
		ch.posts[s].scored = true
		ch.novDocs = append(ch.novDocs, s)
	}
	// The scored values are part of the state; only the detector's
	// inverted index needs rebuilding, straight from the state's shingle
	// sets (the detector copies them). The other prepared posts keep a
	// copy of their own.
	docs := make([]novelty.Prepared, len(ch.novDocs))
	ps := make([]*novelty.Prepared, len(ch.novDocs))
	for k, s := range ch.novDocs {
		docs[k] = novelty.RestorePrepared(st.Posts[src[s]].Shingles, 0)
		ps[k] = &docs[k]
	}
	ch.det.Observe(ps)
	for s := range ch.posts {
		if f := &ch.posts[s]; f.hasPrepared && !f.scored {
			f.prepared = novelty.RestorePrepared(slices.Clone(st.Posts[src[s]].Shingles), f.prepared.Indicator())
		}
	}
	if len(st.GLBloggers) == len(st.GL) {
		for i, id := range st.GLBloggers {
			if _, dup := ch.bloggerSlot[id]; dup {
				continue
			}
			ch.bloggerSlot[id] = int32(len(ch.bloggerIDs))
			ch.bloggerIDs = append(ch.bloggerIDs, id)
			ch.bSorted = append(ch.bSorted, int32(len(ch.bSorted)))
			ch.gl = append(ch.gl, st.GL[i])
		}
		slices.SortFunc(ch.bSorted, ch.cmpBloggers)
	}
	return ch
}

// BindGL keys a restored GL vector to corpus c's current link graph, so
// glMatches can recognize an unchanged graph and skip PageRank outright on
// the first post-recovery flush. The caller asserts that c's link graph is
// the one the vector was solved against (a checkpoint records both
// atomically, so the recovered corpus at the snapshot index qualifies):
// the vector is then taken as exact for c's lineage and link epoch.
func (ch *Cache) BindGL(c *blog.Corpus) {
	if len(ch.gl) > 0 {
		ch.glLineage, ch.glEpoch = c.Journal().Lineage, c.LinkEpoch()
	}
}

// WarmResult builds a minimal previous Result carrying the persisted
// influence scores (InfBloggers is a sorted Dense().Bloggers copy) —
// exactly what the analyzer consumes as a solver warm start. Returns nil
// when the state holds no usable vector; the solver then starts from GL,
// as a cold analysis would.
func WarmResult(st *CacheState) *Result {
	if st == nil || len(st.InfBloggers) == 0 || len(st.InfBloggers) != len(st.Influence) {
		return nil
	}
	return &Result{bloggers: st.InfBloggers, bloggerInf: st.Influence}
}
