package influence

import (
	"slices"

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
// rebuilt by re-indexing the persisted shingle sets in the persisted
// scoring order (the scored values travel with the state, so the expensive
// duplicate lookup is not repeated; a legacy state without scores falls
// back to a full ScorePrepared replay, which reproduces them bit-for-bit).

// CacheState is the serializable warm state of a Cache plus the published
// influence vector that warm-starts the fixed-point solver after recovery.
type CacheState struct {
	// Domains are the interned domain names in slot order; cached posterior
	// rows are dense prefixes over this order.
	Domains []string
	// Posts holds one entry per cached post, sorted by ID.
	Posts []PostFacetsState
	// NovOrder is the chronological order the novelty detector scored posts
	// in; restoring replays it to rebuild the inverted shingle index.
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
	ID        blog.PostID
	Words     float64
	Tokenized bool

	HasPrepared bool
	Shingles    []uint64 // sorted shingle hashes (textutil.ShingleHashes)
	Indicator   float64

	// HasNov/Nov carry the post's scored novelty value. Restore then only
	// has to re-index shingles (novelty.Detector.Observe), not re-run the
	// duplicate lookup, which dominates replay cost on large corpora.
	HasNov bool
	Nov    float64

	HasPosterior bool
	Posterior    []float64 // dense prefix over CacheState.Domains

	Sentiments []sentiment.Polarity // per comment, prefix of Post.Comments
}

// ExportState snapshots the cache into its serializable form. The caller
// owns the result; nothing is shared with the live cache. Like every cache
// operation, it must run while no analysis is in flight.
func (ch *Cache) ExportState() *CacheState {
	st := &CacheState{
		Domains:  append([]string(nil), ch.domains.names...),
		NovOrder: make([]blog.PostID, ch.scored),
		Posts:    make([]PostFacetsState, 0, len(ch.pSorted)),
	}
	scored := make([]bool, len(ch.posts))
	for k, s := range ch.chrono[:ch.scored] {
		st.NovOrder[k] = ch.postIDs[s]
		scored[s] = true
	}
	for _, s := range ch.pSorted {
		f := &ch.posts[s]
		ps := PostFacetsState{ID: ch.postIDs[s], Words: f.words, Tokenized: f.tokenized}
		if f.hasPrepared {
			ps.HasPrepared = true
			ps.Shingles = f.prepared.Shingles()
			ps.Indicator = f.prepared.Indicator()
		}
		if scored[s] {
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
// the domain index is truncated, and a novelty order referencing a post
// without prepared shingles resets the duplicate-detection state — the
// restored cache then re-derives those facets on the next analysis, which
// keeps the scores correct at the cost of some rework. The GL vector is
// restored unkeyed; call BindGL with the recovered corpus to arm the skip
// path.
func RestoreCache(st *CacheState) *Cache {
	ch := NewCache()
	if st == nil {
		return ch
	}
	for _, d := range st.Domains {
		ch.domains.intern(d)
	}
	nd := ch.domains.Len()
	var hasNov []bool // per slot: the state carries its scored novelty
	shingles := 0
	for i := range st.Posts {
		ps := &st.Posts[i]
		if _, dup := ch.postSlot[ps.ID]; dup || ps.ID == "" {
			continue
		}
		f := postFacets{words: ps.Words, tokenized: ps.Tokenized, nov: ps.Nov}
		if ps.HasPrepared {
			f.prepared = novelty.RestorePrepared(ps.Shingles, ps.Indicator)
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
		hasNov = append(hasNov, ps.HasNov)
		shingles += len(ps.Shingles)
	}
	slices.SortFunc(ch.pSorted, ch.cmpPosts)
	if len(st.NovOrder) > 0 {
		ch.det.Reserve(shingles)
	}
	for _, pid := range st.NovOrder {
		s, ok := ch.postSlot[pid]
		if !ok || !ch.posts[s].hasPrepared {
			ch.det, ch.chrono = novelty.New(), nil
			break
		}
		f := &ch.posts[s]
		if hasNov[s] {
			// The scored value is part of the state; only the detector's
			// inverted index needs rebuilding.
			ch.det.Observe(f.prepared)
		} else {
			f.nov = ch.det.ScorePrepared(f.prepared)
		}
		ch.chrono = append(ch.chrono, s)
	}
	ch.scored = len(ch.chrono)
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
