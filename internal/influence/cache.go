package influence

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"mass/internal/blog"
	"mass/internal/linkrank"
	"mass/internal/novelty"
	"mass/internal/sentiment"
)

// Cache is the analysis state that lives across analyses of one evolving
// corpus, so a re-analysis after an incremental batch pays only for the
// delta. Bloggers and posts are interned into append-only dense slots in
// the order the corpus's mutation journal (blog.Journal) lists them; the
// cache remembers its journal position, and the next analysis of the same
// lineage reads — and hashes — only the entries past it. Per slot it keeps
// the body-derived post facets (bodies are immutable: word count, novelty
// score, classifier posterior, and the novelty shingles until the
// detector indexes the post, which then holds the only copy), the
// per-comment commenter and sentiment (comments are append-only), TC per
// blogger, the sorted-ID orders, and the GL vector with its push state.
//
// A lineage change (Reindex, FromParts, an unrelated corpus, a mutated
// Corpus.Clone), journals that disagree with the corpus's maps (a direct map
// write) or an unresolvable journal entry reset the cache to journal
// position 0. That is the only place the corpus is validated, and a cold
// analysis runs exactly that path. A reset keeps the facets of every post
// ID the cache holds (a post ID names one immutable body) and the novelty
// detector while every post it indexed is still held with the same posting
// time; otherwise the held posts read their shingles back from it. Use a
// new Cache for a corpus that may recycle post IDs for other bodies.
//
// Novelty is insert-only. A post is capped when an earlier post resembles
// it, whatever that post's own score, so a new post moves only its own
// score and caps the later posts it resembles (novelty.ScorePrepared); no
// cap is ever lifted, so nothing cascades. A back-dated post therefore
// costs one detector insert, like an in-order one, and the detector's
// documents need not be in chronological order.
//
// A Cache serves one Analyzer configuration and must not be used
// concurrently; the engine serializes analyses.
type Cache struct {
	domains *DomainIndex
	det     *novelty.Detector

	// Journal position: the lineage the slots follow (0: none) and how
	// many comment entries they hold; slot i is journal entry i.
	lineage   uint64
	nComments int

	// Blogger slots.
	bloggerIDs  []blog.BloggerID
	bloggerSlot map[blog.BloggerID]int32
	tc          []int   // TC(b) per blogger slot
	bSorted     []int32 // blogger slots in ID order

	// Post slots.
	postIDs  []blog.PostID
	postSlot map[blog.PostID]int32
	posts    []postFacets
	pSorted  []int32 // post slots in ID order
	novDocs  []int32 // post slot per detector document, in insertion order
	comments int     // comments held across all post slots

	// GL facet: the last solved vector per blogger slot. It is exactly
	// valid for the link graph at (glLineage, glEpoch); with glLineage 0 it
	// only warm-starts the next solve.
	glLineage uint64
	glEpoch   uint64
	gl        []float64

	// Incremental GL state: the link view the cached vector was solved
	// against and the residual push state sitting on top of it. When the
	// next analysis's view extends glView (same base CSR, a few more
	// overlay edges), the push solver advances push in O(delta) instead of
	// re-sweeping the graph. Either field may be nil (cold cache);
	// computeGL then falls back to a full warm sweep and rebuilds both.
	glView *blog.LinkView
	push   *linkrank.PushState

	// Per-analysis scratch: the comment CSR the fixed-point sweep reads.
	off  []int32
	refs []commentRef
}

// postFacets are the cached derivatives of one post.
type postFacets struct {
	author    int32 // blogger slot
	posted    time.Time
	postedKey float64

	words     float64
	tokenized bool // words (and prepared, unless novelty is disabled) valid

	// prepared holds the post's shingles until the detector indexes the
	// post (scored); from then on only its indicator score, and the
	// shingles live in the detector alone.
	prepared    novelty.Prepared
	hasPrepared bool
	scored      bool    // the detector indexes the post (it is in novDocs)
	nov         float64 // valid while scored

	posterior []float64 // dense row over Cache.domains; nil = not classified

	commenters []int32              // blogger slot per comment, aligned to Post.Comments
	sentiments []sentiment.Polarity // per comment, a prefix of commenters
}

// commentRef is one comment as the fixed-point sweep reads it: the
// commenter's blogger row and SF/TC(commenter) (just SF with
// IgnoreCitation).
type commentRef struct {
	commenter int32
	weight    float64
}

// NewCache returns an empty analysis cache.
func NewCache() *Cache {
	return &Cache{
		domains:     newDomainIndex(),
		det:         novelty.New(),
		bloggerSlot: map[blog.BloggerID]int32{},
		postSlot:    map[blog.PostID]int32{},
	}
}

// Posts reports how many posts currently have cached facets.
func (ch *Cache) Posts() int { return len(ch.postIDs) }

// sync brings the slots up to date with c. It returns the post slots
// added (in ID order) and the post slots whose comment list grew, and
// whether it reset to journal position 0 first. Only a reset validates
// the corpus; its error is the only error sync returns.
func (ch *Cache) sync(c *blog.Frozen) (fresh, grown []int32, reset bool, err error) {
	j := c.Journal()
	if j.Lineage != 0 && j.Lineage == ch.lineage && len(j.Bloggers) == c.NumBloggers() && len(j.Posts) == c.NumPosts() &&
		len(ch.bloggerIDs) <= len(j.Bloggers) && len(ch.postIDs) <= len(j.Posts) && ch.nComments <= len(j.Comments) {
		if fresh, grown, ok := ch.extend(c, j, nil); ok {
			return fresh, grown, false, nil
		}
		ch.lineage = 0 // partly extended: never extend from here again
	}
	if err := c.Validate(); err != nil {
		return nil, nil, false, err
	}
	if len(j.Bloggers) != c.NumBloggers() || len(j.Posts) != c.NumPosts() {
		// Maps written around the journal: intern the sorted map keys under
		// lineage 0, so every later analysis resets again.
		j = blog.Journal{Bloggers: c.BloggerIDs(), Posts: c.PostIDs()}
	}
	old := *ch
	*ch = Cache{
		domains: old.domains, det: novelty.New(), lineage: j.Lineage,
		bloggerSlot: make(map[blog.BloggerID]int32, len(j.Bloggers)),
		postSlot:    make(map[blog.PostID]int32, len(j.Posts)),
		posts:       make([]postFacets, 0, len(j.Posts)),
		glLineage:   old.glLineage, glEpoch: old.glEpoch, glView: old.glView, push: old.push,
	}
	fresh, grown, ok := ch.extend(c, j, &old)
	if !ok {
		ch.lineage = 0
		ch.adoptNovelty(&old)
		return nil, nil, false, fmt.Errorf("journal references an entity missing from the corpus")
	}
	ch.adopt(&old)
	return fresh, grown, true, nil
}

// extend interns everything j records past the cache's position. During a
// reset, old is the cache as it was, and new post slots take over the
// facets old holds for the same ID. It reports false, with the cache
// partly extended, when a reference does not resolve.
func (ch *Cache) extend(c *blog.Frozen, j blog.Journal, old *Cache) (fresh, grown []int32, ok bool) {
	var newBloggers []int32
	for _, id := range j.Bloggers[len(ch.bloggerIDs):] {
		newBloggers = append(newBloggers, int32(len(ch.bloggerIDs)))
		ch.bloggerSlot[id] = int32(len(ch.bloggerIDs))
		ch.bloggerIDs = append(ch.bloggerIDs, id)
		ch.tc = append(ch.tc, 0)
	}
	for _, id := range j.Posts[len(ch.postIDs):] {
		p := c.Post(id)
		if p == nil {
			return nil, nil, false
		}
		author, known := ch.bloggerSlot[p.Author]
		if !known {
			return nil, nil, false
		}
		f := postFacets{author: author, posted: p.Posted, postedKey: PostedKey(p.Posted)}
		if old != nil {
			if os, held := old.postSlot[id]; held {
				f.adopt(&old.posts[os], len(p.Comments))
			}
		}
		s := int32(len(ch.postIDs))
		ch.postSlot[id] = s
		ch.postIDs = append(ch.postIDs, id)
		ch.posts = append(ch.posts, f)
		fresh = append(fresh, s)
		if len(p.Comments) > 0 {
			grown = append(grown, s)
		}
	}
	for _, pid := range j.Comments[ch.nComments:] {
		s, known := ch.postSlot[pid]
		if !known {
			return nil, nil, false
		}
		grown = append(grown, s)
	}
	ch.nComments = len(j.Comments)
	slices.Sort(grown)
	grown = slices.Compact(grown)
	for _, s := range grown {
		p, f := c.Post(ch.postIDs[s]), &ch.posts[s]
		if p == nil || len(p.Comments) < len(f.commenters) {
			return nil, nil, false
		}
		for _, cm := range p.Comments[len(f.commenters):] {
			b, known := ch.bloggerSlot[cm.Commenter]
			if !known {
				return nil, nil, false
			}
			f.commenters = append(f.commenters, b)
			ch.tc[b]++
			ch.comments++
		}
	}
	ch.bSorted = mergeInsert(ch.bSorted, newBloggers, ch.cmpBloggers)
	ch.pSorted = mergeInsert(ch.pSorted, fresh, ch.cmpPosts)
	return fresh, grown, true
}

// adopt finishes a reset: it settles the novelty detector
// (adoptNovelty) and carries the GL vector over by blogger ID.
func (ch *Cache) adopt(old *Cache) {
	ch.adoptNovelty(old)
	if len(old.gl) == 0 {
		return
	}
	ch.gl = make([]float64, len(ch.bloggerIDs))
	for s, id := range ch.bloggerIDs {
		if os, held := old.bloggerSlot[id]; held && int(os) < len(old.gl) {
			ch.gl[s] = old.gl[os]
		} else {
			ch.glLineage = 0
		}
	}
}

// adoptNovelty keeps old's novelty detector when every post it indexed is
// still held with the same posting time: the scores it left depend only on
// which posts it indexed and their chronological order. Otherwise the held
// posts read their shingles back from it, to be indexed anew; the posts
// the detector indexed hold none of their own.
func (ch *Cache) adoptNovelty(old *Cache) {
	docs := make([]int32, 0, len(old.novDocs))
	for _, os := range old.novDocs {
		s, held := ch.postSlot[old.postIDs[os]]
		if !held || !ch.posts[s].posted.Equal(old.posts[os].posted) {
			break
		}
		docs = append(docs, s)
	}
	if len(docs) == len(old.novDocs) {
		ch.det, ch.novDocs = old.det, docs
		for _, s := range docs {
			ch.posts[s].scored = true
		}
		return
	}
	flat, off := old.det.AppendDocuments(nil)
	for k, os := range old.novDocs {
		if s, held := ch.postSlot[old.postIDs[os]]; held {
			f := &ch.posts[s]
			f.prepared = novelty.RestorePrepared(flat[off[k]:off[k+1]:off[k+1]], f.prepared.Indicator())
		}
	}
}

// adopt takes over the body-derived facets another slot holds for the same
// post ID; sentiments are capped to the post's current comments.
// The scored flag is not taken: adoptNovelty sets it once it keeps the
// detector.
func (f *postFacets) adopt(o *postFacets, comments int) {
	f.words, f.tokenized = o.words, o.tokenized
	f.prepared, f.hasPrepared, f.nov = o.prepared, o.hasPrepared, o.nov
	f.posterior = o.posterior
	f.sentiments = o.sentiments[:min(len(o.sentiments), comments):min(len(o.sentiments), comments)]
}

func (ch *Cache) cmpBloggers(a, b int32) int { return cmp.Compare(ch.bloggerIDs[a], ch.bloggerIDs[b]) }

func (ch *Cache) cmpPosts(a, b int32) int { return cmp.Compare(ch.postIDs[a], ch.postIDs[b]) }

// cmpChrono orders posts by posting time, then ID: the order in which a
// post counts as earlier than its copies for novelty.
func (ch *Cache) cmpChrono(a, b int32) int {
	if c := ch.posts[a].posted.Compare(ch.posts[b].posted); c != 0 {
		return c
	}
	return ch.cmpPosts(a, b)
}

// mergeInsert sorts fresh by cmp (in place) and merges it into sorted,
// returning the merged order; an element equal to an existing one goes
// after it. Each fresh element, largest first, binary-searches its place
// in the prefix of sorted not yet moved, and the run above that place
// moves up as one block: O(k log n + k log k) compares for k fresh into
// n sorted, however the fresh elements interleave.
func mergeInsert(sorted, fresh []int32, cmp func(a, b int32) int) []int32 {
	slices.SortFunc(fresh, cmp)
	hi := len(sorted) // out[:hi] is the part of sorted not yet moved
	out := slices.Grow(sorted, len(fresh))[:hi+len(fresh)]
	for j := len(fresh) - 1; j >= 0; j-- {
		p := sort.Search(hi, func(i int) bool { return cmp(out[i], fresh[j]) > 0 })
		copy(out[p+j+1:], out[p:hi])
		out[p+j] = fresh[j]
		hi = p
	}
	return out
}

// glMatches reports whether the cached GL vector is exactly valid for c:
// same lineage and link epoch (within a lineage, equal epochs mean an
// identical link graph and blogger set) and a value for every blogger.
func (ch *Cache) glMatches(c *blog.Frozen) bool {
	return ch.glLineage != 0 && ch.glLineage == c.Journal().Lineage && ch.glEpoch == c.LinkEpoch() && len(ch.gl) == len(ch.bloggerIDs)
}

// storeGL records a solved GL vector, given in sorted blogger order, for
// c's current link graph.
func (ch *Cache) storeGL(c *blog.Frozen, rows []float64) {
	ch.glLineage, ch.glEpoch = c.Journal().Lineage, c.LinkEpoch()
	ch.gl = slices.Grow(ch.gl[:0], len(rows))[:len(rows)]
	for r, s := range ch.bSorted {
		ch.gl[s] = rows[r]
	}
}

// glRows gathers the cached GL vector into rows, in sorted blogger order;
// bloggers interned since the last solve keep 0, which the solver treats
// as "start at the uniform floor". Returns nil when no vector was ever
// solved.
func (ch *Cache) glRows(rows []float64) []float64 {
	if len(ch.gl) == 0 {
		return nil
	}
	for r, s := range ch.bSorted {
		if int(s) < len(ch.gl) {
			rows[r] = ch.gl[s]
		}
	}
	return rows
}

// rowsIn maps every ID of cur to its row in old, or -1 when old lacks it.
// Both lists are sorted, so this is one merge walk.
func rowsIn[K cmp.Ordered](cur, old []K) []int32 {
	rows := make([]int32, len(cur))
	j := 0
	for i, id := range cur {
		for j < len(old) && old[j] < id {
			j++
		}
		rows[i] = -1
		if j < len(old) && old[j] == id {
			rows[i] = int32(j)
		}
	}
	return rows
}

// seedPosteriors copies classifier posteriors from a previous result into
// slots the cache has not classified — how a fresh or reset cache reuses
// prev's posteriors. rows maps the current sorted posts to prev's
// (see rowsIn).
func (ch *Cache) seedPosteriors(prev *Result, rows []int32) {
	if !prev.hasDomains || prev.domains == nil {
		return
	}
	nd := prev.domains.Len()
	if nd == 0 || len(prev.postDomains) == 0 {
		return
	}
	// Map prev's domain slots into the cache's (identical order when the
	// cache is fresh, since both intern deterministically).
	remap := make([]int, nd)
	for i, name := range prev.domains.names {
		remap[i] = ch.domains.intern(name)
	}
	for r, pr := range rows {
		f := &ch.posts[ch.pSorted[r]]
		if pr < 0 || f.posterior != nil {
			continue
		}
		// row is sized after the remap loop interned every prev name, so
		// every remapped slot fits.
		row := make([]float64, ch.domains.Len())
		for i, p := range prev.postDomains[int(pr)*nd : (int(pr)+1)*nd] {
			row[remap[i]] = p
		}
		f.posterior = row
	}
}
