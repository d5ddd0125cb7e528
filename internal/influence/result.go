package influence

import (
	"slices"
	"sync"
	"time"

	"mass/internal/blog"
	"mass/internal/rank"
)

// Result holds everything the influence analysis produces.
//
// The per-domain facets (classifier posteriors and Eq. 5 domain scores)
// are stored internally as dense row-major []float64 slabs over an
// interned DomainIndex — the hot loops never touch a map. Maps are built
// only at the public-API boundary (DomainVector, DomainScoresMap). Rankings are dense row orders built lazily once per
// Result and ranking, so query traffic against a published snapshot
// never re-sorts bloggers or builds blogger-sized score maps.
type Result struct {
	// BloggerScores is Inf(b) for every blogger (Eq. 1).
	BloggerScores map[blog.BloggerID]float64
	// AP is the Accumulated Post influence Σ_k Inf(b, d_k).
	AP map[blog.BloggerID]float64
	// GL is the General Links authority (PageRank over the link graph).
	GL map[blog.BloggerID]float64
	// Iterations and Converged report fixed-point solver behaviour.
	Iterations int
	Converged  bool
	// ReusedPosteriors counts posts whose classifier posterior was carried
	// over from a previous result or the analysis cache instead of being
	// re-classified (0 on a cold Analyze).
	ReusedPosteriors int
	// ReusedNovelty counts posts whose tokenization (word count and novelty
	// shingles) came from the analysis cache instead of being recomputed
	// (0 without a cache).
	ReusedNovelty int
	// ScoredNovelty counts posts the near-duplicate detector looked up
	// (inserted) in this analysis: the posts new to it, in order or
	// back-dated alike (every post on a cold analysis).
	ScoredNovelty int
	// ReusedSentiments counts comments whose sentiment polarity came from
	// the analysis cache instead of being re-scored (0 without a cache).
	ReusedSentiments int
	// PageRankSkipped reports that the GL facet was reused verbatim from
	// the cache because the link graph and blogger set were unchanged since
	// the previous analysis.
	PageRankSkipped bool
	// PageRankDelta reports that the GL facet was updated by the frontier
	// push solver over the link-epoch delta instead of a full sweep.
	PageRankDelta bool
	// PageRankFallback reports that an incremental push state existed but
	// the analysis fell back to a full (warm) sweep — the delta was too
	// large, the base CSR was compacted away, or the blogger set changed.
	PageRankFallback bool
	// PageRankPushed counts node pushes performed by the delta solver this
	// analysis (0 unless PageRankDelta).
	PageRankPushed int

	// Dense domain core. bloggers/posts are the sorted entity lists the
	// analysis ran over (their positions are the rows of every slab); the
	// domain slabs are row-major [entity][domain].
	domains      *DomainIndex
	hasDomains   bool // a classifier ran; domain queries are meaningful
	bloggers     []blog.BloggerID
	posts        []blog.PostID
	postDomains  []float64 // len(posts) × domains.Len()
	domainScores []float64 // len(bloggers) × domains.Len()

	// Dense per-entity facet vectors, aligned with bloggers/posts. The
	// blogger ones duplicate the public maps so index-aware consumers
	// (package query) can scan without hashing; AnalyzeDecayed keeps them
	// in sync.
	bloggerInf    []float64
	bloggerAP     []float64
	bloggerGL     []float64
	postInf       []float64
	postQuality   []float64
	postNovelty   []float64
	postSentiment []float64 // mean comment SF per post; 0 with no comments
	postAuthor    []int32   // blogger row of each post's author
	postPosted    []float64 // PostedKey of each post's time
	postComments  []int32   // comments per post
	bloggerPosts  []int32   // posts per blogger, counted from postAuthor
	authorOff     []int32   // blogger b's posts are byAuthor[authorOff[b]:authorOff[b+1]]
	byAuthor      []int32   // post rows grouped by author, in row order
	words         int       // word count summed over every post body

	// Lazily built rankings, each on its first use: orders[0] is the
	// general ranking, orders[1+slot] domain slot's.
	ordersOnce sync.Once
	orders     []rowOrder
}

// rowOrder is one ranking: dense blogger rows by score descending, ties
// by ascending row (ascending ID, since rows are ID-sorted).
type rowOrder struct {
	once sync.Once
	rows []int32
}

// Domains returns the interned domain names, in slot order. Empty when the
// analysis ran without a classifier. The slice is shared; do not modify.
func (r *Result) Domains() []string {
	if r.domains == nil {
		return nil
	}
	return r.domains.Names()
}

// domainRow returns blogger b's dense domain score row, or nil.
func (r *Result) domainRow(b blog.BloggerID) []float64 {
	nd := r.domains.Len()
	bi, ok := r.BloggerIndex(b)
	if !ok || nd == 0 || len(r.domainScores) == 0 {
		return nil
	}
	return r.domainScores[bi*nd : (bi+1)*nd]
}

// DomainScore returns Inf(b, C_t) for one blogger and domain. Unknown
// bloggers and domains score 0.
func (r *Result) DomainScore(b blog.BloggerID, domain string) float64 {
	row := r.domainRow(b)
	if row == nil {
		return 0
	}
	if di, ok := r.domains.lookup(domain); ok {
		return row[di]
	}
	return 0
}

// DomainVector returns Inf(b, IV): blogger b's influence score on every
// domain, as a map copy safe to mutate. Bloggers without posts get an
// empty map (when a classifier ran) to keep consumers uniform.
func (r *Result) DomainVector(b blog.BloggerID) map[string]float64 {
	out := map[string]float64{}
	row := r.domainRow(b)
	for di, s := range row {
		if s != 0 {
			out[r.domains.names[di]] = s
		}
	}
	return out
}

// DomainScoresMap materializes the full Inf(b, C_t) matrix as nested maps —
// the boundary conversion for batch tooling and tests. Costs O(bloggers ×
// domains); query paths should use DomainScore/TopDomain instead.
func (r *Result) DomainScoresMap() map[blog.BloggerID]map[string]float64 {
	out := make(map[blog.BloggerID]map[string]float64, len(r.bloggers))
	if !r.hasDomains {
		return out
	}
	for _, b := range r.bloggers {
		out[b] = r.DomainVector(b)
	}
	return out
}

// sumAP sums each blogger's post influence into ap: AP = Σ_k Inf(b, d_k),
// adding an author's posts in row order.
func (r *Result) sumAP(ap []float64) {
	clear(ap)
	for i, b := range r.postAuthor {
		ap[b] += r.postInf[i]
	}
}

// aggregateDomains computes Eq. 5 over the dense slabs: Inf(b, C_t) is the
// posterior-weighted sum of b's post influence, in row order.
func (r *Result) aggregateDomains() {
	nd := r.domains.Len()
	r.domainScores = make([]float64, len(r.bloggers)*nd)
	for i, b := range r.postAuthor {
		ds := r.domainScores[int(b)*nd : (int(b)+1)*nd]
		for di, p := range r.postDomains[i*nd : (i+1)*nd] {
			ds[di] += r.postInf[i] * p
		}
	}
}

// order returns ranking k (see Result.orders), scoring row i by
// score(i) and building it on first use. Callers must not mutate the
// Result's scores after first use (the analyzer never does;
// AnalyzeDecayed re-aggregates before publishing).
func (r *Result) order(k int, score func(i int32) float64) []int32 {
	r.ordersOnce.Do(func() { r.orders = make([]rowOrder, 1+len(r.Domains())) })
	o := &r.orders[k]
	o.once.Do(func() {
		rows := make([]int32, len(r.bloggers))
		for i := range rows {
			rows[i] = int32(i)
		}
		slices.SortFunc(rows, func(a, b int32) int {
			if sa, sb := score(a), score(b); sa != sb {
				if sa > sb {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
		o.rows = rows
	})
	return o.rows
}

// GeneralOrder returns every blogger row ranked by Inf(b) descending,
// ties by ascending row. Built once per Result; the slice is shared, do
// not modify.
func (r *Result) GeneralOrder() []int32 {
	return r.order(0, func(i int32) float64 { return r.bloggerInf[i] })
}

// DomainOrder returns every blogger row ranked by Inf(b, C_t) of domain
// slot (see DomainSlot) descending, ties by ascending row. Built once per
// Result and slot; the slice is shared, do not modify.
func (r *Result) DomainOrder(slot int) []int32 {
	nd := r.domains.Len()
	return r.order(1+slot, func(i int32) float64 { return r.domainScores[int(i)*nd+slot] })
}

// entries renders the first k rows of a ranking as scored entries.
func (r *Result) entries(order []int32, k int, score func(i int32) float64) []rank.Entry {
	k = min(k, len(order))
	out := make([]rank.Entry, k)
	for j, i := range order[:k] {
		out[j] = rank.Entry{ID: string(r.bloggers[i]), Score: score(i)}
	}
	return out
}

// TopGeneral returns the k most influential bloggers overall as scored
// entries, served from the per-snapshot precomputed ranking.
func (r *Result) TopGeneral(k int) []rank.Entry {
	if k <= 0 {
		return nil
	}
	return r.entries(r.GeneralOrder(), k, func(i int32) float64 { return r.bloggerInf[i] })
}

// TopDomain returns the k most influential bloggers of one domain as
// scored entries, served from the per-snapshot precomputed ranking.
// Bloggers without the domain score 0; without a classifier the result is
// empty.
func (r *Result) TopDomain(domain string, k int) []rank.Entry {
	if k <= 0 || !r.hasDomains {
		return nil
	}
	if di, ok := r.domains.lookup(domain); ok {
		nd := r.domains.Len()
		return r.entries(r.DomainOrder(di), k, func(i int32) float64 { return r.domainScores[int(i)*nd+di] })
	}
	// Unknown domain: everyone scores 0, so the deterministic tie-break
	// order (ascending ID) applies — r.bloggers is already sorted.
	k = min(k, len(r.bloggers))
	out := make([]rank.Entry, k)
	for i := 0; i < k; i++ {
		out[i] = rank.Entry{ID: string(r.bloggers[i])}
	}
	return out
}

// TopKGeneral returns the k most influential bloggers by overall Inf(b).
func (r *Result) TopKGeneral(k int) []blog.BloggerID {
	return entriesToBloggerIDs(r.TopGeneral(k))
}

// TopKDomain returns the k most influential bloggers in the given domain
// by Inf(b, C_t).
func (r *Result) TopKDomain(domain string, k int) []blog.BloggerID {
	return entriesToBloggerIDs(r.TopDomain(domain, k))
}

// DenseView is a read-only window onto the result's dense slabs, for
// index-aware executors (package query) that scan entities by position
// instead of hashing IDs. All slices are aligned: Influence[i] belongs to
// Bloggers[i], PostScore[j] to Posts[j], and the domain slabs are
// row-major [entity][domain] with stride len(Domains). Bloggers and Posts
// are sorted by ID. Slices are shared with the Result — callers must
// treat them as immutable.
type DenseView struct {
	Bloggers []blog.BloggerID
	Posts    []blog.PostID

	// Per-blogger facets (aligned with Bloggers).
	Influence, AP, GL []float64
	// Per-post facets (aligned with Posts). Sentiment is the mean comment
	// sentiment factor in [0,1] (0 for posts with no comments).
	PostScore, Quality, Novelty, Sentiment []float64
	// Per-post corpus facts (aligned with Posts): the author's row in
	// Bloggers, the posting time as a PostedKey, and the comment count.
	Author   []int32
	Posted   []float64
	Comments []int32
	// PostCounts is each blogger's post count (aligned with Bloggers).
	PostCounts []int32
	// ByAuthor is the post rows grouped by author: blogger i's posts are
	// ByAuthor[AuthorOff[i]:AuthorOff[i+1]], in row (post ID) order.
	AuthorOff, ByAuthor []int32

	// DomainScores is Inf(b, C_t): len(Bloggers) × len(Domains).
	// PostDomains is iv(b, d_k, C_t): len(Posts) × len(Domains).
	DomainScores, PostDomains []float64
	// Domains are the interned domain names in slot order; empty when the
	// analysis ran without a classifier.
	Domains []string
}

// Dense exposes the result's dense slabs. See DenseView for the layout.
func (r *Result) Dense() DenseView {
	return DenseView{
		Bloggers:     r.bloggers,
		Posts:        r.posts,
		Influence:    r.bloggerInf,
		AP:           r.bloggerAP,
		GL:           r.bloggerGL,
		PostScore:    r.postInf,
		Quality:      r.postQuality,
		Novelty:      r.postNovelty,
		Sentiment:    r.postSentiment,
		Author:       r.postAuthor,
		Posted:       r.postPosted,
		Comments:     r.postComments,
		PostCounts:   r.bloggerPosts,
		AuthorOff:    r.authorOff,
		ByAuthor:     r.byAuthor,
		DomainScores: r.domainScores,
		PostDomains:  r.postDomains,
		Domains:      r.Domains(),
	}
}

// DomainSlot resolves a domain name to its dense slot in the slabs of
// Dense(). The second return is false for unknown domains (or when no
// classifier ran).
func (r *Result) DomainSlot(name string) (int, bool) {
	if r.domains == nil {
		return 0, false
	}
	return r.domains.lookup(name)
}

// BloggerIndex resolves a blogger ID to its dense row index.
func (r *Result) BloggerIndex(id blog.BloggerID) (int, bool) {
	return slices.BinarySearch(r.bloggers, id)
}

// PostIndex resolves a post ID to its dense row index.
func (r *Result) PostIndex(id blog.PostID) (int, bool) {
	return slices.BinarySearch(r.posts, id)
}

// postFacet reads one post's value from a per-post slab (0 for unknown
// IDs).
func (r *Result) postFacet(slab []float64, pid blog.PostID) float64 {
	if i, ok := r.PostIndex(pid); ok && i < len(slab) {
		return slab[i]
	}
	return 0
}

// PostScore returns Inf(b, d_k) of one post (Eq. 4).
func (r *Result) PostScore(pid blog.PostID) float64 { return r.postFacet(r.postInf, pid) }

// PostQuality returns one post's quality score (normalized length ×
// novelty).
func (r *Result) PostQuality(pid blog.PostID) float64 { return r.postFacet(r.postQuality, pid) }

// PostNovelty returns one post's novelty factor.
func (r *Result) PostNovelty(pid blog.PostID) float64 { return r.postFacet(r.postNovelty, pid) }

// Words returns the word count summed over every post body — the
// tokenizer's totals the analysis already holds, so corpus statistics
// need not re-tokenize.
func (r *Result) Words() int { return r.words }

// PostedKey projects a time onto the comparable float axis that posted
// predicates and ordering use: seconds, with the sub-second fraction.
func PostedKey(t time.Time) float64 {
	return float64(t.Unix()) + float64(t.Nanosecond())*1e-9
}

func entriesToBloggerIDs(entries []rank.Entry) []blog.BloggerID {
	if entries == nil {
		return nil
	}
	out := make([]blog.BloggerID, len(entries))
	for i, e := range entries {
		out[i] = blog.BloggerID(e.ID)
	}
	return out
}
