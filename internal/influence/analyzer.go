package influence

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/linkrank"
	"mass/internal/novelty"
	"mass/internal/sentiment"
	"mass/internal/textutil"
)

// Analyzer computes MASS influence scores over a corpus. It corresponds to
// the paper's Analyzer Module: the Post Analyzer (classifier) assigns
// domain posteriors, the Comment Analyzer (sentiment + this solver)
// computes the influence fixed point.
type Analyzer struct {
	cfg        Config
	classifier classify.Classifier
	sent       *sentiment.Analyzer
}

// NewAnalyzer builds an analyzer. classifier may be nil when domain scores
// are not needed (the Result's domain facet will then be empty).
func NewAnalyzer(cfg Config, classifier classify.Classifier) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{
		cfg:        cfg.withDefaults(),
		classifier: classifier,
		sent:       sentiment.NewAnalyzer(),
	}, nil
}

// Analyze runs the full pipeline, cold, on a generation of the corpus
// (c.Snapshot()).
func (a *Analyzer) Analyze(c *blog.Corpus) (*Result, error) {
	return a.analyze(c.Snapshot(), nil, nil)
}

// AnalyzeCached is the incremental path. A previous result prev
// warm-starts the fixed-point solver and lends its classifier posteriors
// to posts the cache has not classified (post bodies are immutable). The
// final scores agree with a cold Analyze to within Epsilon, and scores
// that moved by at most Epsilon keep prev's exact bits (inside the
// convergence threshold the two are indistinguishable), so
// exact-equality consumers such as subscription diffs see a score the
// solver did not really move as unchanged. Every
// expensive per-entity facet — tokenization (word counts and novelty
// shingles), near-duplicate novelty scores, comment sentiment, and the GL
// PageRank vector — is carried in cache across calls, so a re-analysis
// after a small batch only pays for the delta. The cache must be
// dedicated to one evolving corpus lineage and must not be used
// concurrently; a nil cache reuses nothing but prev. prev may be nil (the
// facets still reuse, only the solver starts cold, which keeps the result
// bit-for-bit identical to Analyze). See Cache for the exact reuse and
// reset rules.
func (a *Analyzer) AnalyzeCached(c *blog.Frozen, prev *Result, cache *Cache) (*Result, error) {
	return a.analyze(c, prev, cache)
}

// analyze is the shared pipeline. A nil cache gets a throwaway one so the
// cold and incremental paths are literally the same code; only reuse
// differs (a fresh cache reuses nothing).
func (a *Analyzer) analyze(c *blog.Frozen, prev *Result, cache *Cache) (*Result, error) {
	if cache == nil {
		cache = NewCache()
	}
	ch := cache
	fresh, grown, reset, err := ch.sync(c)
	if err != nil {
		return nil, fmt.Errorf("influence: invalid corpus: %w", err)
	}

	// Dense rows: bloggers and posts in sorted-ID order, gathered through
	// the cache's sorted permutations.
	nb, np := len(ch.bSorted), len(ch.pSorted)
	res := &Result{
		BloggerScores: make(map[blog.BloggerID]float64, nb),
		AP:            make(map[blog.BloggerID]float64, nb),
		GL:            make(map[blog.BloggerID]float64, nb),
		bloggers:      make([]blog.BloggerID, nb),
		posts:         make([]blog.PostID, np),
		postInf:       make([]float64, np),
		postAuthor:    make([]int32, np),
		postPosted:    make([]float64, np),
		postComments:  make([]int32, np),
		bloggerPosts:  make([]int32, nb),
		authorOff:     make([]int32, nb+1),
		byAuthor:      make([]int32, np),
	}
	bRow := make([]int32, len(ch.bloggerIDs)) // blogger slot → row
	for r, s := range ch.bSorted {
		res.bloggers[r] = ch.bloggerIDs[s]
		bRow[s] = int32(r)
	}
	for r, s := range ch.pSorted {
		f := &ch.posts[s]
		res.posts[r] = ch.postIDs[s]
		res.postAuthor[r] = bRow[f.author]
		res.bloggerPosts[bRow[f.author]]++
		res.postPosted[r] = f.postedKey
		res.postComments[r] = int32(len(f.commenters))
	}
	// Group the post rows by author with a counting sort, so each
	// blogger's posts stay in row order.
	for b, n := range res.bloggerPosts {
		res.authorOff[b+1] = res.authorOff[b] + n
	}
	next := slices.Clone(res.authorOff[:nb])
	for r, b := range res.postAuthor {
		res.byAuthor[next[b]] = int32(r)
		next[b]++
	}
	// Rows of prev holding the same IDs, for the warm start and the
	// generation-to-generation score pinning.
	if prev == nil {
		prev = &Result{}
	}
	bPrev, pPrev := rowsIn(res.bloggers, prev.bloggers), rowsIn(res.posts, prev.posts)
	eps := a.cfg.Epsilon

	// --- GL facet: PageRank over the hyperlink graph (Eq. 1). ---
	gl := a.computeGL(c, ch, res)
	snapRows(gl, bPrev, prev.bloggerGL, eps)
	for r, id := range res.bloggers {
		res.GL[id] = gl[r]
	}

	// --- Text facets: one tokenization per fresh post feeds its word
	// count, its novelty shingles and its classifier posterior. ---
	if a.classifier != nil && reset {
		ch.seedPosteriors(prev, pPrev)
	}
	a.analyzeText(c, ch, fresh, res)

	// --- Quality facet: normalized length × novelty (Eq. 2). ---
	quality, nov := a.computeQuality(ch, fresh, res)

	// --- Comment facet: sentiment factors (cached per comment), then the
	// (commenter row, SF/TC) pairs the solver sweeps over, as a CSR in
	// post-row order. ---
	res.ReusedSentiments = a.scoreSentiments(c, ch, grown)
	res.postSentiment = make([]float64, np)
	off, refs := append(ch.off[:0], 0), ch.refs[:0]
	for r, s := range ch.pSorted {
		f := &ch.posts[s]
		var sum float64
		for j, b := range f.commenters {
			sf := 1.0 // sentiment ignored: every comment counts as SF = 1
			if !a.cfg.IgnoreSentiment {
				sf = a.factorOf(f.sentiments[j])
			}
			sum += sf
			w := sf / float64(ch.tc[b])
			if a.cfg.IgnoreCitation {
				w = sf
			}
			refs = append(refs, commentRef{commenter: bRow[b], weight: w})
		}
		off = append(off, int32(len(refs)))
		if n := len(f.commenters); n > 0 {
			res.postSentiment[r] = sum / float64(n)
		}
	}
	ch.off, ch.refs = off, refs

	// --- Fixed-point solve of Eqs. 1 and 4. AP sums each author's posts in
	// row order, so every sum adds the same terms in the same order. ---
	alpha, beta := a.cfg.Alpha, a.cfg.Beta
	inf := make([]float64, nb)
	newInf := make([]float64, nb)
	ap := make([]float64, nb)
	postInf := res.postInf
	copy(inf, gl) // GL is a natural starting point; any start converges.
	for r, pr := range bPrev {
		if pr >= 0 && int(pr) < len(prev.bloggerInf) {
			inf[r] = prev.bloggerInf[pr]
		}
	}

	ignoreCitation := a.cfg.IgnoreCitation
	sweepPosts := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cs := 0.0
			if ignoreCitation {
				// Without citation weighting the commenter's own influence
				// is not consulted; cs is just Σ SF (already in weight).
				for _, ref := range refs[off[i]:off[i+1]] {
					cs += ref.weight
				}
			} else {
				for _, ref := range refs[off[i]:off[i+1]] {
					cs += inf[ref.commenter] * ref.weight
				}
			}
			postInf[i] = beta*quality[i] + (1-beta)*cs
		}
	}

	for iter := 1; iter <= a.cfg.MaxIter; iter++ {
		res.Iterations = iter
		a.parallelSweep(np, sweepPosts)
		res.sumAP(ap)
		var delta float64
		for bi := range inf {
			v := alpha*ap[bi] + (1-alpha)*gl[bi]
			if d := v - inf[bi]; d > delta {
				delta = d
			} else if -d > delta {
				delta = -d
			}
			newInf[bi] = v
		}
		inf, newInf = newInf, inf
		if delta < a.cfg.Epsilon {
			res.Converged = true
			break
		}
	}

	// Generation-to-generation score stability: the sweep recomputes every
	// value, so even a converged warm restart moves each score by up to
	// Epsilon in the low bits. Values inside the convergence threshold are
	// indistinguishable at the solver's accuracy, so pin them to the
	// previous generation's exact bits. Downstream exact-equality consumers
	// (publish deltas, standing subscriptions, result caches) then see
	// change sets proportional to the true perturbation instead of the
	// whole corpus. Genuinely moved scores (≥ Epsilon) always update, so
	// drift against the true fixed point stays O(Epsilon).
	snapRows(postInf, pPrev, prev.postInf, eps)
	snapRows(inf, bPrev, prev.bloggerInf, eps)
	res.sumAP(ap)
	snapRows(ap, bPrev, prev.bloggerAP, eps)

	res.bloggerInf = inf
	res.bloggerAP = ap
	res.bloggerGL = gl
	res.postQuality = quality
	res.postNovelty = nov
	for r, id := range res.bloggers {
		res.BloggerScores[id] = inf[r]
		res.AP[id] = ap[r]
	}

	// --- Domain facet: Eq. 5 aggregation of the iv posteriors, on the
	// dense interned core. ---
	res.domains = newDomainIndex()
	if a.classifier == nil {
		return res, nil
	}
	res.domains = ch.domains.clone()
	res.hasDomains = true
	nd := res.domains.Len()
	res.postDomains = make([]float64, np*nd)
	for r, s := range ch.pSorted {
		// Rows cached before later domains were interned are shorter; the
		// prefix copy leaves the new slots at zero, which is exact.
		copy(res.postDomains[r*nd:(r+1)*nd], ch.posts[s].posterior)
	}
	res.aggregateDomains()
	return res, nil
}

// computeGL runs PageRank over the corpus's hyperlink graph and records
// which path it took in res (PageRankSkipped / PageRankDelta /
// PageRankFallback / PageRankPushed). The solve consumes the generation's
// cached link view (c.LinkViewFrom, extended from the previous solved
// generation's view in O(delta)),
// whose dense node index is exactly the sorted blogger order — so the
// kernel's score vector IS the GL slab, with no graph rebuild, no string
// index, and no score-map round-trip per analysis.
//
// Path selection, cheapest first:
//
//   - unchanged graph (same lineage and link epoch) → reuse the cached
//     vector verbatim (PageRank is deterministic, so this is bit-for-bit a
//     fresh solve);
//   - a residual push state from the previous solve, and the new view
//     extends the old one over the same base CSR (hence the same blogger
//     set) → the Gauss–Southwell delta solver (linkrank.DeltaPageRankCSR)
//     advances the cached vector in O(delta), touching only nodes the new
//     edges perturbed;
//   - otherwise (cold cache, blogger set changed, base compacted, delta
//     too large, solver budget blown) → a full sweep, warm-started from
//     the cached vector, after which the push state is rebuilt so the next
//     flush can take the delta path again.
//
// When the authority facet is disabled the GL vector is all zeros.
func (a *Analyzer) computeGL(c *blog.Frozen, ch *Cache, res *Result) []float64 {
	gl := make([]float64, len(ch.bSorted))
	if a.cfg.IgnoreAuthority {
		return gl
	}
	if ch.glMatches(c) {
		ch.glRows(gl)
		res.PageRankSkipped = true
		return gl
	}
	opts := a.cfg.PageRank
	// The push solver runs two orders tighter than the sweep epsilon: a
	// sweep's truncation error is invisible because warm restarts keep
	// contracting toward the same fixed point, but push truncation would
	// accumulate across flushes. Push cost grows only logarithmically with
	// precision (residuals decay geometrically), so the margin is nearly
	// free and keeps delta-path scores within sweep-level accuracy.
	pushOpts := opts
	if pushOpts.Epsilon == 0 {
		pushOpts.Epsilon = 1e-12 // sweep default 1e-10, tightened ×100
	} else if pushOpts.Epsilon > 0 {
		pushOpts.Epsilon /= 100
	}
	view := c.LinkViewFrom(ch.glView)
	if ch.push != nil {
		if dres, ok := linkrank.DeltaPageRankCSR(view.Delta(), ch.push, pushOpts); ok {
			gl = ch.push.AppendScores(gl[:0])
			ch.glView = view
			ch.storeGL(c, gl)
			res.PageRankDelta = true
			res.PageRankPushed = dres.Pushed
			return gl
		}
		res.PageRankFallback = true
	}
	if opts.WarmDense == nil {
		opts.WarmDense = ch.glRows(make([]float64, len(gl)))
	}
	pr := linkrank.PageRankCSR(view.CSR(), opts)
	copy(gl, pr.Scores)
	ch.push = linkrank.NewPushState(view.Delta(), pr.Scores, pushOpts)
	ch.glView = view
	ch.storeGL(c, gl)
	return gl
}

// snapRows pins each value to the previous generation's exact bits when
// the two differ by at most eps — the solver's own convergence threshold,
// below which the values are indistinguishable. rows maps each value to
// its row in old (-1 for new entities, which keep their fresh scores).
func snapRows(vals []float64, rows []int32, old []float64, eps float64) {
	for i, r := range rows {
		if r >= 0 && int(r) < len(old) && math.Abs(vals[i]-old[r]) <= eps {
			vals[i] = old[r]
		}
	}
}

// analyzeText fills the body facets of the fresh posts that lack one, in
// parallel across cfg.Workers. Each worker owns a textutil.Scanner and
// tokenizes a body once; the tokens give the word count, the novelty
// shingles (Prepare is pure) and the classifier posterior, which goes
// straight into its dense row: the classifier's labels are interned
// first, in sorted order. It records the facet reuse counts in res.
func (a *Analyzer) analyzeText(c *blog.Frozen, ch *Cache, fresh []int32, res *Result) {
	needNovelty := !a.cfg.IgnoreNovelty
	needWords := func(f *postFacets) bool { return !f.tokenized || (needNovelty && !f.hasPrepared) }
	needPosterior := func(f *postFacets) bool { return a.classifier != nil && f.posterior == nil }
	var todo, slots []int32
	tokenized, classified := 0, 0
	for _, s := range fresh {
		f := &ch.posts[s]
		w, p := needWords(f), needPosterior(f)
		if w {
			tokenized++
		}
		if p {
			classified++
		}
		if w || p {
			todo = append(todo, s)
		}
	}
	res.ReusedNovelty = len(ch.pSorted) - tokenized
	if a.classifier != nil {
		res.ReusedPosteriors = len(ch.pSorted) - classified
	}
	if classified > 0 {
		for _, l := range a.classifier.Labels() {
			slots = append(slots, int32(ch.domains.intern(l)))
		}
	}
	nd := ch.domains.Len()
	a.parallelSweep(len(todo), func(lo, hi int) {
		var sc textutil.Scanner
		post := make([]float64, len(slots))
		for _, s := range todo[lo:hi] {
			f := &ch.posts[s]
			body := c.Post(ch.postIDs[s]).Body
			tokens := sc.Scan(body)
			if needWords(f) {
				f.words, f.tokenized = float64(len(tokens)), true
				if needNovelty {
					f.prepared, f.hasPrepared = ch.det.Prepare(tokens, body), true
				}
			}
			if needPosterior(f) {
				a.classifier.Posterior(tokens, post)
				f.posterior = make([]float64, nd)
				for i, p := range post {
					f.posterior[slots[i]] = p
				}
			}
		}
	})
}

// computeQuality scores every post, in row order: token count normalized
// by the corpus maximum, times the novelty factor. Only the fresh posts
// the detector does not index yet are inserted, in chronological order;
// into an empty detector (a cold analysis) that is one bulk build. A
// back-dated post is one insert like any other: it takes its own score
// against the earlier posts and caps the later posts it resembles, and
// since a cap never depends on the capping post's score, no other score
// moves. It also records the corpus word total and the novelty lookup
// count in res.
func (a *Analyzer) computeQuality(ch *Cache, fresh []int32, res *Result) (quality, nov []float64) {
	np := len(ch.pSorted)
	needNovelty := !a.cfg.IgnoreNovelty
	if needNovelty {
		var todo []int32
		for _, s := range fresh {
			if !ch.posts[s].scored {
				todo = append(todo, s)
			}
		}
		slices.SortFunc(todo, ch.cmpChrono)
		res.ScoredNovelty = len(todo)
		if len(ch.novDocs) == 0 {
			ps := make([]*novelty.Prepared, len(todo))
			for i, s := range todo {
				ps[i] = &ch.posts[s].prepared
			}
			for i, n := range ch.det.ScoreAll(ps) {
				f := &ch.posts[todo[i]]
				f.nov, f.scored = n, true
			}
			ch.novDocs = append(ch.novDocs, todo...)
			todo = nil
		}
		var x int32 // the post being inserted
		earlier := func(doc int32) bool { return ch.cmpChrono(ch.novDocs[doc], x) < 0 }
		later := func(doc int32) {
			f := &ch.posts[ch.novDocs[doc]]
			f.nov = min(f.nov, novelty.MaxCopyScore)
		}
		for _, x = range todo {
			f := &ch.posts[x]
			f.nov, f.scored = ch.det.ScorePrepared(&f.prepared, earlier, later), true
			ch.novDocs = append(ch.novDocs, x)
		}
	}

	quality = make([]float64, np)
	nov = make([]float64, np)
	maxLen, words := 0.0, 0.0
	for r, s := range ch.pSorted {
		f := &ch.posts[s]
		quality[r] = f.words
		words += f.words
		maxLen = max(maxLen, f.words)
		nov[r] = novelty.OriginalScore
		if needNovelty {
			nov[r] = f.nov
		}
	}
	res.words = int(words)
	for r := range quality {
		if maxLen > 0 { // else every word count, hence quality, is 0
			quality[r] = quality[r] / maxLen * nov[r]
		}
	}
	return quality, nov
}

// scoreSentiments scores the comments appended to the grown posts since
// the cache last saw them (comments are append-only per post under the
// corpus COW contract, so a cached prefix never goes stale), in parallel
// across posts, and returns how many comment polarities came from the
// cache. Each worker scores a comment from the tokens of its own
// textutil.Scanner. With sentiment ignored nothing is scored or reused.
func (a *Analyzer) scoreSentiments(c *blog.Frozen, ch *Cache, grown []int32) (reused int) {
	if a.cfg.IgnoreSentiment {
		return 0
	}
	reused = ch.comments
	for _, s := range grown {
		f := &ch.posts[s]
		reused -= len(f.commenters) - len(f.sentiments)
	}
	a.parallelSweep(len(grown), func(lo, hi int) {
		var sc textutil.Scanner
		for _, s := range grown[lo:hi] {
			f := &ch.posts[s]
			comments := c.Post(ch.postIDs[s]).Comments
			for _, cm := range comments[len(f.sentiments):len(f.commenters)] {
				f.sentiments = append(f.sentiments, sentiment.FromCounts(a.sent.Counts(sc.Scan(cm.Text))))
			}
		}
	})
	return reused
}

// factorOf maps a comment polarity to its configured SF value.
func (a *Analyzer) factorOf(p sentiment.Polarity) float64 {
	switch p {
	case sentiment.Positive:
		return a.cfg.SFPositive
	case sentiment.Negative:
		return a.cfg.SFNegative
	default:
		return a.cfg.SFNeutral
	}
}

// parallelSweep splits [0, n) across cfg.Workers goroutines.
func (a *Analyzer) parallelSweep(n int, f func(lo, hi int)) {
	w := a.cfg.Workers
	if w > n {
		w = n
	}
	if w <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
