package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/lexicon"
)

// workload is one traffic mix against one server configuration. The
// server flags are part of the definition: a workload run on another
// flush policy or shard count is another workload.
type workload struct {
	name, why string
	shards    int
	durable   bool
	// readRate is the open-loop arrival rate of the Zipf read mix (reads/s);
	// writeRate the open-loop arrival rate of ingest requests.
	readRate, writeRate float64
	// backfill is the share of post writes dated inside the corpus span
	// instead of after its last timestamp.
	backfill float64
	// slowCalls is how many /stats and how many network?radius=1 calls the
	// open-loop phase carries, at fixed evenly spaced positions.
	slowCalls int
	// trends keeps /trends in the mix (it answers 501 on a sharded cluster).
	trends bool
	// sse measures freshness from a subscription event stream; otherwise
	// from read-your-writes probes sent every probeEvery for each acked
	// posts write until it is seen.
	sse bool
	// probeRate is a steady open-loop stream of read-your-writes probes,
	// each for the latest acked posts write when it is sent.
	probeRate float64
	// goodputShare is the share of the run spent in the closed-loop
	// goodput phase; readLimit the latency a read must meet to count.
	goodputShare float64
	readLimit    time.Duration
}

// The corpus is one fixed synthetic blogosphere, generated by synth from
// corpusSeed (its default seed) and cached; the workload seed varies only
// the traffic, so a corpus drawn per seed does not add its own shape to
// the run-to-run spread. The size is below the paper scale (3000
// bloggers, 40000 posts) so that three server boots and a 15-second
// measurement per run fit the benchmark's time budget; see README.md.
const (
	corpusSeed     = 2010
	corpusBloggers = 1200
	corpusPosts    = 15000
)

// Flush policy shared by every workload: pending mutations are folded
// every flushInterval, or sooner once flushEvery are pending.
const (
	flushInterval = 200 * time.Millisecond
	flushEvery    = 64
)

// probeEvery is the read-your-writes probe cadence; it bounds the error of
// probe-measured freshness.
const probeEvery = 100 * time.Millisecond

var workloads = []workload{
	{
		name:   "read-zipf",
		why:    "one in-memory shard serving a Zipf read mix with no writes: api, query and snapshot rankings on a warm query cache",
		shards: 1, readRate: 600, slowCalls: 1, trends: true,
		goodputShare: 0.3, readLimit: 50 * time.Millisecond,
	},
	{
		name:   "ingest-live",
		why:    "one durable shard under open-loop in-order writes with subscriptions: ingest, WAL, incremental analysis, subscription fan-out",
		shards: 1, durable: true, writeRate: 8, sse: true, probeRate: 20,
	},
	{
		name:   "mixed-sharded",
		why:    "four in-memory shards with reads and writes, a share back-dated: scatter-gather, cache invalidation, novelty replay",
		shards: 4, readRate: 140, writeRate: 4, backfill: 0.2, slowCalls: 1,
		goodputShare: 0.3, readLimit: 200 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverFlags is the mass-server command line for w, minus -corpus/-addr.
func (w workload) serverFlags(dataDir string) []string {
	f := []string{"-quiet", "-rate-limit", "0", "-shards", fmt.Sprint(w.shards),
		"-flush-interval", flushInterval.String(), "-flush-every", fmt.Sprint(flushEvery)}
	if w.durable {
		f = append(f, "-data-dir", dataDir)
	}
	return f
}

// op is one scheduled request.
type op struct {
	id     int
	due    time.Duration // offset from the phase start
	route  string        // route label for per-route stats
	method string
	path   string
	body   []byte
	write  *writeOp // set for ingest requests
	probe  *writeOp // set for read-your-writes probes: the write probed
	ast    []byte   // the read as a query AST, for reads that can be re-run in process
	// latestProbe marks a probe slot, filled when it is sent with a probe
	// of the latest acked posts write.
	latestProbe bool
}

func (o *op) isWrite() bool { return o.write != nil }

type postReq struct {
	ID     string    `json:"id"`
	Author string    `json:"author"`
	Title  string    `json:"title"`
	Body   string    `json:"body"`
	Posted time.Time `json:"posted"`
	Tags   []string  `json:"tags,omitempty"`
}

type commentReq struct {
	Post      string    `json:"post"`
	Commenter string    `json:"commenter"`
	Text      string    `json:"text"`
	Posted    time.Time `json:"posted"`
}

type linkReq struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// writeOp is one ingest request: a small batch of one mutation kind.
type writeOp struct {
	kind     string // "posts", "comments" or "links"
	posts    []postReq
	comments []commentReq
	links    []linkReq
	backfill bool
}

func (w *writeOp) mutations() int { return len(w.posts) + len(w.comments) + len(w.links) }

// corpusInfo is what op generation needs to know about the corpus.
type corpusInfo struct {
	bloggers []string // in a seed-shuffled popularity order
	// center is the network call's blogger, the same on every seed: the
	// call is one of two fixed expensive reads, and its cost follows the
	// size of the center's neighbourhood.
	center   string
	domains  []string // in a seed-shuffled popularity order
	first    time.Time
	last     time.Time
	recent   []string // the most recent posts, comment targets
	links    map[linkReq]bool
	posts    int
	comments int
	nlinks   int
}

func newCorpusInfo(c *blog.Corpus, seed int64) *corpusInfo {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	ci := &corpusInfo{links: map[linkReq]bool{}}
	for _, id := range c.BloggerIDs() {
		ci.bloggers = append(ci.bloggers, string(id))
	}
	ci.center = ci.bloggers[0]
	r.Shuffle(len(ci.bloggers), func(i, j int) { ci.bloggers[i], ci.bloggers[j] = ci.bloggers[j], ci.bloggers[i] })
	ci.domains = append(ci.domains, lexicon.Domains()...)
	r.Shuffle(len(ci.domains), func(i, j int) { ci.domains[i], ci.domains[j] = ci.domains[j], ci.domains[i] })
	type pt struct {
		id string
		t  time.Time
	}
	all := make([]pt, 0, len(c.Posts))
	for id, p := range c.Posts {
		all = append(all, pt{string(id), p.Posted})
		ci.comments += len(p.Comments)
	}
	ci.posts = len(all)
	sort.Slice(all, func(i, j int) bool {
		if !all[i].t.Equal(all[j].t) {
			return all[i].t.Before(all[j].t)
		}
		return all[i].id < all[j].id
	})
	ci.first, ci.last = all[0].t, all[len(all)-1].t
	for i := len(all) - 1; i >= 0 && len(ci.recent) < 300; i-- {
		ci.recent = append(ci.recent, all[i].id)
	}
	for _, l := range c.Links {
		ci.links[linkReq{string(l.From), string(l.To)}] = true
	}
	ci.nlinks = len(c.Links)
	return ci
}

// gen draws deterministic request content from one seed.
type gen struct {
	r        *rand.Rand
	ci       *corpusInfo
	seed     int64
	zBlogger *rand.Zipf
	zDomain  *rand.Zipf
	zSmall   *rand.Zipf // 0..9: pages, thresholds, templates
	zProfile *rand.Zipf
	profiles []string
	nPosts   int
	nWrites  int
	// Route and write-kind decks: each block of draws holds every route
	// (write kind) exactly in proportion to its weight, shuffled by the
	// seed, so every run carries the same mix and only the order and the
	// content vary with the seed.
	readDeck    []string
	writeDeck   []string
	nQueries    int
	nPostWrites int
	newLinks    map[linkReq]bool
}

func newGen(ci *corpusInfo, seed int64) *gen {
	r := rand.New(rand.NewSource(seed))
	g := &gen{
		r: r, ci: ci, seed: seed,
		zBlogger: rand.NewZipf(r, 1.1, 1, uint64(len(ci.bloggers)-1)),
		zDomain:  rand.NewZipf(r, 1.2, 1, uint64(len(ci.domains)-1)),
		zSmall:   rand.NewZipf(r, 1.3, 1, 9),
		zProfile: rand.NewZipf(r, 1.2, 1, 15),
		newLinks: map[linkReq]bool{},
	}
	for i := 0; i < 16; i++ {
		g.profiles = append(g.profiles, g.text(g.ci.domains[i%len(g.ci.domains)], 12))
	}
	return g
}

func (g *gen) blogger() string { return g.ci.bloggers[g.zBlogger.Uint64()] }
func (g *gen) domain() string  { return g.ci.domains[g.zDomain.Uint64()] }

// text is n words of a domain's vocabulary with a little general
// sentiment vocabulary mixed in.
func (g *gen) text(domain string, n int) string {
	voc := lexicon.Vocabulary(domain)
	pos, neg := lexicon.PositiveWords(), lexicon.NegativeWords()
	words := make([]string, n)
	for i := range words {
		switch x := g.r.Intn(10); {
		case x == 0:
			words[i] = pos[g.r.Intn(len(pos))]
		case x == 1:
			words[i] = neg[g.r.Intn(len(neg))]
		default:
			words[i] = voc[g.r.Intn(len(voc))]
		}
	}
	return strings.Join(words, " ")
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value passed here is a plain struct or map
	}
	return b
}

// readMix is the Zipf read mix: route weights in percent.
var readMix = []struct {
	route  string
	weight int
}{
	{"top", 22}, {"domain_top", 18}, {"blogger", 25}, {"advert", 8},
	{"profile", 7}, {"query", 17}, {"trends", 3},
}

func (g *gen) read(trends bool) *op {
	if len(g.readDeck) == 0 {
		for _, m := range readMix {
			if m.route == "trends" && !trends {
				continue
			}
			for i := 0; i < m.weight; i++ {
				g.readDeck = append(g.readDeck, m.route)
			}
		}
		g.r.Shuffle(len(g.readDeck), func(i, j int) { g.readDeck[i], g.readDeck[j] = g.readDeck[j], g.readDeck[i] })
	}
	route := g.readDeck[0]
	g.readDeck = g.readDeck[1:]
	o := &op{route: route, method: "GET"}
	switch route {
	case "top":
		off := 10 * int(g.zSmall.Uint64())
		o.path = fmt.Sprintf("/api/v1/bloggers/top?limit=10&offset=%d", off)
		o.ast = mustJSON(map[string]any{"entity": "bloggers",
			"orderBy": []map[string]any{{"field": "influence", "desc": true}}, "limit": 10, "offset": off})
	case "domain_top":
		d := g.domain()
		o.path = "/api/v1/domains/" + d + "/top?limit=10"
		o.ast = mustJSON(map[string]any{"entity": "bloggers",
			"orderBy": []map[string]any{{"field": "domain:" + d, "desc": true}}, "limit": 10})
	case "blogger":
		o.path = "/api/v1/bloggers/" + g.blogger()
	case "advert":
		ds := []string{g.domain()}
		if g.r.Intn(2) == 0 {
			if d := g.domain(); d != ds[0] {
				ds = append(ds, d)
			}
		}
		o.method, o.path = "POST", "/api/v1/advert"
		o.body = mustJSON(map[string]any{"domains": ds, "k": 10})
	case "profile":
		o.method, o.path = "POST", "/api/v1/profile"
		o.body = mustJSON(map[string]any{"text": g.profiles[g.zProfile.Uint64()], "k": 10})
	case "query":
		o.method, o.path = "POST", "/api/v1/query"
		n := int(g.zSmall.Uint64())
		var ast map[string]any
		g.nQueries++
		switch g.nQueries % 3 {
		case 0:
			o.route = "query.bloggers"
			ast = map[string]any{"entity": "bloggers",
				"where":   map[string]any{"field": "posts", "op": "ge", "value": n + 1},
				"orderBy": []map[string]any{{"field": "ap", "desc": true}}, "limit": 20}
		case 1:
			o.route = "query.posts"
			ast = map[string]any{"entity": "posts",
				"where":   map[string]any{"field": "comments", "op": "ge", "value": n},
				"orderBy": []map[string]any{{"field": "quality", "desc": true}}, "limit": 20}
		default:
			o.route = "query.domains"
			ast = map[string]any{"entity": "domains",
				"where":   map[string]any{"field": "count", "op": "ge", "value": 10 * n},
				"orderBy": []map[string]any{{"field": "mean", "desc": true}}, "limit": 10}
		}
		o.body = mustJSON(ast)
		o.ast = o.body
	case "trends":
		o.path = "/api/v1/trends"
	}
	return o
}

// slow builds one of the two expensive reads.
func (g *gen) slow(route string) *op {
	if route == "stats" {
		return &op{route: "stats", method: "GET", path: "/api/v1/stats"}
	}
	return &op{route: "network", method: "GET", path: "/api/v1/bloggers/" + g.ci.center + "/network?radius=1"}
}

// newBloggerAt places the new-blogger posts write within each cycle of
// ten, apart from the fifth and tenth, which are back-dated on
// mixed-sharded.
const newBloggerAt = 3

// write builds one ingest request: posts (half), comments on recent posts
// (a third) or links. Post timestamps advance one second per write past
// the corpus's last post, except every (1/backfill)-th posts write, dated
// in the middle of the corpus span.
func (g *gen) write(backfill float64) *op {
	g.nWrites++
	step := time.Duration(g.nWrites) * time.Second
	w := &writeOp{}
	if len(g.writeDeck) == 0 {
		g.writeDeck = []string{"posts", "posts", "posts", "comments", "comments", "links"}
		g.r.Shuffle(len(g.writeDeck), func(i, j int) { g.writeDeck[i], g.writeDeck[j] = g.writeDeck[j], g.writeDeck[i] })
	}
	w.kind = g.writeDeck[0]
	g.writeDeck = g.writeDeck[1:]
	switch w.kind {
	case "posts":
		g.nPostWrites++
		author := g.blogger()
		// Every tenth posts write is by a new blogger, at a fixed place in
		// the cycle: a new blogger changes the blogger set, which makes the
		// link-rank solver fall back to a full sweep, so their number is
		// fixed rather than drawn.
		if g.nPostWrites%10 == newBloggerAt {
			author = fmt.Sprintf("bench-%d-b%04d", g.seed, g.nWrites)
		}
		posted := g.ci.last.Add(step)
		if backfill > 0 && g.nPostWrites%int(math.Round(1/backfill)) == 0 {
			w.backfill = true
			// Mid-span, so every back-dated post makes novelty replay the
			// same share of the corpus.
			posted = g.ci.first.Add(g.ci.last.Sub(g.ci.first) / 2).Add(step)
		}
		for i, n := 0, 1+g.r.Intn(2); i < n; i++ {
			g.nPosts++
			d := g.domain()
			w.posts = append(w.posts, postReq{
				ID:     fmt.Sprintf("bench-%d-p%05d", g.seed, g.nPosts),
				Author: author,
				Title:  g.text(d, 4),
				Body:   g.text(d, 60+g.r.Intn(60)),
				Posted: posted.Add(time.Duration(i) * time.Millisecond),
				Tags:   []string{strings.ToLower(d)},
			})
		}
	case "comments":
		for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
			w.comments = append(w.comments, commentReq{
				Post:      g.ci.recent[g.r.Intn(len(g.ci.recent))],
				Commenter: g.blogger(),
				Text:      g.text(g.domain(), 10+g.r.Intn(15)),
				Posted:    g.ci.last.Add(step).Add(time.Duration(i) * time.Millisecond),
			})
		}
	default:
		for i, n := 0, 1+g.r.Intn(2); i < n; i++ {
			for {
				l := linkReq{g.blogger(), g.blogger()}
				if l.From != l.To && !g.ci.links[l] && !g.newLinks[l] {
					g.newLinks[l] = true
					w.links = append(w.links, l)
					break
				}
			}
		}
	}
	o := &op{route: "write." + w.kind, method: "POST", path: "/api/v1/" + w.kind, write: w}
	switch w.kind {
	case "posts":
		o.body = mustJSON(w.posts)
	case "comments":
		o.body = mustJSON(w.comments)
	default:
		o.body = mustJSON(w.links)
	}
	return o
}

// probeFor is read-your-writes probe n for a posts write: the author's
// posts, newest first, in a page wide enough to hold all of them (no
// author has 60). The page size varies with n, below the API's cap of 100,
// so that successive probes do not share a query-cache entry: probe
// latency is the uncached read path, not a mix of hits and misses whose
// proportion depends on how flushes fall between probes.
func probeFor(w *writeOp, n int) *op {
	ast := mustJSON(map[string]any{"entity": "posts",
		"where":   map[string]any{"field": "author", "op": "eq", "value": w.posts[0].Author},
		"orderBy": []map[string]any{{"field": "posted", "desc": true}}, "limit": 60 + n%40})
	return &op{route: "probe", method: "POST", path: "/api/v1/query", body: ast, probe: w, ast: ast}
}

// openLoop is a fixed-rate arrival schedule: n = rate·dur arrivals,
// evenly spaced from 0, plus slowCalls /stats and slowCalls network calls
// at fixed positions (stats at the ¼ points of each equal slice, network
// at the ¾ points) so no two expensive calls overlap and every seed runs
// the same number of them. Reads and writes get their own evenly spaced
// streams; the merged schedule is sorted by due time, and ids number it.
func openLoop(g *gen, w workload, dur time.Duration) []*op {
	var ops []*op
	add := func(rate float64, mk func() *op) {
		if rate <= 0 {
			return
		}
		n := int(rate * dur.Seconds())
		for i := 0; i < n; i++ {
			o := mk()
			o.due = time.Duration(float64(i) / rate * float64(time.Second))
			ops = append(ops, o)
		}
	}
	add(w.readRate, func() *op { return g.read(w.trends) })
	add(w.writeRate, func() *op { return g.write(w.backfill) })
	add(w.probeRate, func() *op { return &op{route: "probe", method: "POST", path: "/api/v1/query", latestProbe: true} })
	for k := 0; k < w.slowCalls; k++ {
		slice := dur / time.Duration(w.slowCalls)
		s := g.slow("stats")
		s.due = time.Duration(k)*slice + slice/4
		nw := g.slow("network")
		nw.due = time.Duration(k)*slice + 3*slice/4
		ops = append(ops, s, nw)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	for i, o := range ops {
		o.id = i
	}
	return ops
}
