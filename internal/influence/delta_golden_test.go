package influence

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"mass/internal/blog"
	"mass/internal/linkrank"
	"mass/internal/synth"
)

// Golden figures of TestDeltaPathGolden. They pin the exact bits the
// incremental PageRank path produces, so a rewrite of the link overlay or
// of the push solver's seeding must leave every flush bit-identical. A
// deliberate numeric change re-records them from the test's failure
// message.
const (
	goldenDeltaFlushes    = 35
	goldenFallbackFlushes = 5
	goldenPushes          = 173299
	goldenScoresSHA256    = "120b9fe98e593645b5a492fefeb16efedf1321eb272ffd6145221ea7e44fcf45"
)

// TestDeltaPathGolden drives link-only flushes through AnalyzeCached on
// one corpus lineage and compares, against the golden figures above, the
// SHA-256 of every flush's GL and influence bits, the total push count and
// how many flushes took the delta path or fell back to a full sweep. Every
// flush's GL must also match a machine-precision cold PageRank of the same
// link graph, so recorded bits are never wrong ones.
func TestDeltaPathGolden(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 2010, Bloggers: 300, Posts: 1200})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, Config{}, trainDomainClassifier(t))
	cache := NewCache()
	prev, err := a.AnalyzeCached(corpus.Snapshot(), nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	ids := corpus.BloggerIDs()
	outDeg := map[blog.BloggerID]int{}
	for _, l := range corpus.Links {
		outDeg[l.From]++
	}
	var dangling []blog.BloggerID
	for _, id := range ids {
		if outDeg[id] == 0 {
			dangling = append(dangling, id)
		}
	}
	if len(dangling) == 0 {
		t.Fatal("corpus has no dangling blogger")
	}
	h := sha256.New()
	var deltas, fallbacks, pushes int
	rng := uint64(2010)
	next := func() int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng >> 33)
	}
	for flush := 0; flush < 40; flush++ {
		added := 0
		if flush%5 == 0 && flush/5 < len(dangling) {
			// A source with no out-links: its first link moves the
			// dangling mass.
			to := ids[next()%len(ids)]
			if ok, err := corpus.AddLinkDedup(dangling[flush/5], to); err != nil {
				t.Fatal(err)
			} else if ok {
				added++
			}
		}
		for added < 3 {
			from, to := ids[next()%len(ids)], ids[next()%len(ids)]
			if from == to {
				continue
			}
			ok, err := corpus.AddLinkDedup(from, to)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				added++
			}
		}
		res, err := a.AnalyzeCached(corpus.Snapshot(), prev, cache)
		if err != nil {
			t.Fatal(err)
		}
		if res.PageRankSkipped {
			t.Fatalf("flush %d: a link-only flush must not skip PageRank", flush)
		}
		if res.PageRankDelta {
			deltas++
		}
		if res.PageRankFallback {
			fallbacks++
		}
		pushes += res.PageRankPushed
		cold := linkrank.PageRankCSR(corpus.Snapshot().LinkCSR(),
			linkrank.Options{Epsilon: linkrank.ExplicitZero, MaxIter: 300}).Map()
		for b, s := range res.GL {
			if d := math.Abs(s - cold[string(b)]); !(d <= 1e-9) {
				t.Fatalf("flush %d: GL %s: %v vs cold %v (|Δ|=%g)", flush, b, s, cold[string(b)], d)
			}
		}
		hashScores(h, res)
		prev = res
	}
	if deltas != goldenDeltaFlushes || fallbacks != goldenFallbackFlushes || pushes != goldenPushes {
		t.Fatalf("delta/fallback flushes %d/%d with %d pushes, golden %d/%d with %d",
			deltas, fallbacks, pushes, goldenDeltaFlushes, goldenFallbackFlushes, goldenPushes)
	}
	// Architectures that fuse multiply-add (arm64, ppc64, s390x) round
	// differently, so the bit hash is pinned on amd64 only.
	if runtime.GOARCH != "amd64" {
		t.Skipf("score bits pinned on amd64 only, not %s", runtime.GOARCH)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenScoresSHA256 {
		t.Fatalf("score bits SHA-256 %s, golden %s", got, goldenScoresSHA256)
	}
}

// hashScores feeds a result's GL and blogger influence bits and its post
// influence bits, in dense row order, to h.
func hashScores(h hash.Hash, res *Result) {
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	d := res.Dense()
	for i := range d.Bloggers {
		put(d.GL[i])
		put(d.Influence[i])
	}
	for _, s := range d.PostScore {
		put(s)
	}
}
