package novelty

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"mass/internal/textutil"
)

// oracleDetector is the near-duplicate index as it was first written: one
// map from shingle hash to its first document, a second map holding every
// further document, and a document's shingles looked up one map probe at a
// time. It is the reference the flat base-plus-overlay index is tested
// against (FuzzDetector).
type oracleDetector struct {
	dupThreshold float64
	first        map[uint64]int32
	more         map[uint64][]int32
	seenSize     []int
	shared       []int32
	touched      []int32
}

func newOracle() *oracleDetector {
	return &oracleDetector{dupThreshold: New().dupThreshold, first: map[uint64]int32{}, more: map[uint64][]int32{}}
}

// score is Detector.ScorePrepared's contract over the two maps: shingles
// is the document's sorted shingle set and indicator its copy-indicator
// score.
func (d *oracleDetector) score(shingles []uint64, indicator float64, earlier func(doc int32) bool, later func(doc int32)) float64 {
	s := indicator
	for _, g := range shingles {
		if doc, ok := d.first[g]; ok {
			d.tally(doc)
			for _, rest := range d.more[g] {
				d.tally(rest)
			}
		}
	}
	for _, doc := range d.touched {
		inter := int(d.shared[doc])
		d.shared[doc] = 0
		union := len(shingles) + d.seenSize[doc] - inter
		if float64(inter)/float64(union) < d.dupThreshold {
			continue
		}
		if earlier == nil || earlier(doc) {
			s = min(s, MaxCopyScore)
		} else {
			later(doc)
		}
	}
	d.touched = d.touched[:0]
	d.observe(shingles)
	return s
}

func (d *oracleDetector) tally(doc int32) {
	if d.shared[doc] == 0 {
		d.touched = append(d.touched, doc)
	}
	d.shared[doc]++
}

func (d *oracleDetector) observe(sh []uint64) {
	id := int32(len(d.seenSize))
	d.seenSize = append(d.seenSize, len(sh))
	d.shared = append(d.shared, 0)
	for _, g := range sh {
		if _, ok := d.first[g]; !ok {
			d.first[g] = id
		} else {
			d.more[g] = append(d.more[g], id)
		}
	}
}

// FuzzDetector inserts documents that share shingles (verbatim and edited
// copies over a small vocabulary) into a Detector and into the oracle: a
// chronological prefix as one ScoreAll, the rest one at a time in random
// order with earlier and later callbacks drawn from the documents'
// chronological ranks. Small bases keep the overlay bound low, so the
// inserts cross it many times, and once mid-way the detector is rebuilt
// from its own AppendDocuments through Observe. Every score, every set of
// later calls and the read-back shingle sets must equal the oracle's.
func FuzzDetector(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(10), uint8(7), uint8(12))
	f.Add(uint64(2), uint8(150), uint8(0), uint8(100), uint8(5))
	f.Add(uint64(3), uint8(200), uint8(120), uint8(0), uint8(30))
	f.Add(uint64(4), uint8(90), uint8(90), uint8(255), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, n, bulk, restoreAt, vocab uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		words := make([]string, 2+int(vocab)%40)
		for i := range words {
			words[i] = fmt.Sprintf("w%d", i)
		}
		texts := make([]string, int(n))
		for i := range texts {
			switch {
			case i > 0 && rng.IntN(4) == 0: // a verbatim copy
				texts[i] = texts[rng.IntN(i)]
			case i > 0 && rng.IntN(3) == 0: // an edited copy
				tok := strings.Fields(texts[rng.IntN(i)])
				if len(tok) > 0 {
					tok[rng.IntN(len(tok))] = words[rng.IntN(len(words))]
				}
				texts[i] = strings.Join(tok, " ")
			default:
				tok := make([]string, rng.IntN(40))
				for w := range tok {
					tok[w] = words[rng.IntN(len(words))]
				}
				texts[i] = strings.Join(tok, " ")
			}
			if rng.IntN(8) == 0 {
				texts[i] += " reposted from elsewhere"
			}
		}
		d, o := New(), newOracle()
		prep := make([]Prepared, len(texts))
		want := make([][]uint64, len(texts)) // rank → shingle set
		for i, text := range texts {
			prep[i] = d.Prepare(textutil.Tokenize(text), text)
			want[i] = slices.Clone(prep[i].shingles)
		}

		var ranks []int // document number → chronological rank
		order := rng.Perm(len(texts))
		m := int(bulk) % (len(texts) + 1)
		slices.Sort(order[:m])
		ps := make([]*Prepared, m)
		for k, r := range order[:m] {
			ps[k] = &prep[r]
		}
		got := d.ScoreAll(ps)
		for k, r := range order[:m] {
			if w := o.score(want[r], prep[r].indicator, nil, nil); got[k] != w {
				t.Fatalf("ScoreAll: rank %d scored %v, oracle %v", r, got[k], w)
			}
			ranks = append(ranks, r)
		}

		for step, r := range order[m:] {
			if step == int(restoreAt) {
				flat, off := d.AppendDocuments(nil)
				docs := make([]Prepared, len(ranks))
				for k, rk := range ranks {
					if !slices.Equal(flat[off[k]:off[k+1]], want[rk]) {
						t.Fatalf("AppendDocuments: document %d (rank %d) reads %v, indexed %v", k, rk, flat[off[k]:off[k+1]], want[rk])
					}
					docs[k] = RestorePrepared(flat[off[k]:off[k+1]:off[k+1]], 0)
				}
				d = New()
				d.Observe(pointers(docs))
			}
			laterGot, laterWant := map[int]bool{}, map[int]bool{}
			earlier := func(doc int32) bool { return ranks[doc] < r }
			s := d.ScorePrepared(&prep[r], earlier, func(doc int32) { laterGot[ranks[doc]] = true })
			w := o.score(want[r], prep[r].indicator, earlier, func(doc int32) { laterWant[ranks[doc]] = true })
			if s != w || !maps.Equal(laterGot, laterWant) {
				t.Fatalf("insert %d (rank %d): score %v, later %v; oracle %v, later %v", step, r, s, laterGot, w, laterWant)
			}
			if prep[r].shingles != nil {
				t.Fatalf("insert %d: the detector did not take over the shingles", step)
			}
			ranks = append(ranks, r)
		}
		flat, off := d.AppendDocuments([]uint64{42})
		if flat[0] != 42 || off[0] != 1 || len(flat) != 1+d.Postings() {
			t.Fatalf("AppendDocuments over a prefix: off[0] %d, %d values for %d postings", off[0], len(flat), d.Postings())
		}
		for k, rk := range ranks {
			if !slices.Equal(flat[off[k]:off[k+1]], want[rk]) {
				t.Fatalf("final AppendDocuments: document %d reads %v, indexed %v", k, flat[off[k]:off[k+1]], want[rk])
			}
		}
	})
}

func pointers(docs []Prepared) []*Prepared {
	ps := make([]*Prepared, len(docs))
	for i := range docs {
		ps[i] = &docs[i]
	}
	return ps
}
