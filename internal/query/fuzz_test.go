package query

import (
	"reflect"
	"sync"
	"testing"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/influence"
	"mass/internal/synth"
)

// fuzzFixture is a tiny analyzed corpus used to execute whatever the
// fuzzer manages to decode. It runs a classifier, so domain keys have
// rankings and domain-ordered queries take ranked parts.
var (
	fuzzOnce sync.Once
	fuzzC    *blog.Frozen
	fuzzRes  *influence.Result
)

func fuzzFixture() (*blog.Frozen, *influence.Result) {
	fuzzOnce.Do(func() {
		fuzzC = blog.Figure1Corpus().Snapshot()
		nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(nil, 20, 8))
		if err != nil {
			panic(err)
		}
		an, err := influence.NewAnalyzer(influence.Config{}, nb)
		if err != nil {
			panic(err)
		}
		fuzzRes, err = an.AnalyzeCached(fuzzC, nil, nil)
		if err != nil {
			panic(err)
		}
	})
	return fuzzC, fuzzRes
}

// FuzzDecode is the decoder's robustness contract: any byte soup either
// decodes into a query that executes cleanly, or fails with an error —
// it must never panic. (The API layer surfaces those errors as 400
// invalid_query.) It is also a differential oracle for the shard
// executor: every decoded scan runs as three disjoint owned-row-mask
// parts — ranked walks for unfiltered influence and domain rankings,
// masked scans otherwise — merged by MergeShards, which must reproduce
// Execute's rows and total exactly.
func FuzzDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"entity":"bloggers"}`,
		`{"entity":"posts","limit":3}`,
		`{"entity":"domains","select":["count","mean"]}`,
		`{"entity":"bloggers","where":{"field":"influence","op":"gt","value":0.5}}`,
		`{"entity":"bloggers","where":{"and":[{"field":"gl","op":"ge","value":0},{"not":{"field":"posts","op":"lt","value":1}}]}}`,
		`{"entity":"bloggers","orderBy":[{"field":"interest","weights":{"Sports":0.5,"Travel":0.5},"desc":true}]}`,
		`{"entity":"posts","where":{"field":"posted","op":"ge","value":"2009-06-01T00:00:00Z"}}`,
		`{"entity":"posts","where":{"field":"author","op":"eq","value":"Amery"}}`,
		`{"entity":"posts","aggregate":{"op":"mean","field":"novelty"}}`,
		`{"entity":"bloggers","where":{"or":[]}}`,
		`{"entity":"bloggers","where":{"field":"domain:Sports","op":"ge","value":1e308}}`,
		`{"entity":"bloggers","where":{"field":"influence","op":"gt","value":1e400}}`,
		`{"entity":"bloggers","limit":-5,"offset":-1}`,
		`{"entity":"bloggers","limit":999999999,"offset":999999999}`,
		`{"entity":"bloggers","where":{"not":{"not":{"not":{"field":"ap","op":"ne","value":0}}}}}`,
		`[1,2,3]`,
		`"bloggers"`,
		`{"entity":"bloggers","where":{"field":"influence","op":"gt","value":{}}}`,
		`{"entity":"bloggers","orderBy":[{"field":"influence","desc":true}],"limit":2}`,
		`{"entity":"bloggers","orderBy":[{"field":"influence","desc":true}],"select":["ap","gl","posts"],"offset":1,"limit":3}`,
		`{"entity":"bloggers","orderBy":[{"field":"domain:Sports","desc":true}],"limit":4}`,
		`{"entity":"bloggers","orderBy":[{"field":"domain:Sports","desc":true}],"select":["influence"],"offset":2,"limit":2}`,
		`{"entity":"bloggers","orderBy":[{"field":"domain:NoSuchDomain","desc":true}],"offset":1}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Decode(data)
		if err != nil {
			return
		}
		// A successfully decoded query is the decoder's promise that it is
		// executable: run it to hold the promise (and to catch executor
		// panics on odd-but-valid input).
		c, res := fuzzFixture()
		want, err := Execute(c, res, q)
		if err != nil {
			t.Fatalf("decoded query failed to execute: %v\nquery: %s", err, data)
		}
		if perDomain(q) {
			return
		}
		owners := virtualOwners(res, 3)
		parts := make([]*ShardResult, len(owners))
		for p, own := range owners {
			if parts[p], err = ExecuteShard(c, res, q, own); err != nil {
				t.Fatalf("ExecuteShard part %d: %v\nquery: %s", p, err, data)
			}
		}
		got, err := MergeShards(parts, q)
		if err != nil {
			t.Fatalf("MergeShards: %v\nquery: %s", err, data)
		}
		if got.Total != want.Total || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("3-part merge diverges from Execute\nquery: %s\n got: total %d %+v\nwant: total %d %+v",
				data, got.Total, got.Rows, want.Total, want.Rows)
		}
	})
}
