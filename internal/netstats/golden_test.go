package netstats

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mass/internal/blog"
	"mass/internal/synth"
	"mass/internal/taginterest"
)

var update = flag.Bool("update", false, "rewrite testdata/graphs.golden")

// graphTranscript renders every graph-derived output of c at full
// precision: both netstats reports, the tag interest groups and the
// Neighborhood distances. With full set, every blogger is a seed and each
// distance map is listed; otherwise every 7th blogger is, and each map is
// summarized by its per-distance counts and the SHA-256 of its listing.
func graphTranscript(corpus *blog.Corpus, full bool) []byte {
	var buf bytes.Buffer
	c := corpus.Snapshot()
	fmt.Fprintf(&buf, "link: %#v\n", Analyze(c.LinkCSR()))
	fmt.Fprintf(&buf, "comment: %#v\n", Analyze(CommentGraph(c)))
	groups, err := taginterest.Discover(c, taginterest.Config{})
	fmt.Fprintf(&buf, "taginterest: %#v err=%v\n", groups, err)
	step := 7
	if full {
		step = 1
	}
	ids := c.BloggerIDs()
	for i := 0; i < len(ids); i += step {
		for radius := 0; radius <= 3; radius++ {
			dist := blog.Neighborhood(c, ids[i], radius)
			lines := make([]string, 0, len(dist))
			counts := make([]int, radius+1)
			for id, d := range dist {
				lines = append(lines, fmt.Sprintf("%s:%d", id, d))
				counts[d]++
			}
			sort.Strings(lines)
			if full {
				fmt.Fprintf(&buf, "neighborhood %s r=%d: %v\n", ids[i], radius, lines)
			} else {
				fmt.Fprintf(&buf, "neighborhood %s r=%d: counts=%v sha256=%x\n", ids[i], radius, counts,
					sha256.Sum256([]byte(fmt.Sprint(lines))))
			}
		}
	}
	return buf.Bytes()
}

// TestGraphOutputsGolden pins the exact graph-derived outputs on the
// Figure 1 corpus and a synthetic blogosphere against
// testdata/graphs.golden (go test ./internal/netstats -update re-records).
func TestGraphOutputsGolden(t *testing.T) {
	synthetic, _, err := synth.Generate(synth.Config{Seed: 2010, Bloggers: 300, Posts: 3000})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.WriteString("## figure1\n")
	got.Write(graphTranscript(blog.Figure1Corpus(), true))
	got.WriteString("## synth seed=2010 bloggers=300 posts=3000\n")
	got.Write(graphTranscript(synthetic, false))

	path := filepath.Join("testdata", "graphs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(g), len(w)); i++ {
			if i >= len(g) || i >= len(w) || !bytes.Equal(g[i], w[i]) {
				t.Fatalf("graphs.golden differs at line %d", i+1)
			}
		}
	}
}
