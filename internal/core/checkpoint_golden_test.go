package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mass/internal/blog"
)

// goldenCheckpointFilesSHA256 is the SHA-256 over the name and SHA-256 of
// every snapshot and WAL segment TestCheckpointFilesGolden leaves behind.
// It pins the on-disk bytes of both formats: a rewrite of the encoders
// must leave every file byte-identical. A deliberate format change
// re-records it from the test's failure message.
const goldenCheckpointFilesSHA256 = "253d0d948189e1089590928113955b55f3a8f68dce8497a5a87c5ae00d79bef1"

// TestCheckpointFilesGolden drives a durable engine through a few ingest +
// Refresh rounds (posts, comments, links and one new blogger), with a
// checkpoint cadence small enough that periodic checkpoints and their GC
// run between rounds, closes it (the final checkpoint) and hashes every
// snap-*.snap and wal-*.seg file in the directory.
func TestCheckpointFilesGolden(t *testing.T) {
	dir := t.TempDir()
	opts := durableOptions(dir)
	opts.Durability.CheckpointEvery = 6
	e, err := NewEngine(synthCorpus(t, 321, 20, 90), opts)
	if err != nil {
		t.Fatal(err)
	}
	bloggers := e.Current().Corpus().BloggerIDs()
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		var b Batch
		for i := 0; i < 3; i++ {
			b.Posts = append(b.Posts, &blog.Post{
				ID:         blog.PostID(fmt.Sprintf("golden-r%d-p%d", round, i)),
				Author:     bloggers[(round*3+i)%len(bloggers)],
				Title:      fmt.Sprintf("round %d post %d", round, i),
				Body:       "markets and food along the coast, travel notes and recipes",
				Posted:     time.Unix(int64(1700200000+round*600+i*60), 0),
				TrueDomain: "travel",
				Tags:       []string{"travel", fmt.Sprintf("r%d", round)},
			})
		}
		if err := e.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := e.AddBatch(Batch{Comments: []BatchComment{{
			Post: blog.PostID(fmt.Sprintf("golden-r%d-p0", round)),
			Comment: blog.Comment{
				Commenter: bloggers[(round+5)%len(bloggers)],
				Text:      "a wonderful read, thanks",
				Posted:    time.Unix(int64(1700200300+round*600), 7),
			},
		}}}); err != nil {
			t.Fatal(err)
		}
		links := []blog.Link{{From: bloggers[round], To: bloggers[(round*7+3)%len(bloggers)]}}
		if round == 2 {
			if err := e.AddBatch(Batch{Bloggers: []*blog.Blogger{{
				ID: "golden-newcomer", Name: "Newcomer", Profile: "food and travel",
				Friends: []blog.BloggerID{bloggers[0]},
			}}}); err != nil {
				t.Fatal(err)
			}
			links = append(links, blog.Link{From: "golden-newcomer", To: bloggers[1]})
		}
		if err := e.AddBatch(Batch{Links: links}); err != nil {
			t.Fatal(err)
		}
		if err := e.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		n := ent.Name()
		if (strings.HasPrefix(n, "snap-") && strings.HasSuffix(n, ".snap")) ||
			(strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg")) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var snaps int
	var listing strings.Builder
	h := sha256.New()
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(h, "%s %x\n", n, sum)
		fmt.Fprintf(&listing, "\n  %s %7d B %x", n, len(data), sum)
		if strings.HasPrefix(n, "snap-") {
			snaps++
		}
	}
	if snaps < 2 {
		t.Fatalf("want ≥2 snapshots on disk, got %v", names)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCheckpointFilesSHA256 {
		t.Fatalf("checkpoint files SHA-256 = %s, want %s; files:%s", got, goldenCheckpointFilesSHA256, listing.String())
	}
}
