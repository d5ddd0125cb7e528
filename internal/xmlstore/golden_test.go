package xmlstore

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/synth"
)

// shardsDigest is the SHA-256 of the file names and bytes SaveShards
// writes for a synth corpus with two late posts (journal order differs
// from ID order), in sorted file order. It changes only with an intended
// change to the shard layout or its post or link order.
const shardsDigest = "66db7df8fea98f11271701976651abc5accbdf59c949638dd64ffb2990fe44bf"

func TestSaveShardsGolden(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 3, Bloggers: 40, Posts: 200})
	if err != nil {
		t.Fatal(err)
	}
	posted := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, id := range []blog.PostID{"zz-late", "aa-late"} {
		if err := c.AddPost(&blog.Post{ID: id, Author: "blogger0001", Body: "late post", Posted: posted}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := SaveShards(dir, c); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name()))
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != shardsDigest {
		t.Fatalf("shard digest %s, want %s", got, shardsDigest)
	}
}
