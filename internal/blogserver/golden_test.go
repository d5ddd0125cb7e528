package blogserver

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/synth"
)

// pagesDigest is the SHA-256 of every space page of goldenCorpus, in
// sorted blogger order. It changes only with an intended change to the
// page schema or its post, link or linkback order.
const pagesDigest = "d1a41421c1f48304368bc538220f4eda45e812acee3cccceb93eadefc2502221"

// goldenCorpus is a synth corpus plus two late posts whose IDs sort on
// either side of the generated ones, so journal order and ID order
// differ.
func goldenCorpus(t *testing.T) *blog.Corpus {
	t.Helper()
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
	if err := c.AddComment("aa-late", blog.Comment{Commenter: "blogger0002", Text: "hi", Posted: posted}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPagesGolden(t *testing.T) {
	c := goldenCorpus(t)
	s := New(c)
	h := sha256.New()
	for _, id := range c.BloggerIDs() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/space/"+string(id), nil))
		if rec.Code != 200 {
			t.Fatalf("space %s: status %d", id, rec.Code)
		}
		h.Write(rec.Body.Bytes())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pagesDigest {
		t.Fatalf("page digest %s, want %s", got, pagesDigest)
	}
}
