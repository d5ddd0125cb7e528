package xmlstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mass/internal/blog"
)

func TestRoundTripBuffer(t *testing.T) {
	c := blog.Figure1Corpus()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<blogosphere>") {
		t.Fatal("missing root element")
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertCorpusEqual(t, c, got)
}

func TestRoundTripFile(t *testing.T) {
	c := blog.Figure1Corpus()
	path := filepath.Join(t.TempDir(), "nested", "corpus.xml")
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertCorpusEqual(t, c, got)
}

func TestRoundTripShards(t *testing.T) {
	c := blog.Figure1Corpus()
	dir := t.TempDir()
	if err := SaveShards(dir, c); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(c.Bloggers) {
		t.Fatalf("want %d shards, got %d", len(c.Bloggers), len(entries))
	}
	got, err := LoadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertCorpusEqual(t, c, got)
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.xml")); err == nil {
		t.Fatal("missing file must error")
	}
	if _, err := LoadShards(filepath.Join(t.TempDir(), "nodir")); err == nil {
		t.Fatal("missing dir must error")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("this is not xml")); err == nil {
		t.Fatal("garbage must error")
	}
}

func TestReadRejectsDanglingReferences(t *testing.T) {
	doc := `<?xml version="1.0"?>
<blogosphere>
  <bloggers><blogger id="a"><name>A</name><profile></profile></blogger></bloggers>
  <posts><post id="p1" author="ghost"><title>t</title><body>b</body></post></posts>
  <links></links>
</blogosphere>`
	if _, err := Read(strings.NewReader(doc)); err == nil {
		t.Fatal("post with unknown author must be rejected")
	}
}

func TestReadRejectsDuplicateBlogger(t *testing.T) {
	doc := `<?xml version="1.0"?>
<blogosphere>
  <bloggers>
    <blogger id="a"><name>A</name><profile></profile></blogger>
    <blogger id="a"><name>A2</name><profile></profile></blogger>
  </bloggers>
  <posts></posts><links></links>
</blogosphere>`
	if _, err := Read(strings.NewReader(doc)); err == nil {
		t.Fatal("duplicate blogger must be rejected")
	}
}

func TestXMLEscaping(t *testing.T) {
	c := blog.NewCorpus()
	if err := c.AddBlogger(&blog.Blogger{ID: "weird<>&", Name: `quotes "and" <tags>`}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPost(&blog.Post{ID: "p", Author: "weird<>&",
		Body: "text with <angle> & ampersand \"quotes\""}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertCorpusEqual(t, c, got)
}

func TestShardFileNameSanitization(t *testing.T) {
	c := blog.NewCorpus()
	if err := c.AddBlogger(&blog.Blogger{ID: "user/with:odd*chars"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveShards(dir, c); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || strings.ContainsAny(entries[0].Name(), "/:*") {
		t.Fatalf("shard name not sanitized: %v", entries)
	}
	got, err := LoadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Bloggers["user/with:odd*chars"]; !ok {
		t.Fatal("original ID must survive inside the shard")
	}
}

func TestTagsSurviveRoundTrip(t *testing.T) {
	c := blog.NewCorpus()
	if err := c.AddBlogger(&blog.Blogger{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPost(&blog.Post{ID: "p", Author: "a", Body: "b",
		Tags: []string{"travel", "beach"}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Posts["p"].Tags, []string{"travel", "beach"}) {
		t.Fatalf("tags = %v", got.Posts["p"].Tags)
	}
}

func TestTrueDomainSurvivesRoundTrip(t *testing.T) {
	c := blog.Figure1Corpus()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Posts["post2"].TrueDomain != "Economics" {
		t.Fatalf("TrueDomain lost: %q", got.Posts["post2"].TrueDomain)
	}
}

// assertCorpusEqual compares two corpora structurally.
func assertCorpusEqual(t *testing.T, want, got *blog.Corpus) {
	t.Helper()
	if err := got.Snapshot().Validate(); err != nil {
		t.Fatalf("loaded corpus invalid: %v", err)
	}
	if !reflect.DeepEqual(want.BloggerIDs(), got.BloggerIDs()) {
		t.Fatalf("blogger IDs differ:\nwant %v\ngot  %v", want.BloggerIDs(), got.BloggerIDs())
	}
	if !reflect.DeepEqual(want.Snapshot().PostIDs(), got.Snapshot().PostIDs()) {
		t.Fatalf("post IDs differ:\nwant %v\ngot  %v", want.Snapshot().PostIDs(), got.Snapshot().PostIDs())
	}
	for _, id := range want.BloggerIDs() {
		w, g := want.Bloggers[id], got.Bloggers[id]
		if w.Name != g.Name || w.Profile != g.Profile || !reflect.DeepEqual(w.Friends, g.Friends) {
			t.Fatalf("blogger %s differs: %+v vs %+v", id, w, g)
		}
	}
	for _, id := range want.Snapshot().PostIDs() {
		w, g := want.Posts[id], got.Posts[id]
		if w.Title != g.Title || w.Body != g.Body || w.Author != g.Author || w.TrueDomain != g.TrueDomain {
			t.Fatalf("post %s differs", id)
		}
		if !w.Posted.Equal(g.Posted) {
			t.Fatalf("post %s timestamp differs: %v vs %v", id, w.Posted, g.Posted)
		}
		if !reflect.DeepEqual(w.Tags, g.Tags) {
			t.Fatalf("post %s tags differ: %v vs %v", id, w.Tags, g.Tags)
		}
		if len(w.Comments) != len(g.Comments) || (w.Comments == nil) != (g.Comments == nil) {
			t.Fatalf("post %s comments differ: %d (nil %v) vs %d (nil %v)", id,
				len(w.Comments), w.Comments == nil, len(g.Comments), g.Comments == nil)
		}
		for i := range w.Comments {
			if w.Comments[i].Commenter != g.Comments[i].Commenter || w.Comments[i].Text != g.Comments[i].Text {
				t.Fatalf("post %s comment %d differs", id, i)
			}
			if !w.Comments[i].Posted.Equal(g.Comments[i].Posted) {
				t.Fatalf("post %s comment %d timestamp differs", id, i)
			}
		}
	}
	if len(want.Links) != len(got.Links) {
		t.Fatalf("link count differs: %d vs %d", len(want.Links), len(got.Links))
	}
	if ws, gs := blog.ComputeStats(nil, nil, want.Snapshot()), blog.ComputeStats(nil, nil, got.Snapshot()); ws != gs {
		t.Fatalf("stats differ: %+v vs %+v", ws, gs)
	}
}
