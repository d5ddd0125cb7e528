package xmlstore

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"mass/internal/synth"
)

// The decode budgets of Read, per entity (blogger, post, comment or link)
// and per input byte. They cover the whole call: reading the input,
// scanning it and assembling the corpus. The reflection decode they
// replaced took ~48 mallocs per entity and ~5.9 bytes per input byte on
// the same kind of corpus.
const (
	loadMallocsPerEntity = 2.5
	loadBytesPerByte     = 3.5
)

func TestLoadAllocBudget(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 5, Bloggers: 200, Posts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	data := writeDoc(t, c)
	entities := len(c.Bloggers) + len(c.Posts) + len(c.Links)
	for _, p := range c.Posts {
		entities += len(p.Comments)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Posts) != len(c.Posts) {
		t.Fatalf("read %d posts, wrote %d", len(got.Posts), len(c.Posts))
	}
	mallocs := float64(after.Mallocs-before.Mallocs) / float64(entities)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(data))
	t.Logf("%d bytes, %d entities: %.2f mallocs per entity, %.2f bytes allocated per input byte", len(data), entities, mallocs, perByte)
	if mallocs > loadMallocsPerEntity {
		t.Errorf("%.2f mallocs per entity, budget %.1f", mallocs, loadMallocsPerEntity)
	}
	if perByte > loadBytesPerByte {
		t.Errorf("%.2f bytes allocated per input byte, budget %.1f", perByte, loadBytesPerByte)
	}
}

func BenchmarkLoad(b *testing.B) {
	c, _, err := synth.Generate(synth.Config{Seed: 5, Bloggers: 200, Posts: 2000})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "corpus.xml")
	if err := Save(path, c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
