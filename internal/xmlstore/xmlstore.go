// Package xmlstore persists blogosphere corpora as XML, matching the
// paper's Crawler Module, which "stores the bloggers' information
// (including the bloggers' personal information, posts, and corresponding
// comments) in XML files".
//
// Two layouts are supported: a single snapshot file (Save/Load) and a
// sharded directory with one XML file per blogger (SaveShards/LoadShards),
// which is what a multi-threaded crawler naturally produces.
//
// Writing goes through encoding/xml's Encoder and the struct tags of
// fileDoc, shardDoc and the blog types. Reading does not: a boot reads the
// whole corpus, and encoding/xml's reflection Decode spent more time on it
// than the analysis that follows. The decoder (decode.go) scans the input
// bytes once, driven by the two fixed schemas, and fills the blog structs
// directly. Its contract is the same accept set as encoding/xml's strict
// Decode into fileDoc or shardDoc: it rejects exactly the inputs that
// Decode rejects, and where both accept, the decoded bloggers, posts and
// links are equal. The tests keep that Decode as the oracle, on
// hand-written documents, on synth corpora, and in FuzzRead.
package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mass/internal/blog"
)

// fileDoc is the on-disk schema of a snapshot file.
type fileDoc struct {
	XMLName  xml.Name       `xml:"blogosphere"`
	Bloggers []blog.Blogger `xml:"bloggers>blogger"`
	Posts    []blog.Post    `xml:"posts>post"`
	Links    []blog.Link    `xml:"links>link"`
}

// shardDoc is the on-disk schema of a per-blogger shard: the blogger, their
// posts, and their outgoing links.
type shardDoc struct {
	XMLName xml.Name     `xml:"space"`
	Blogger blog.Blogger `xml:"blogger"`
	Posts   []blog.Post  `xml:"posts>post"`
	Links   []blog.Link  `xml:"links>link"`
}

// Write encodes the corpus as a single XML document to w: bloggers and
// posts in sorted-ID order, links in insertion order, read from one
// generation of the corpus.
func Write(w io.Writer, c *blog.Corpus) error {
	f := c.Snapshot()
	doc := fileDoc{Links: f.Links()}
	for _, id := range f.BloggerIDs() {
		doc.Bloggers = append(doc.Bloggers, *f.Blogger(id))
	}
	for _, id := range f.PostIDs() {
		doc.Posts = append(doc.Posts, *f.Post(id))
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("xmlstore: encode: %w", err)
	}
	return enc.Flush()
}

// Read decodes a corpus from a single XML document, rebuilding all indexes
// and validating referential integrity.
func Read(r io.Reader) (*blog.Corpus, error) {
	var buf bytes.Buffer // read whole: the decoder scans bytes in memory
	switch r := r.(type) {
	case interface{ Len() int }: // bytes.Reader, strings.Reader, bytes.Buffer
		buf.Grow(r.Len() + bytes.MinRead)
	case *os.File:
		if fi, err := r.Stat(); err == nil {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("xmlstore: decode: %w", err)
	}
	var p parts
	if err := newDecoder().file(buf.Bytes(), &p); err != nil {
		return nil, fmt.Errorf("xmlstore: decode: %w", err)
	}
	return assemble(p.bloggers, p.posts, p.links)
}

// Save writes the corpus snapshot to path, creating parent directories.
func Save(path string, c *blog.Corpus) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a corpus snapshot from path.
func Load(path string) (*blog.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// SaveShards writes one XML file per blogger into dir (created if needed),
// read from one generation of the corpus. File names are sanitized
// blogger IDs with an .xml suffix.
func SaveShards(dir string, c *blog.Corpus) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := c.Snapshot()
	postsBy := map[blog.BloggerID][]blog.Post{}
	for _, pid := range g.Journal().Posts {
		p := g.Post(pid)
		postsBy[p.Author] = append(postsBy[p.Author], *p)
	}
	outBy := map[blog.BloggerID][]blog.Link{}
	for _, l := range g.Links() {
		outBy[l.From] = append(outBy[l.From], l)
	}
	for _, id := range g.BloggerIDs() {
		doc := shardDoc{Blogger: *g.Blogger(id), Posts: postsBy[id], Links: outBy[id]}
		path := filepath.Join(dir, sanitize(string(id))+".xml")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(f, xml.Header); err != nil {
			f.Close()
			return err
		}
		enc := xml.NewEncoder(f)
		enc.Indent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			return fmt.Errorf("xmlstore: shard %s: %w", id, err)
		}
		if err := enc.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadShards reads every *.xml shard in dir and assembles the corpus.
func LoadShards(dir string) (*blog.Corpus, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".xml") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var p parts
	d := newDecoder()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if err := d.shard(data, &p); err != nil {
			return nil, fmt.Errorf("xmlstore: shard %s: %w", name, err)
		}
	}
	return assemble(p.bloggers, p.posts, p.links)
}

// assemble builds a validated corpus from decoded parts.
func assemble(bloggers []blog.Blogger, posts []blog.Post, links []blog.Link) (*blog.Corpus, error) {
	c := blog.NewCorpus()
	for i := range bloggers {
		b := bloggers[i]
		if err := c.AddBlogger(&b); err != nil {
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
	}
	for i := range posts {
		p := posts[i]
		if err := c.AddPost(&p); err != nil {
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
	}
	for _, l := range links {
		if err := c.AddLink(l.From, l.To); err != nil {
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
	}
	if err := c.Snapshot().Validate(); err != nil {
		return nil, fmt.Errorf("xmlstore: %w", err)
	}
	return c, nil
}

// sanitize maps a blogger ID to a safe file name.
func sanitize(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}
