// Package blogserver simulates the blog service MASS crawls (the paper
// used Microsoft MSN Spaces, which no longer exists). A Server exposes a
// corpus over HTTP with one XML page per blogger's space — profile,
// friends, posts with comments, and outgoing hyperlinks — which is exactly
// the information the paper's crawler extracted.
//
// The server can inject artificial latency and deterministic transient
// failures so crawler retry logic is exercised in tests.
package blogserver

import (
	"context"
	"encoding/xml"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"mass/internal/blog"
)

// Page is the XML document served for one blogger's space, and the schema
// the crawler parses. Friends, commenters and links are how new spaces are
// discovered.
type Page struct {
	XMLName xml.Name         `xml:"space"`
	Blogger blog.Blogger     `xml:"blogger"`
	Posts   []blog.Post      `xml:"posts>post"`
	Links   []blog.BloggerID `xml:"links>link"`
	// Linkbacks are the spaces linking here (MSN Spaces surfaced these as
	// "recent visitors"/trackbacks); they make the link graph discoverable
	// in both directions.
	Linkbacks []blog.BloggerID `xml:"linkbacks>link"`
}

// Server serves a corpus as a simulated blog site.
type Server struct {
	corpus *blog.Frozen
	pages  map[blog.BloggerID]*Page // built once in New
	mux    *http.ServeMux
	// Latency is added to every request (simulated network/server delay).
	Latency time.Duration
	// FailEvery makes every Nth request fail with HTTP 503 when > 0,
	// deterministically, to exercise crawler retries.
	FailEvery int64
	// CorruptEvery makes every Nth space page return truncated XML when
	// > 0 — a 200 response whose body cannot be parsed, the nastier
	// failure mode real crawls hit.
	CorruptEvery int64

	requests atomic.Int64
}

// New builds a server over one generation of the corpus, frozen here,
// assembling every blogger's page up front: posts in journal order, links
// and linkbacks in Links order. The corpus must be valid. Routes,
// registered as method+wildcard patterns:
//
//	GET /spaces            — newline-separated list of all blogger IDs
//	GET /space/{id}        — the blogger's Page as XML
func New(c *blog.Corpus) *Server {
	g := c.Snapshot()
	s := &Server{corpus: g, pages: make(map[blog.BloggerID]*Page, g.NumBloggers()), mux: http.NewServeMux()}
	for id, b := range g.Bloggers() {
		s.pages[id] = &Page{Blogger: *b}
	}
	for _, pid := range g.Journal().Posts {
		p := g.Post(pid)
		s.pages[p.Author].Posts = append(s.pages[p.Author].Posts, *p)
	}
	for _, l := range g.Links() {
		s.pages[l.From].Links = append(s.pages[l.From].Links, l.To)
		s.pages[l.To].Linkbacks = append(s.pages[l.To].Linkbacks, l.From)
	}
	s.mux.HandleFunc("GET /spaces", func(w http.ResponseWriter, r *http.Request) {
		s.serveIndex(w)
	})
	s.mux.HandleFunc("GET /space/{id}", func(w http.ResponseWriter, r *http.Request) {
		n, _ := r.Context().Value(requestNumKey{}).(int64)
		if s.CorruptEvery > 0 && n%s.CorruptEvery == 0 {
			w.Header().Set("Content-Type", "application/xml; charset=utf-8")
			fmt.Fprint(w, "<space><blogger id=") // truncated mid-attribute
			return
		}
		s.serveSpace(w, r.PathValue("id"))
	})
	return s
}

// requestNumKey carries the request's sequence number from the
// fault-injection layer to the route handlers, so CorruptEvery stays
// deterministic per request even under concurrent fetches.
type requestNumKey struct{}

// Requests reports how many requests have been served (including failures).
func (s *Server) Requests() int64 { return s.requests.Load() }

// ServeHTTP implements http.Handler: the fault-injection layer (latency,
// deterministic 503s) runs first, then the mux routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := s.requests.Add(1)
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
	if s.FailEvery > 0 && n%s.FailEvery == 0 {
		http.Error(w, "transient overload", http.StatusServiceUnavailable)
		return
	}
	s.mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestNumKey{}, n)))
}

func (s *Server) serveIndex(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, id := range s.corpus.BloggerIDs() {
		fmt.Fprintln(w, id)
	}
}

func (s *Server) serveSpace(w http.ResponseWriter, id string) {
	page, ok := s.pages[blog.BloggerID(id)]
	if !ok {
		http.NotFound(w, nil)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	fmt.Fprint(w, xml.Header)
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(page); err != nil {
		// Headers are already written; nothing more to do than log-level
		// abandon. Tests catch schema regressions.
		return
	}
	enc.Flush()
}

// ParsePage decodes a Page from XML bytes; the crawler's parse step.
func ParsePage(data []byte) (*Page, error) {
	var p Page
	if err := xml.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("blogserver: parse page: %w", err)
	}
	if p.Blogger.ID == "" {
		return nil, fmt.Errorf("blogserver: page has no blogger ID")
	}
	return &p, nil
}
