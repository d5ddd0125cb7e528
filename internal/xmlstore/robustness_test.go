package xmlstore

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"mass/internal/blog"
)

// Property: Read never panics and never returns an invalid corpus, no
// matter what bytes it is fed.
func TestReadNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return true // rejection is fine
		}
		return c.Snapshot().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any corpus that round-trips produces identical blogger and
// post ID sets (structure preservation under arbitrary string content).
func TestRoundTripPropertyArbitraryStrings(t *testing.T) {
	f := func(name, profile, title, body, comment string) bool {
		// XML cannot carry most control characters; the store is only
		// required to round-trip what XML can express.
		if !validXML(name) || !validXML(profile) || !validXML(title) ||
			!validXML(body) || !validXML(comment) {
			return true
		}
		c := blog.NewCorpus()
		if err := c.AddBlogger(&blog.Blogger{ID: "a", Name: name, Profile: profile}); err != nil {
			return false
		}
		if err := c.AddBlogger(&blog.Blogger{ID: "b"}); err != nil {
			return false
		}
		if err := c.AddPost(&blog.Post{ID: "p", Author: "a", Title: title, Body: body,
			Comments: []blog.Comment{{Commenter: "b", Text: comment}}}); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		p := got.Posts["p"]
		return got.Bloggers["a"].Name == name &&
			got.Bloggers["a"].Profile == profile &&
			p.Title == title && p.Body == body &&
			p.Comments[0].Text == comment
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// validXML reports whether s consists only of characters XML 1.0 can
// represent (encoding/xml rejects the rest at encode time).
func validXML(s string) bool {
	for _, r := range s {
		if r == 0x9 || r == 0xA || r == 0xD {
			continue
		}
		if r >= 0x20 && r <= 0xD7FF {
			continue
		}
		if r >= 0xE000 && r <= 0xFFFD {
			continue
		}
		if r >= 0x10000 && r <= 0x10FFFF {
			continue
		}
		return false
	}
	// Carriage returns are normalized to newlines by XML parsing; treat
	// strings containing them as out of scope for exact round-trip.
	return !strings.ContainsRune(s, '\r')
}
