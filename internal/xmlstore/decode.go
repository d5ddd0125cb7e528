package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"

	"mass/internal/blog"
)

// parts are the entities one or more decoded documents hold, in document
// order, before assemble validates them.
type parts struct {
	bloggers []blog.Blogger
	posts    []blog.Post
	links    []blog.Link
}

// decoder scans XML documents held in memory and fills parts straight from
// the bytes, driven by the two fixed schemas (fileDoc and shardDoc). It
// accepts and rejects what encoding/xml's strict Decode does for those
// schemas; the tests keep that Decode as the oracle. Names, attribute
// values and character data are validated where they lie, and a value is
// copied out only when a schema field takes it: one string conversion when
// the raw bytes are the value, otherwise a decode into a reused buffer
// first. No string aliases the input.
type decoder struct {
	buf []byte
	pos int

	// The current token. A start tag's attributes stay valid until the
	// next token; text is the decoded character data of a text or CDATA
	// token (a slice of buf, or of scratch when it needed decoding).
	name    span
	local   int // offset in buf where the name's local part starts
	attrs   []attr
	text    []byte
	decoded bool // text is a slice of scratch, not of buf

	open       []span // raw names of the open elements, innermost last
	pendingEnd bool   // the last start tag was self-closing

	scratch []byte // decoded character data of the current text token
	vals    []byte // decoded attribute values of the current start tag
	acc     []byte // an element's character data spread over several tokens

	// strs interns blogger IDs, tags and domain labels: a corpus repeats
	// each of them many times.
	strs     map[string]string
	comments []blog.Comment // the current post's comments
	tags     []string       // the current post's tags
	cslab    []blog.Comment
	tslab    []string
}

type span struct{ lo, hi int }

// attr is one attribute of the current start tag. Its value is
// buf[lo:hi] when plain, else vals[lo:hi].
type attr struct {
	name   span
	local  int
	lo, hi int
	plain  bool
}

type token int

const (
	tokStart token = iota
	tokEnd
	tokText
	tokOther // comment, processing instruction or directive
)

func newDecoder() *decoder {
	return &decoder{strs: map[string]string{}}
}

// reset points the decoder at a new document.
func (d *decoder) reset(data []byte) {
	d.buf, d.pos = data, 0
	d.open, d.pendingEnd = d.open[:0], false
}

func (d *decoder) syntaxError(msg string) error { return d.errorAt(d.pos, msg) }

func (d *decoder) errorAt(i int, msg string) error {
	d.pos = min(i, len(d.buf))
	return &xml.SyntaxError{Msg: msg, Line: 1 + bytes.Count(d.buf[:d.pos], []byte{'\n'})}
}

func (d *decoder) eof() error { return d.syntaxError("unexpected EOF") }

// file decodes a blogosphere document into p.
func (d *decoder) file(data []byte, p *parts) error {
	d.reset(data)
	if err := d.root("blogosphere"); err != nil {
		return err
	}
	return d.children(func(name []byte) error {
		switch string(name) {
		case "bloggers":
			return d.list("blogger", func() error {
				p.bloggers = append(p.bloggers, blog.Blogger{})
				return d.blogger(&p.bloggers[len(p.bloggers)-1])
			})
		case "posts":
			return d.postList(p)
		case "links":
			return d.linkList(p)
		}
		return d.skip()
	})
}

// shard decodes a space document into p: always one blogger (zero when
// the document has none; repeated blogger elements fill the same one).
func (d *decoder) shard(data []byte, p *parts) error {
	d.reset(data)
	if err := d.root("space"); err != nil {
		return err
	}
	p.bloggers = append(p.bloggers, blog.Blogger{})
	b := &p.bloggers[len(p.bloggers)-1]
	return d.children(func(name []byte) error {
		switch string(name) {
		case "blogger":
			return d.blogger(b)
		case "posts":
			return d.postList(p)
		case "links":
			return d.linkList(p)
		}
		return d.skip()
	})
}

// root skips whatever precedes the first start tag and checks that tag's
// local name. Nothing after the root's end tag is read.
func (d *decoder) root(want string) error {
	for {
		tok, err := d.next()
		if err != nil {
			return err
		}
		if tok == tokStart {
			break
		}
	}
	if got := d.buf[d.local:d.name.hi]; string(got) != want {
		return fmt.Errorf("expected element type <%s> but have <%s>", want, got)
	}
	return nil
}

func (d *decoder) postList(p *parts) error {
	return d.list("post", func() error {
		p.posts = append(p.posts, blog.Post{})
		return d.post(&p.posts[len(p.posts)-1])
	})
}

func (d *decoder) linkList(p *parts) error {
	return d.list("link", func() error {
		var l blog.Link
		for i := range d.attrs {
			a := &d.attrs[i]
			switch string(d.attrName(a)) {
			case "from":
				l.From = blog.BloggerID(d.intern(d.value(a)))
			case "to":
				l.To = blog.BloggerID(d.intern(d.value(a)))
			}
		}
		p.links = append(p.links, l)
		return d.skip()
	})
}

func (d *decoder) blogger(b *blog.Blogger) error {
	for i := range d.attrs {
		if a := &d.attrs[i]; string(d.attrName(a)) == "id" {
			b.ID = blog.BloggerID(d.intern(d.value(a)))
		}
	}
	return d.children(func(name []byte) (err error) {
		switch string(name) {
		case "name":
			b.Name, err = d.str()
		case "profile":
			b.Profile, err = d.str()
		case "friends":
			err = d.list("friend", func() error {
				v, err := d.content()
				b.Friends = append(b.Friends, blog.BloggerID(d.intern(v)))
				return err
			})
		default:
			err = d.skip()
		}
		return err
	})
}

func (d *decoder) post(p *blog.Post) error {
	for i := range d.attrs {
		a := &d.attrs[i]
		switch string(d.attrName(a)) {
		case "id":
			p.ID = blog.PostID(d.value(a))
		case "author":
			p.Author = blog.BloggerID(d.intern(d.value(a)))
		case "posted":
			if err := p.Posted.UnmarshalText(d.value(a)); err != nil {
				return err
			}
		case "trueDomain":
			p.TrueDomain = d.intern(d.value(a))
		}
	}
	d.comments, d.tags = d.comments[:0], d.tags[:0]
	err := d.children(func(name []byte) (err error) {
		switch string(name) {
		case "title":
			p.Title, err = d.str()
		case "body":
			p.Body, err = d.str()
		case "comments":
			err = d.list("comment", func() error {
				d.comments = append(d.comments, blog.Comment{})
				return d.comment(&d.comments[len(d.comments)-1])
			})
		case "tags":
			err = d.list("tag", func() error {
				v, err := d.content()
				d.tags = append(d.tags, d.intern(v))
				return err
			})
		default:
			err = d.skip()
		}
		return err
	})
	p.Comments = carve(&d.cslab, d.comments)
	p.Tags = carve(&d.tslab, d.tags)
	return err
}

func (d *decoder) comment(c *blog.Comment) error {
	for i := range d.attrs {
		a := &d.attrs[i]
		switch string(d.attrName(a)) {
		case "commenter":
			c.Commenter = blog.BloggerID(d.intern(d.value(a)))
		case "posted":
			if err := c.Posted.UnmarshalText(d.value(a)); err != nil {
				return err
			}
		}
	}
	return d.children(func(name []byte) (err error) {
		if string(name) == "text" {
			c.Text, err = d.str()
			return err
		}
		return d.skip()
	})
}

// carve copies src into a capacity-capped window of a shared slab, so
// the many short per-post lists cost one allocation per slab instead of
// a few each, and an append to one list never writes into the next. An
// empty src yields nil, as encoding/xml leaves a list with no elements.
func carve[T any](slab *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if cap(*slab)-len(*slab) < len(src) {
		*slab = make([]T, 0, max(len(src), 4096))
	}
	lo := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[lo:len(*slab):len(*slab)]
}

// intern returns the one string held for the bytes b.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

func (d *decoder) attrName(a *attr) []byte { return d.buf[a.local:a.name.hi] }

func (d *decoder) value(a *attr) []byte {
	if a.plain {
		return d.buf[a.lo:a.hi]
	}
	return d.vals[a.lo:a.hi]
}

// children reads the content of the element just started through its end
// tag, handing each child's local name to each, which must consume that
// child. Character data, comments and the like are dropped.
func (d *decoder) children(each func(name []byte) error) error {
	for {
		tok, err := d.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			if err := each(d.buf[d.local:d.name.hi]); err != nil {
				return err
			}
		case tokEnd:
			return nil
		}
	}
}

// list reads a list wrapper, calling item for each child named name and
// skipping the others.
func (d *decoder) list(name string, item func() error) error {
	return d.children(func(n []byte) error {
		if string(n) != name {
			return d.skip()
		}
		return item()
	})
}

// skip consumes the element just started, checking its syntax.
func (d *decoder) skip() error {
	depth := 0
	for {
		tok, err := d.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokStart:
			depth++
		case tokEnd:
			if depth == 0 {
				return nil
			}
			depth--
		}
	}
}

func (d *decoder) str() (string, error) {
	b, err := d.content()
	return string(b), err
}

// content consumes the element just started and returns its direct
// character data: text and CDATA, not that of child elements. The bytes
// are valid until the next token.
func (d *decoder) content() ([]byte, error) {
	var out []byte
	first, inAcc := true, false // inAcc: out is d.acc
	for {
		tok, err := d.next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case tokText:
			switch {
			case first && !d.decoded:
				out = d.text // a slice of the input: stable across tokens
			case !inAcc:
				d.acc = append(append(d.acc[:0], out...), d.text...)
				inAcc = true
			default:
				d.acc = append(d.acc, d.text...)
			}
			if inAcc {
				out = d.acc
			}
			first = false
		case tokStart:
			if err := d.skip(); err != nil {
				return nil, err
			}
		case tokEnd:
			return out, nil
		}
	}
}

// next reads one token. Every error encoding/xml's strict tokenizer
// raises on the same bytes is raised here; EOF is always an error, since
// the schema layer stops reading at the root's end tag.
func (d *decoder) next() (token, error) {
	if d.pendingEnd {
		d.pendingEnd = false
		return tokEnd, nil
	}
	buf := d.buf
	if d.pos >= len(buf) {
		return 0, d.eof()
	}
	if buf[d.pos] != '<' {
		return tokText, d.charData()
	}
	d.pos++
	if d.pos >= len(buf) {
		return 0, d.eof()
	}
	switch buf[d.pos] {
	case '/':
		d.pos++
		return tokEnd, d.endTag()
	case '?':
		d.pos++
		return tokOther, d.skipProcInst()
	case '!':
		d.pos++
		if d.pos >= len(buf) {
			return 0, d.eof()
		}
		switch buf[d.pos] {
		case '-':
			return tokOther, d.skipComment()
		case '[':
			return tokText, d.cdata()
		}
		return tokOther, d.skipDirective()
	}
	return tokStart, d.startTag()
}

func (d *decoder) startTag() error {
	var ok bool
	if d.name, d.local, ok = d.nsName(); !ok {
		return d.syntaxError("expected element name after <")
	}
	d.attrs, d.vals = d.attrs[:0], d.vals[:0]
	buf := d.buf
	for {
		d.space()
		if d.pos >= len(buf) {
			return d.eof()
		}
		switch buf[d.pos] {
		case '/':
			d.pos++
			if d.pos >= len(buf) {
				return d.eof()
			}
			if buf[d.pos] != '>' {
				return d.syntaxError("expected /> in element")
			}
			d.pos++
			d.pendingEnd = true
			return nil
		case '>':
			d.pos++
			d.open = append(d.open, d.name)
			return nil
		}
		var a attr
		if a.name, a.local, ok = d.nsName(); !ok {
			return d.syntaxError("expected attribute name in element")
		}
		d.space()
		if d.pos >= len(buf) {
			return d.eof()
		}
		if buf[d.pos] != '=' {
			return d.syntaxError("attribute name without = in element")
		}
		d.pos++
		d.space()
		if d.pos >= len(buf) {
			return d.eof()
		}
		q := buf[d.pos]
		if q != '"' && q != '\'' {
			return d.syntaxError("unquoted or missing attribute value in element")
		}
		d.pos++
		end, plain, err := d.chars(q)
		if err != nil {
			return err
		}
		a.plain = plain
		if plain {
			a.lo, a.hi = d.pos, end
		} else {
			a.lo = len(d.vals)
			d.vals = appendChars(d.vals, buf[d.pos:end], true)
			a.hi = len(d.vals)
		}
		d.pos = end + 1
		d.attrs = append(d.attrs, a)
	}
}

func (d *decoder) endTag() error {
	name, _, ok := d.nsName()
	if !ok {
		return d.syntaxError("expected element name after </")
	}
	d.space()
	if d.pos >= len(d.buf) {
		return d.eof()
	}
	if d.buf[d.pos] != '>' {
		return d.syntaxError("invalid characters between </" + string(d.buf[name.lo:name.hi]) + " and >")
	}
	d.pos++
	n := len(d.open)
	if n == 0 {
		return d.syntaxError("unexpected end element </" + string(d.buf[name.lo:name.hi]) + ">")
	}
	if top := d.open[n-1]; !bytes.Equal(d.buf[top.lo:top.hi], d.buf[name.lo:name.hi]) {
		return d.syntaxError("element <" + string(d.buf[top.lo:top.hi]) + "> closed by </" + string(d.buf[name.lo:name.hi]) + ">")
	}
	d.open = d.open[:n-1]
	return nil
}

// skipProcInst reads a processing instruction after "<?". An xml declaration
// must say version 1.0 and UTF-8, wherever it appears: no charset reader
// is installed.
func (d *decoder) skipProcInst() error {
	target, ok := d.rawName()
	if !ok {
		return d.syntaxError("expected target name after <?")
	}
	d.space()
	i := bytes.Index(d.buf[d.pos:], []byte("?>"))
	if i < 0 {
		return d.errorAt(len(d.buf), "unexpected EOF")
	}
	inst := d.buf[d.pos : d.pos+i]
	d.pos += i + 2
	if string(d.buf[target.lo:target.hi]) != "xml" {
		return nil
	}
	if ver := instParam(inst, "version="); len(ver) > 0 && string(ver) != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := instParam(inst, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
		return fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// instParam returns the quoted value after key ("name=") in a processing
// instruction, found the way encoding/xml finds it: the first key
// occurrence followed by a quote wins, and an unterminated value is empty.
func instParam(s []byte, key string) []byte {
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, []byte(key))
		if k < 0 || len(key)+k >= len(sub) {
			return nil
		}
		i += len(key) + k + 1
		if c := sub[len(key)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// skipComment reads a comment after "<!"; d.pos is at its first '-'. A
// comment ends at its first "--", which must be followed by '>'.
func (d *decoder) skipComment() error {
	d.pos++
	if d.pos >= len(d.buf) {
		return d.eof()
	}
	if d.buf[d.pos] != '-' {
		return d.syntaxError("invalid sequence <!- not part of <!--")
	}
	d.pos++
	i := bytes.Index(d.buf[d.pos:], []byte("--"))
	if i < 0 || d.pos+i+2 >= len(d.buf) {
		return d.errorAt(len(d.buf), "unexpected EOF")
	}
	d.pos += i + 2
	if d.buf[d.pos] != '>' {
		return d.syntaxError(`invalid sequence "--" not allowed in comments`)
	}
	d.pos++
	return nil
}

// cdata reads a CDATA section after "<!"; d.pos is at its '['.
func (d *decoder) cdata() error {
	const open = "[CDATA["
	if !bytes.HasPrefix(d.buf[d.pos:], []byte(open)) {
		return d.syntaxError("invalid <![ sequence")
	}
	d.pos += len(open)
	i := bytes.Index(d.buf[d.pos:], []byte("]]>"))
	if i < 0 {
		return d.errorAt(len(d.buf), "unexpected EOF in CDATA section")
	}
	raw := d.buf[d.pos : d.pos+i]
	hasCR, err := d.checkCDATA(d.pos, d.pos+i)
	if err != nil {
		return err
	}
	d.pos += i + 3
	d.text, d.decoded = raw, hasCR
	if hasCR {
		d.scratch = appendChars(d.scratch[:0], raw, false)
		d.text = d.scratch
	}
	return nil
}

// skipDirective skips a <!...> declaration such as a DOCTYPE; d.pos is at
// the byte after "<!", which is taken as is. It ends at the first '>'
// outside quotes with every nested '<' closed; comments inside it are
// skipped.
func (d *decoder) skipDirective() error {
	buf := d.buf
	i := d.pos + 1
	var inquote byte
	depth := 0
	for {
		if i >= len(buf) {
			return d.errorAt(i, "unexpected EOF")
		}
		b := buf[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for j := 0; j < 3; j++ {
				if i >= len(buf) {
					return d.errorAt(i, "unexpected EOF")
				}
				b = buf[i]
				i++
				if b != "!--"[j] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if i >= len(buf) {
					return d.errorAt(i, "unexpected EOF")
				}
				b = buf[i]
				i++
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
	d.pos = i
	return nil
}

// charData reads a text token: everything up to the next '<'.
func (d *decoder) charData() error {
	end, plain, err := d.chars('<')
	if err != nil {
		return err
	}
	raw := d.buf[d.pos:end]
	d.pos = end
	d.text, d.decoded = raw, !plain
	if !plain {
		d.scratch = appendChars(d.scratch[:0], raw, true)
		d.text = d.scratch
	}
	return nil
}

// chars validates character data from d.pos up to the byte stop: '<' for
// text, the quote for an attribute value. It returns the stop's offset
// and whether the raw bytes are already the decoded value (no reference
// and no '\r'). It rejects what encoding/xml's strict text reader does:
// an unknown or malformed reference, '<' in an attribute value, "]]>" in
// text, invalid UTF-8 and characters outside the XML Char production.
// Text that runs to EOF is an error too: a document never ends inside an
// element the schema reads.
func (d *decoder) chars(stop byte) (end int, plain bool, err error) {
	buf := d.buf
	text := stop == '<'
	plain = true
	i := d.pos
	for i < len(buf) {
		c := buf[i]
		if c >= utf8.RuneSelf {
			n, err := d.checkRune(buf, i)
			if err != nil {
				return 0, false, err
			}
			i += n
			continue
		}
		switch {
		case c == stop:
			return i, plain, nil
		case c == '<':
			return 0, false, d.errorAt(i, "unescaped < inside quoted string")
		case c == '&':
			r, n := reference(buf[i:])
			if n == 0 || !isChar(r) {
				return 0, false, d.errorAt(i, "invalid character entity")
			}
			plain = false
			i += n
			continue
		case c == '>':
			if text && i-d.pos >= 2 && buf[i-1] == ']' && buf[i-2] == ']' {
				return 0, false, d.errorAt(i, "unescaped ]]> not in CDATA section")
			}
		case c == '\r':
			plain = false
		case c < 0x20 && c != '\t' && c != '\n':
			return 0, false, d.errorAt(i, fmt.Sprintf("illegal character code %U", rune(c)))
		}
		i++
	}
	return 0, false, d.errorAt(i, "unexpected EOF")
}

// checkCDATA validates the bytes of a CDATA section, buf[lo:hi], and
// reports whether they hold a '\r'.
func (d *decoder) checkCDATA(lo, hi int) (hasCR bool, err error) {
	for i := lo; i < hi; {
		c := d.buf[i]
		if c >= utf8.RuneSelf {
			n, err := d.checkRune(d.buf[:hi], i)
			if err != nil {
				return false, err
			}
			i += n
			continue
		}
		if c < 0x20 && c != '\t' && c != '\n' {
			if c != '\r' {
				return false, d.errorAt(i, fmt.Sprintf("illegal character code %U", rune(c)))
			}
			hasCR = true
		}
		i++
	}
	return hasCR, nil
}

// checkRune validates the non-ASCII rune at b[i] and returns its length.
func (d *decoder) checkRune(b []byte, i int) (int, error) {
	r, n := utf8.DecodeRune(b[i:])
	if r == utf8.RuneError && n == 1 {
		return 0, d.errorAt(i, "invalid UTF-8")
	}
	if !isChar(r) {
		return 0, d.errorAt(i, fmt.Sprintf("illegal character code %U", r))
	}
	return n, nil
}

// appendChars appends the decoded form of validated raw character data:
// references expanded (when refs is set), "\r\n" and lone '\r' turned
// into '\n'.
func appendChars(dst, raw []byte, refs bool) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '&' && refs:
			r, n := reference(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
			continue
		case c == '\r':
			dst = append(dst, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
		default:
			dst = append(dst, c)
		}
		i++
	}
	return dst
}

// reference parses the reference at the start of b (b[0] == '&') and
// returns the rune it stands for and its length, or n == 0 when strict
// encoding/xml rejects it: only the five predefined entities and decimal
// or lowercase-x hex character references up to U+10FFFF are known. A
// surrogate code point stands for U+FFFD, as string(rune) makes it.
func reference(b []byte) (r rune, n int) {
	i := 1
	if i < len(b) && b[i] == '#' {
		i++
		base := rune(10)
		if i < len(b) && b[i] == 'x' {
			base = 16
			i++
		}
		digits := 0
		for ; i < len(b); i++ {
			c := rune(b[i])
			switch {
			case '0' <= c && c <= '9':
				c -= '0'
			case base == 16 && 'a' <= c && c <= 'f':
				c -= 'a' - 10
			case base == 16 && 'A' <= c && c <= 'F':
				c -= 'A' - 10
			default:
				c = -1
			}
			if c < 0 {
				break
			}
			if r <= unicode.MaxRune { // saturate: anything past it is rejected
				r = r*base + c
			}
			digits++
		}
		if digits == 0 || i >= len(b) || b[i] != ';' || r > unicode.MaxRune {
			return 0, 0
		}
		if 0xD800 <= r && r <= 0xDFFF {
			r = utf8.RuneError
		}
		return r, i + 1
	}
	for _, e := range entities {
		if len(b) > len(e.name)+1 && string(b[1:1+len(e.name)]) == e.name && b[1+len(e.name)] == ';' {
			return e.r, len(e.name) + 2
		}
	}
	return 0, 0
}

var entities = [...]struct {
	name string
	r    rune
}{{"lt", '<'}, {"gt", '>'}, {"amp", '&'}, {"apos", '\''}, {"quot", '"'}}

// isChar reports whether r is in the XML Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

func (d *decoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\r', '\n', '\t':
			d.pos++
		default:
			return
		}
	}
}

// rawName reads a name: the bytes up to the first ASCII byte that cannot
// be in one. ok is false when it is empty or not an XML name.
func (d *decoder) rawName() (s span, ok bool) {
	s.lo = d.pos
	i := d.pos
	ascii := true
	for ; i < len(d.buf); i++ {
		c := d.buf[i]
		if c >= utf8.RuneSelf {
			ascii = false
			continue
		}
		if !isNameByte(c) {
			break
		}
	}
	d.pos, s.hi = i, i
	if i == s.lo {
		return s, false
	}
	if ascii {
		c := d.buf[s.lo]
		return s, 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == ':'
	}
	return s, isName(d.buf[s.lo:s.hi])
}

// nsName reads an element or attribute name and returns where its local
// part starts: after the colon of prefix:local. A name with two colons is
// rejected; one with an empty prefix or local part is all local.
func (d *decoder) nsName() (s span, local int, ok bool) {
	if s, ok = d.rawName(); !ok {
		return s, 0, false
	}
	name := d.buf[s.lo:s.hi]
	c := bytes.IndexByte(name, ':')
	switch {
	case c < 0:
		return s, s.lo, true
	case bytes.IndexByte(name[c+1:], ':') >= 0:
		return s, 0, false
	case c == 0 || c == len(name)-1:
		return s, s.lo, true
	}
	return s, s.lo + c + 1, true
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
}

// isName reports whether b, which holds a non-ASCII byte, is an XML name.
// encoding/xml keeps the XML 1.0 name-character tables unexported; the
// one exported test against them is the encoder's check of a processing
// instruction target, so such names are checked there.
func isName(b []byte) bool {
	return xml.NewEncoder(io.Discard).EncodeToken(xml.ProcInst{Target: string(b)}) == nil
}
