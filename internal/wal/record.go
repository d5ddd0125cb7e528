package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"mass/internal/blog"
)

// castagnoli is the CRC32C polynomial table; CRC32C has hardware support on
// both amd64 and arm64, so framing overhead is negligible next to fsync.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecord bounds a single frame's payload. Anything larger on disk is
// treated as corruption (a torn or garbage length prefix), not as data.
const maxRecord = 16 << 20

// maxSnapshot bounds a snapshot file's payload, so a corrupt length field
// cannot drive a multi-gigabyte allocation before the checksum is checked.
const maxSnapshot = 1 << 30

// frameHeader is [u32 payload len][u32 CRC32C(payload)].
const frameHeader = 8

// OpKind discriminates WAL record payloads.
type OpKind uint8

// The mutation kinds the engine logs. Values are part of the on-disk
// format; never renumber.
const (
	OpBlogger OpKind = 1 // upsert blogger
	OpPost    OpKind = 2 // add post
	OpComment OpKind = 3 // append comment to post
	OpLink    OpKind = 4 // add link between bloggers
)

// Op is one logged mutation. Exactly the fields for its Kind are set.
type Op struct {
	Kind OpKind

	Blogger *blog.Blogger // OpBlogger

	Post *blog.Post // OpPost

	PostID  blog.PostID   // OpComment
	Comment *blog.Comment // OpComment

	From, To blog.BloggerID // OpLink
}

// --- encoding primitives ---

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// timeVal encodes t as a zero flag byte, or 1 followed by Unix seconds and
// nanoseconds. Monotonic clock readings are deliberately dropped.
func (e *encoder) timeVal(t time.Time) {
	if t.IsZero() {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u64(uint64(t.Unix()))
	e.u32(uint32(t.Nanosecond()))
}

// decoder reads the encoder's output. Errors are sticky: after the first
// out-of-bounds read every accessor returns zero values, so decode paths
// can run straight through and check err once. It never panics on corrupt
// input.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated record at offset %d", d.off)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) || d.off+n < d.off {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.fail()
	}
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads a uvarint length and sanity-checks it against the remaining
// bytes, assuming each element costs at least min bytes. This keeps corrupt
// lengths from turning into huge allocations.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(d.buf)-d.off)/min) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) timeVal() time.Time {
	switch d.u8() {
	case 0:
		return time.Time{}
	case 1:
		sec := int64(d.u64())
		nsec := d.u32()
		if d.err != nil {
			return time.Time{}
		}
		return time.Unix(sec, int64(nsec))
	default:
		d.fail()
		return time.Time{}
	}
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wal: %d trailing bytes in record", len(d.buf)-d.off)
	}
	return nil
}

// --- op payloads ---

func (e *encoder) comment(cm *blog.Comment) {
	e.str(string(cm.Commenter))
	e.str(cm.Text)
	e.timeVal(cm.Posted)
}

func (d *decoder) comment() blog.Comment {
	return blog.Comment{
		Commenter: blog.BloggerID(d.str()),
		Text:      d.str(),
		Posted:    d.timeVal(),
	}
}

func (e *encoder) blogger(b *blog.Blogger) {
	e.str(string(b.ID))
	e.str(b.Name)
	e.str(b.Profile)
	e.uvarint(uint64(len(b.Friends)))
	for _, f := range b.Friends {
		e.str(string(f))
	}
}

func (d *decoder) blogger() *blog.Blogger {
	b := &blog.Blogger{
		ID:      blog.BloggerID(d.str()),
		Name:    d.str(),
		Profile: d.str(),
	}
	if n := d.count(1); n > 0 {
		b.Friends = make([]blog.BloggerID, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			b.Friends = append(b.Friends, blog.BloggerID(d.str()))
		}
	}
	return b
}

func (e *encoder) post(p *blog.Post) {
	e.str(string(p.ID))
	e.str(string(p.Author))
	e.str(p.Title)
	e.str(p.Body)
	e.timeVal(p.Posted)
	e.str(p.TrueDomain)
	e.uvarint(uint64(len(p.Tags)))
	for _, t := range p.Tags {
		e.str(t)
	}
	e.uvarint(uint64(len(p.Comments)))
	for i := range p.Comments {
		e.comment(&p.Comments[i])
	}
}

func (d *decoder) post() *blog.Post {
	p := &blog.Post{
		ID:         blog.PostID(d.str()),
		Author:     blog.BloggerID(d.str()),
		Title:      d.str(),
		Body:       d.str(),
		Posted:     d.timeVal(),
		TrueDomain: d.str(),
	}
	if n := d.count(1); n > 0 {
		p.Tags = make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			p.Tags = append(p.Tags, d.str())
		}
	}
	if n := d.count(3); n > 0 {
		p.Comments = make([]blog.Comment, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			p.Comments = append(p.Comments, d.comment())
		}
	}
	return p
}

func appendOp(buf []byte, op *Op) ([]byte, error) {
	e := encoder{buf: buf}
	e.u8(uint8(op.Kind))
	switch op.Kind {
	case OpBlogger:
		e.blogger(op.Blogger)
	case OpPost:
		e.post(op.Post)
	case OpComment:
		e.str(string(op.PostID))
		e.comment(op.Comment)
	case OpLink:
		e.str(string(op.From))
		e.str(string(op.To))
	default:
		return buf, fmt.Errorf("wal: unknown op kind %d", op.Kind)
	}
	return e.buf, nil
}

func decodeOp(payload []byte) (Op, error) {
	d := decoder{buf: payload}
	op := Op{Kind: OpKind(d.u8())}
	switch op.Kind {
	case OpBlogger:
		op.Blogger = d.blogger()
	case OpPost:
		op.Post = d.post()
	case OpComment:
		op.PostID = blog.PostID(d.str())
		cm := d.comment()
		op.Comment = &cm
	case OpLink:
		op.From = blog.BloggerID(d.str())
		op.To = blog.BloggerID(d.str())
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wal: unknown op kind %d", op.Kind)
		}
	}
	if err := d.finish(); err != nil {
		return Op{}, err
	}
	return op, nil
}

// appendFrame wraps payload in the [len][crc][payload] frame.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// nextFrame extracts the first frame from buf. ok is false when buf holds
// no complete, checksum-valid frame at its start — the caller treats that
// as the (torn) end of the segment.
func nextFrame(buf []byte) (payload, rest []byte, ok bool) {
	if len(buf) < frameHeader {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(buf)
	sum := binary.LittleEndian.Uint32(buf[4:])
	if n > maxRecord || uint64(frameHeader)+uint64(n) > uint64(len(buf)) {
		return nil, nil, false
	}
	payload = buf[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, nil, false
	}
	return payload, buf[frameHeader+n:], true
}

// --- segment header ---

const (
	segMagic     = "MASSWSEG"
	segHeaderLen = 8 + 8 + 4 // magic + start index + crc
)

// segmentHeader renders the 20-byte header of a segment whose first record
// has index start.
func segmentHeader(start uint64) []byte {
	buf := make([]byte, 0, segHeaderLen)
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, start)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// parseSegmentHeader validates hdr and returns the segment's start index.
func parseSegmentHeader(hdr []byte) (uint64, error) {
	if len(hdr) < segHeaderLen {
		return 0, fmt.Errorf("wal: short segment header (%d bytes)", len(hdr))
	}
	body := hdr[:segHeaderLen-4]
	if string(body[:8]) != segMagic {
		return 0, fmt.Errorf("wal: bad segment magic")
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[segHeaderLen-4:]) {
		return 0, fmt.Errorf("wal: segment header checksum mismatch")
	}
	return binary.LittleEndian.Uint64(body[8:]), nil
}
