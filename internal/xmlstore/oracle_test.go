package xmlstore

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/synth"
)

// oracleDecode is the reflection decode the scanner replaced:
// encoding/xml's Decode into fileDoc (or shardDoc), which the scanner must
// match on every input, both in what it rejects and in what it fills.
func oracleDecode(data []byte, shard bool) (parts, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	if shard {
		var doc shardDoc
		if err := dec.Decode(&doc); err != nil {
			return parts{}, err
		}
		return parts{[]blog.Blogger{doc.Blogger}, doc.Posts, doc.Links}, nil
	}
	var doc fileDoc
	if err := dec.Decode(&doc); err != nil {
		return parts{}, err
	}
	return parts{doc.Bloggers, doc.Posts, doc.Links}, nil
}

func scanDecode(data []byte, shard bool) (parts, error) {
	var p parts
	d := newDecoder()
	if shard {
		return p, d.shard(data, &p)
	}
	return p, d.file(data, &p)
}

// checkOracle decodes data under both schemas both ways: either both
// decodes fail, or both succeed with deeply equal parts.
func checkOracle(t testing.TB, data []byte) {
	t.Helper()
	for _, shard := range []bool{false, true} {
		got, gerr := scanDecode(data, shard)
		want, werr := oracleDecode(data, shard)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("shard=%v: scanner error %v, oracle error %v\ninput %q", shard, gerr, werr, data)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("shard=%v: parts differ\nscanner %+v\noracle  %+v\ninput %q", shard, got, want, data)
		}
	}
}

func writeDoc(t testing.TB, c *blog.Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// quirkDocs are hand-written documents covering each place where
// encoding/xml's accept set or field filling is not the obvious one.
var quirkDocs = []string{
	// Around the root.
	`<?xml version="1.0" encoding="UTF-8"?><blogosphere/>`,
	`<?xml version="1.1"?><blogosphere/>`,
	`<?xml version='1.0' encoding='latin1'?><blogosphere/>`,
	`<?xml version="1.0" encoding="Utf-8"?><blogosphere/>`,
	`<?xml version = "2.0"?><blogosphere/>`,
	`<?xml version="1.0"?><?xml-stylesheet href="a"?><!-- c --><!DOCTYPE blogosphere [<!ENTITY x "y>"> <!-- c > --> <!ELEMENT a 'b>'>]><blogosphere/>`,
	`<!DOCTYPE x <<!-- -- -->>><blogosphere/>`,
	`<!>><blogosphere/>`,
	`<!-x><blogosphere/>`,
	`<![CDAT[x]]><blogosphere/>`,
	`<![CDATA[<blogosphere/>]]><blogosphere/>`,
	`junk text &amp; &#65; <blogosphere/>`,
	`]]><blogosphere/>`,
	`&bogus;<blogosphere/>`,
	`</x><blogosphere/>`,
	`<!-- a -- b --><blogosphere/>`,
	`<!-- a ---><blogosphere/>`,
	`<!----><blogosphere/>`,
	`<?pi?><blogosphere/>`,
	`<?9pi?><blogosphere/>`,
	`<? pi?><blogosphere/>`,
	`<blogosphere/>trailing <<< &&& garbage`,
	`<blogosphere></blogosphere></extra>`,
	`<blog/>`,
	`<space/>`,
	``,
	`<?xml version="1.0"?>`,
	`<blogosphere>`,
	`<blogosphere><bloggers><?xml version="9"?></bloggers></blogosphere>`,
	`<blogosphere><bloggers><?xml encoding="ascii"?></bloggers></blogosphere>`,
	// Names.
	`<a:blogosphere xmlns:a="urn:a"><a:bloggers><x:blogger x:id="b1"><y:name>N</y:name></x:blogger></a:bloggers></a:blogosphere>`,
	`<:blogosphere/>`,
	`<blogosphere:/>`,
	`<a:b:blogosphere/>`,
	`<blogosphere><bloggers><blogger :id="a" id:="b" xmlns:id="c"/></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger a:b:id="x"/></bloggers></blogosphere>`,
	`<blogosphere><bloggers></blogosphereX></bloggers></blogosphere>`,
	`<blogosphere><bloggers></x:bloggers></blogosphere>`,
	`<x:blogosphere></blogosphere>`,
	`<blogosphere><bloggers ></bloggers ></blogosphere >`,
	`<blogosphere><bloggers/ ></blogosphere>`,
	`<blogosphere><é/><ü:x/></blogosphere>`,
	"<blogosphere><·x/></blogosphere>",
	"<blogosphere><x·/></blogosphere>",
	"<blogosphere><x\xff/></blogosphere>",
	`<blogosphere><1x/></blogosphere>`,
	`<blogosphere>< x/></blogosphere>`,
	`<blogosphere><-x/></blogosphere>`,
	`<blogosphere><_x.y-z/></blogosphere>`,
	// Attributes.
	`<blogosphere><bloggers><blogger id='single' id="double"/></bloggers></blogosphere>`,
	`<blogosphere><posts><post author="a"id="p"posted="2009-01-01T00:00:00Z"/></posts></blogosphere>`,
	`<blogosphere><posts><post id=p/></posts></blogosphere>`,
	`<blogosphere><posts><post id/></posts></blogosphere>`,
	`<blogosphere><posts><post id="a<b"/></posts></blogosphere>`,
	`<blogosphere><posts><post id="a>b ]]> c"/></posts></blogosphere>`,
	`<blogosphere><posts><post id="&quot;&apos;&lt;&gt;&amp;&#34;&#x27;"/></posts></blogosphere>`,
	`<blogosphere><posts><post id = "spaced" /></posts></blogosphere>`,
	"<blogosphere><posts><post id=\"a\r\nb\rc\td\"/></posts></blogosphere>",
	`<blogosphere><posts><post posted="2009-01-01T00:00:00Z" posted="yesterday"/></posts></blogosphere>`,
	`<blogosphere><posts><post posted=""/></posts></blogosphere>`,
	`<blogosphere><posts><post posted="2009-01-01T08:00:00+08:00"><comments><comment posted="2009-02-03T04:05:06.789Z"/></comments></post></posts></blogosphere>`,
	`<blogosphere><posts><post posted="2009-01-01T00:00:00&#x5A;"/></posts></blogosphere>`,
	`<blogosphere><posts><post trueDomain="Sports" trueDomain="Music"/></posts></blogosphere>`,
	// Entities and characters.
	`<blogosphere><bloggers><blogger><name>&lt;&gt;&amp;&apos;&quot;&#65;&#x41;&#X41;</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>&#x41;&#0065;&#x10FFFF;&#xD800;</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>&#0;</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>&#x110000;</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>&#99999999999999999999999;</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>&#;&#x;</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>&amp</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>a & b</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>&nbsp;</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>x ]]> y</name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger><name>]&#93;> ]]&gt;</name></blogger></bloggers></blogosphere>`,
	"<blogosphere><bloggers><blogger><name>a\r\nb\rc\n\rd</name></blogger></bloggers></blogosphere>",
	"<blogosphere><bloggers><blogger><name>a\r<!--x-->\nb</name></blogger></bloggers></blogosphere>",
	"<blogosphere><bloggers><blogger><name>tab\tok \x01 not</name></blogger></bloggers></blogosphere>",
	"<blogosphere><bloggers><blogger><name>bad \xc3 utf8</name></blogger></bloggers></blogosphere>",
	"<blogosphere><bloggers><blogger><name>\xef\xbf\xbe</name></blogger></bloggers></blogosphere>",
	"<blogosphere><bloggers><blogger id=\"\xed\xa0\x80\"/></bloggers></blogosphere>",
	"<blogosphere><!-- \xff invalid utf8 in a comment is fine --><?pi \xff?></blogosphere>",
	"<blogosphere><bloggers><blogger><name>ünïcödé 日本 \U0001F600</name></blogger></bloggers></blogosphere>",
	"<blogosphere><bloggers><blogger><name><![CDATA[a\r\nb <&> ]]]]><![CDATA[>]]></name></blogger></bloggers></blogosphere>",
	"<blogosphere><bloggers><blogger><name><![CDATA[\x01]]></name></blogger></bloggers></blogosphere>",
	"<blogosphere><bloggers><blogger><name><![CDATA[unterminated</name></blogger></bloggers></blogosphere>",
	// Text and fields.
	`<blogosphere><bloggers><blogger id="a"><name>a<b>skipped<c/></b>c<!--d-->e<![CDATA[<f>]]><?pi?></name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"><name>first</name><name>second</name><profile/><name></name></blogger></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"><friends><friend>x</friend></friends><friends><friend>y</friend><friend/><other>z</other></friends></blogger></bloggers><bloggers><blogger id="b"/></bloggers></blogosphere>`,
	`<blogosphere><bloggers></bloggers><posts><post id="p" author="a"><comments></comments><tags></tags><title>t</title><title>u</title></post></posts><links></links></blogosphere>`,
	`<blogosphere><posts><post id="p"><comments><comment commenter="c"><text>one</text><text>two</text></comment><comment/></comments><comments><comment commenter="d"/></comments><tags><tag>x</tag></tags><tags><tag>y</tag></tags></post></posts></blogosphere>`,
	`<blogosphere><posts><post id="p"><comment commenter="direct child, skipped"/><tag>skipped</tag><posted>skipped</posted></post></posts></blogosphere>`,
	`<blogosphere><blogger id="not in a wrapper"/><post id="nor this"/><link from="a" to="b"/><bloggers><bloggers><blogger id="nested wrapper"/></bloggers></bloggers></blogosphere>`,
	`<blogosphere><links><link from="a" to="b"><from>x</from></link><link to="c" from="d" from="e"/></links></blogosphere>`,
	`<blogosphere attr="root attrs are ignored" xmlns="urn:x">text at root<bloggers>text in a wrapper<blogger id="a"/></bloggers></blogosphere>`,
	`<blogosphere><bloggers><blogger id="a"><name>unclosed</blogger></bloggers></blogosphere>`,
	// The shard layout.
	`<space><blogger id="a"><name>A</name><friends><friend>x</friend></friends></blogger><blogger><profile>P</profile><friends><friend>y</friend></friends></blogger><posts><post id="p" author="a"/></posts><links><link from="a" to="b"/></links></space>`,
	`<space></space>`,
	`<space><bloggers><blogger id="file layout"/></bloggers></space>`,
}

func oracleSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	seeds = append(seeds, writeDoc(t, blog.Figure1Corpus()))
	small, _, err := synth.Generate(synth.Config{Seed: 7, Bloggers: 6, Posts: 12})
	if err != nil {
		t.Fatal(err)
	}
	full := writeDoc(t, small)
	seeds = append(seeds, full)
	for _, n := range []int{1, 37, len(full) / 3, len(full) / 2, len(full) - 20, len(full) - 1} {
		seeds = append(seeds, full[:n])
	}
	odd := blog.NewCorpus()
	if err := odd.AddBlogger(&blog.Blogger{ID: "weird<>&'\"", Name: "tab\there\nnewline", Friends: []blog.BloggerID{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := odd.AddPost(&blog.Post{ID: "p", Author: "weird<>&'\"", Title: `"quoted" & <tagged>`,
		Body: "ünïcödé \U0001F600 ]]> text", Posted: time.Date(2009, 3, 4, 5, 6, 7, 8, time.UTC),
		Tags: []string{"a", "b"}, TrueDomain: "Sports",
		Comments: []blog.Comment{{Commenter: "weird<>&'\"", Text: "c\td"}}}); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, writeDoc(t, odd))
	for _, doc := range quirkDocs {
		seeds = append(seeds, []byte(doc))
	}
	return seeds
}

func TestScannerMatchesOracleOnQuirks(t *testing.T) {
	for i, data := range oracleSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkOracle(t, data) })
	}
}

// TestScannerMatchesOracleOnSynthCorpus decodes a 300-blogger synth
// corpus both ways and compares every part.
func TestScannerMatchesOracleOnSynthCorpus(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 11, Bloggers: 300, Posts: 3000})
	if err != nil {
		t.Fatal(err)
	}
	data := writeDoc(t, c)
	got, err := scanDecode(data, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleDecode(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.posts) < 2000 || !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner and oracle differ on the synth corpus (%d vs %d posts)", len(got.posts), len(want.posts))
	}
}

func FuzzRead(f *testing.F) {
	for _, s := range oracleSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkOracle(t, data) })
}
