package novelty

import (
	"math/bits"
	"unicode"
	"unicode/utf8"

	"mass/internal/lexicon"
)

// copyIndicators matches the lexicon's copy indicators; it is immutable,
// so every detector shares it.
var copyIndicators = newIndicatorMatcher(lexicon.CopyIndicators())

// indicatorMatcher is an Aho–Corasick automaton over the bytes of up to 64
// phrases, stored as a full transition table over byte classes, so one
// pass over a text finds every phrase it contains.
type indicatorMatcher struct {
	class [256]uint8 // byte → column; column 0 is every byte no phrase holds
	cols  int
	next  []int32  // next[state*cols+column]; state 0 is the root
	out   []uint64 // the phrases that end at each state, as bits
}

func newIndicatorMatcher(phrases []string) *indicatorMatcher {
	if len(phrases) > 64 {
		panic("novelty: more than 64 copy indicators")
	}
	m := &indicatorMatcher{cols: 1}
	for _, p := range phrases {
		for i := 0; i < len(p); i++ {
			if m.class[p[i]] == 0 {
				m.class[p[i]] = uint8(m.cols)
				m.cols++
			}
		}
	}
	// The trie, with -1 for a missing edge.
	m.next = make([]int32, m.cols)
	m.out = make([]uint64, 1)
	for i := range m.next {
		m.next[i] = -1
	}
	for k, p := range phrases {
		s := int32(0)
		for i := 0; i < len(p); i++ {
			e := int(s)*m.cols + int(m.class[p[i]])
			if m.next[e] < 0 {
				m.next[e] = int32(len(m.out))
				m.out = append(m.out, 0)
				for range m.cols {
					m.next = append(m.next, -1)
				}
			}
			s = m.next[e]
		}
		m.out[s] |= 1 << k
	}
	// Breadth first, fill each missing edge with the failure state's edge,
	// and inherit the failure state's phrases (its suffixes).
	fail := make([]int32, len(m.out))
	queue := []int32{}
	for c := 0; c < m.cols; c++ {
		if t := m.next[c]; t < 0 {
			m.next[c] = 0
		} else {
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		m.out[s] |= m.out[fail[s]]
		for c := 0; c < m.cols; c++ {
			e := int(s)*m.cols + c
			f := m.next[int(fail[s])*m.cols+c]
			if t := m.next[e]; t < 0 {
				m.next[e] = f
			} else {
				fail[t] = f
				queue = append(queue, t)
			}
		}
	}
	return m
}

// count returns how many distinct phrases occur in strings.ToLower(text).
// It lowers rune by rune as it goes, feeding the lowered rune's UTF-8
// bytes (U+FFFD's for an invalid byte, as ToLower writes) to the
// automaton, so a non-ASCII rune that lowers to ASCII (U+0130 İ → i,
// U+212A K → k) matches as ToLower makes it, and no lowered copy of text
// is built.
func (m *indicatorMatcher) count(text string) int {
	var found uint64
	s := int32(0)
	for i := 0; i < len(text); {
		c := text[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			s = m.next[int(s)*m.cols+int(m.class[c])]
			found |= m.out[s]
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(text[i:]) // U+FFFD for an invalid byte
		i += n
		var enc [utf8.UTFMax]byte
		for _, b := range enc[:utf8.EncodeRune(enc[:], unicode.ToLower(r))] {
			s = m.next[int(s)*m.cols+int(m.class[b])]
			found |= m.out[s]
		}
	}
	return bits.OnesCount64(found)
}
