package cluster

import (
	"container/list"
	"sync"
)

// Bounds of one view's read memo. The key space is client-controlled (any
// URL, any query body), so a view that stays current for long — a server
// taking no writes never publishes another — could otherwise be grown
// without bound by distinct reads. At either cap the least-recently-used
// entries go first: losing one only costs a recompute, and LRU keeps the
// hot dashboard reads resident while one-off explorations age out.
const (
	memoEntries = 1024
	memoBytes   = 16 << 20
)

// memo is a view's bounded LRU of finished reads. It lives and dies with
// its view, so there is nothing to invalidate. Stored values are shared
// between readers and must not be mutated.
type memo struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used
	bytes   int
}

type memoEntry struct {
	key  string
	val  any
	size int
}

// get returns the value stored under key and marks it most recently used.
func (m *memo) get(key string) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).val, true
}

// put stores val under key, charging size plus the key's length against
// the byte bound, and evicts least-recently-used entries until both
// bounds hold. A value that alone exceeds the byte bound is not stored.
func (m *memo) put(key string, val any, size int) {
	size += len(key)
	if size > memoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		// A concurrent miss already stored it; refresh recency only.
		m.lru.MoveToFront(el)
		return
	}
	if m.entries == nil {
		m.entries = make(map[string]*list.Element)
	}
	for len(m.entries) >= memoEntries || m.bytes+size > memoBytes {
		e := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, e.key)
		m.bytes -= e.size
	}
	m.entries[key] = m.lru.PushFront(&memoEntry{key: key, val: val, size: size})
	m.bytes += size
}
