package query

import (
	"container/list"
	"sync"
)

// cacheEntry is one LRU node payload: the normalized query serialization
// and its result.
type cacheEntry struct {
	key string
	res *Result
}

// DefaultCacheEntries bounds the memo. The key space is arbitrary
// client-controlled JSON, so without a cap a generation that stays live
// (a server taking no writes never publishes another) could be grown
// without bound by distinct queries. At the cap the least-recently-used
// entry is evicted: this is a memo, losing one only costs a recompute,
// and LRU keeps the hot dashboard queries resident while one-off
// explorations age out.
const DefaultCacheEntries = 1024

// Cache memoizes executed queries per normalized query for one analyzed
// generation: its owner builds one per generation and drops it with the
// generation, so there is nothing to invalidate. Repeated identical
// queries cost a map lookup; at capacity the least-recently-used entry
// goes first. Cached *Results are shared — callers must not mutate them.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	cap      int
	computes int64
}

// NewCache returns an empty cache with the default entry cap.
func NewCache() *Cache { return NewCacheSize(DefaultCacheEntries) }

// NewCacheSize returns an empty cache holding at most capEntries results
// (values below 1 fall back to the default).
func NewCacheSize(capEntries int) *Cache {
	if capEntries < 1 {
		capEntries = DefaultCacheEntries
	}
	return &Cache{cap: capEntries}
}

// Get returns the cached result for q, computing and storing it on a
// miss. The query is normalized first, so differently-spelled equal
// queries share one entry; a query that fails validation is never cached.
func (c *Cache) Get(q *Query, compute func(n *Query) (*Result, error)) (*Result, error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, err
	}
	key, err := n.Key()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, nil
	}
	c.computes++
	c.mu.Unlock()
	// Execute outside the lock: a slow scan must not block cached reads.
	// Concurrent first queries may duplicate work once; both compute the
	// same deterministic result.
	res, err := compute(n)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.store(key, res)
	c.mu.Unlock()
	return res, nil
}

// store inserts under the lock, evicting the LRU tail until the cap holds.
func (c *Cache) store(key string, res *Result) {
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
		c.lru = list.New()
	}
	if el, ok := c.entries[key]; ok {
		// A concurrent compute already stored it; refresh recency only.
		c.lru.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.cap {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
}

// Computes reports the number of cache misses so far (for tests and
// metrics).
func (c *Cache) Computes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.computes
}

// Len reports the number of resident entries (for tests and metrics).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
