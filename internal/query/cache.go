package query

import (
	"container/list"
	"sync"
)

// cacheKey identifies one memoizable execution: the analysis generation
// plus the normalized query serialization.
type cacheKey struct {
	seq  uint64
	norm string
}

// cacheEntry is one LRU node payload.
type cacheEntry struct {
	key cacheKey
	res *Result
}

// DefaultCacheEntries bounds the memo. Unlike the trend cache, whose key
// space is a pair of capped integers, the query key space is arbitrary
// client-controlled JSON — without a cap, a server taking no writes (whose
// seq never moves, so stale-seq eviction never fires) could be grown without
// bound by distinct queries, and a hub full of distinct standing
// subscriptions would pin one entry per query per generation. At the
// cap the least-recently-used entry is evicted: this is a memo, losing
// one only costs a recompute, and LRU keeps the hot dashboard queries
// resident while one-off explorations age out.
const DefaultCacheEntries = 1024

// Cache memoizes executed queries per (snapshot seq, normalized query),
// in the spirit of the API layer's trend cache: repeated identical
// queries against one generation cost a map lookup; when a newer
// generation shows up, the stale generation's entries are evicted on the
// next store; at capacity the least-recently-used entry goes first.
// Cached *Results are shared — callers must not mutate them.
type Cache struct {
	mu       sync.Mutex
	entries  map[cacheKey]*list.Element
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

// Get returns the cached result for (seq, q), computing and storing it on
// a miss. The query is normalized first, so differently-spelled equal
// queries share one entry; a query that fails validation is never cached.
func (c *Cache) Get(seq uint64, q *Query, compute func(n *Query) (*Result, error)) (*Result, error) {
	n, err := q.Normalize()
	if err != nil {
		return nil, err
	}
	norm, err := n.Key()
	if err != nil {
		return nil, err
	}
	key := cacheKey{seq: seq, norm: norm}
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

// store inserts under the lock: stale generations are dropped first,
// then the LRU tail until the cap holds. Evicting strictly older
// generations only means a late store from a reader still pinning an old
// snapshot cannot wipe the live generation's memo (the LRU cap bounds
// whatever old pins keep inserting).
func (c *Cache) store(key cacheKey, res *Result) {
	if c.entries == nil {
		c.entries = make(map[cacheKey]*list.Element)
		c.lru = list.New()
	}
	if el, ok := c.entries[key]; ok {
		// A concurrent compute already stored it; refresh recency only.
		c.lru.MoveToFront(el)
		return
	}
	for k, el := range c.entries {
		if k.seq < key.seq {
			c.lru.Remove(el)
			delete(c.entries, k)
		}
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
