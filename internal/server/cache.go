package server

import (
	"container/list"
	"sync"
)

// cacheKey is the canonical problem hash (see solveRequest.hash).
type cacheKey [32]byte

// resultCache is an LRU from canonical problem hashes to encoded
// response bodies, bounded by the bytes of the bodies it holds rather
// than by their count: one dense n=2000 answer is a few KB, one sparse
// n=2500 answer with thousands of active links is tens of KB, and a
// count bound would let the second kind hold an order of magnitude
// more memory. Storing the serialized bytes — not the decoded result —
// is what makes a hit byte-identical to the miss that populated it and
// keeps the hit path allocation-free apart from the response write.
type resultCache struct {
	mu     sync.Mutex
	budget int64      // byte bound on Σ len(body); ≤ 0 disables caching
	bytes  int64      // Σ len(body) over resident entries
	ll     *list.List // front = most recently used
	items  map[cacheKey]*list.Element

	m *Metrics
}

type cacheEntry struct {
	key  cacheKey
	body []byte
}

// newResultCache returns an LRU holding at most budget bytes of
// bodies; a non-positive budget disables caching (every get misses).
func newResultCache(budget int64, m *Metrics) *resultCache {
	return &resultCache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[cacheKey]*list.Element),
		m:      m,
	}
}

// get returns the cached body for k, promoting it to most recently
// used. The returned slice is shared — callers must not mutate it.
func (c *resultCache) get(k cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put inserts (or refreshes) k → body, evicting least recently used
// entries until the resident bytes fit the budget. A body larger than
// the whole budget is not cached. The cache stores an exact-size copy:
// encoders hand over slices with append slack, and the byte accounting
// must match the memory the cache actually keeps alive.
func (c *resultCache) put(k cacheKey, body []byte) {
	size := int64(len(body))
	if c.budget <= 0 || size > c.budget {
		return
	}
	stored := make([]byte, len(body))
	copy(stored, body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += size - int64(len(e.body))
		e.body = stored
	} else {
		c.items[k] = c.ll.PushFront(&cacheEntry{key: k, body: stored})
		c.bytes += size
	}
	// The front entry fits the budget on its own, so this loop never
	// evicts the body just stored.
	for c.bytes > c.budget {
		back := c.ll.Back()
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.body))
		c.m.CacheEviction()
	}
}

// residency reports the resident entry count and body bytes.
func (c *resultCache) residency() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// reset empties the cache (benchmarks use this to measure the cold path).
func (c *resultCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.bytes = 0
}
