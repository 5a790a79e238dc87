package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// prepCache is the bounded LRU of prepared interference fields, keyed
// by the canonical field hash (SolveRequest.fieldKey). It is a
// deliberately separate tier from resultCache: a response-cache miss
// on (linkset, algorithm, params) still reuses the field, and every
// factor row filled, for any prior algorithm or ε on the same link
// set — the expensive object outlives the cheap one.
//
// Construction is single-flight: concurrent misses on one key share a
// sync.Once, so a field is built at most once per cache residency no
// matter how many requests race for it; latecomers block on the
// builder and read its result. Failed builds are purged immediately so
// a transient error is not cached. Entries evicted mid-build simply
// complete for their waiters and become garbage.
type prepCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element

	m *Metrics
}

// prepEntry is one cached field. build is set by the creating request
// and executed exactly once, under once, by whichever caller gets
// there first. pins > 0 marks the entry as owned by a live streaming
// session: LRU pressure skips pinned entries, because evicting one
// would not free its field (the session still holds it) — it would
// only make the cache lie about what is resident and rebuild a
// duplicate on the next lookup.
type prepEntry struct {
	key   cacheKey
	once  sync.Once
	build func() (*sched.Prepared, error)
	prep  *sched.Prepared
	err   error
	pins  int
	// ready flips once run completed; introspection reads prep only
	// after observing it (the atomic publishes the once-guarded write).
	ready atomic.Bool
}

func (e *prepEntry) run() {
	e.once.Do(func() {
		e.prep, e.err = e.build()
		e.build = nil
		e.ready.Store(true)
	})
}

// newPrepCache returns an LRU holding up to capacity prepared fields;
// a non-positive capacity disables caching (every get builds).
func newPrepCache(capacity int, m *Metrics) *prepCache {
	return &prepCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element),
		m:     m,
	}
}

// get returns the prepared field for k, constructing it via build on a
// miss. build runs outside the cache lock (field construction is the
// expensive part) and its cost is attributed to whichever request
// created the entry — callers that need per-request build accounting
// count inside their closure.
//
// pin marks an entry that must stay resident: it is pinned, so it is
// never LRU-evicted until a matching release. Streaming sessions hold
// their interference field this way for their whole lifetime — the
// field is mutated in place by session events (Rebind), so the entry is
// keyed by a session-unique key and shared with nobody; residency in
// the cache is what keeps the prepared-field capacity accounting and
// size gauge truthful while request traffic churns the unpinned tiers
// around it. A failed build is not cached: a pinned caller releases
// its pin, an unpinned one purges the entry.
func (c *prepCache) get(k cacheKey, pin bool, build func() (*sched.Prepared, error)) (*sched.Prepared, error) {
	if c.cap <= 0 {
		c.m.PreparedMiss()
		c.m.PreparedBuild()
		return build()
	}
	c.mu.Lock()
	el, hit := c.items[k]
	if !hit {
		el = c.ll.PushFront(&prepEntry{key: k, build: build})
		c.items[k] = el
	}
	e := el.Value.(*prepEntry)
	if pin {
		// Session keys are unique, so a pinned hit means a caller pinned
		// twice; pins are a refcount, so sharing is still safe.
		e.pins++
	}
	if hit {
		c.ll.MoveToFront(el)
		c.m.PreparedHit()
	} else {
		c.evictLocked() // after the pin: a pinned entry is never the victim
		c.m.PreparedSize(c.ll.Len())
		c.m.PreparedMiss()
		c.m.PreparedBuild()
	}
	c.mu.Unlock()

	e.run() // on a hit, waits if the original builder is still running
	if e.err != nil {
		// The build failed, ours or the one we hit; the builder's own
		// error path may already have purged the entry.
		if pin {
			c.release(k)
		} else {
			c.remove(k, e)
		}
		return nil, e.err
	}
	return e.prep, nil
}

// evictLocked enforces the capacity bound, evicting least-recently-used
// unpinned entries. Pinned entries are skipped — a cache fully pinned
// by live sessions may exceed cap transiently; the session registry's
// own MaxSessions bound is what caps that. Callers hold mu.
func (c *prepCache) evictLocked() {
	for c.ll.Len() > c.cap {
		var victim *list.Element
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if el.Value.(*prepEntry).pins == 0 {
				victim = el
				break
			}
		}
		if victim == nil {
			return
		}
		c.ll.Remove(victim)
		delete(c.items, victim.Value.(*prepEntry).key)
		c.m.PreparedEviction()
	}
}

// release unpins k and drops the entry outright once no pins remain.
// Session entries are keyed per session, so after the owning session
// closes nothing can ever hit the key again — keeping the entry would
// be dead weight the LRU could only evict blindly.
func (c *prepCache) release(k cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return
	}
	e := el.Value.(*prepEntry)
	if e.pins > 0 {
		e.pins--
	}
	if e.pins == 0 {
		c.ll.Remove(el)
		delete(c.items, k)
		c.m.PreparedSize(c.ll.Len())
	}
}

// replace swaps the prepared handle stored under k (a session event
// that rebuilt its field — add/remove — hands the new build back so
// the pinned entry keeps the live field alive, not the stale one).
func (c *prepCache) replace(k cacheKey, pp *sched.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*prepEntry).prep = pp
	}
}

// contains reports residency of k (tests assert pinned entries survive
// eviction pressure).
func (c *prepCache) contains(k cacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

// remove drops k's entry iff it still maps to e (a failed build must
// not purge a healthy replacement inserted meanwhile).
func (c *prepCache) remove(k cacheKey, e *prepEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok && el.Value.(*prepEntry) == e {
		c.ll.Remove(el)
		delete(c.items, k)
		c.m.PreparedSize(c.ll.Len())
	}
}

// prepEntryInfo is one resident prepared-field entry as reported by
// GET /debug/state: the truncated key, pin count, and — once the
// single-flight build has finished — the instance it holds and the
// bytes its field keeps resident (a dense field grows as solves fill
// its rows).
type prepEntryInfo struct {
	Key      string `json:"key"`
	Pins     int    `json:"pins"`
	Building bool   `json:"building,omitempty"`
	N        int    `json:"n,omitempty"`
	Field    string `json:"field,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
}

// snapshot lists resident entries most-recently-used first.
func (c *prepCache) snapshot() []prepEntryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]prepEntryInfo, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*prepEntry)
		info := prepEntryInfo{
			Key:  fmt.Sprintf("%x", e.key[:8]),
			Pins: e.pins,
		}
		if !e.ready.Load() {
			info.Building = true
		} else if e.err == nil && e.prep != nil {
			pr := e.prep.Problem()
			info.N = pr.N()
			info.Field = pr.FieldName()
			// A session's move rebinds its pinned field under the session
			// lock, not this one. Dense rebinds patch the field in place,
			// but a non-dense rebind replaces it, so a pinned non-dense
			// field is not read here.
			if e.pins == 0 || info.Field == "dense" {
				info.Bytes = pr.Field().Bytes()
			}
		}
		out = append(out, info)
	}
	return out
}

// len reports the number of resident entries.
func (c *prepCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// reset empties the cache (benchmarks measure the cold path with it).
func (c *prepCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.m.PreparedSize(0)
}
