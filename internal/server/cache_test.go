package server

import (
	"bytes"
	"testing"
)

func lruKey(b byte) cacheKey { return cacheKey{b} }

func cacheBody(n int, fill byte) []byte { return bytes.Repeat([]byte{fill}, n) }

// TestResultCacheByteWeightedLRU: the bound is on Σ len(body), and
// eviction walks least recently used first — a get promotes.
func TestResultCacheByteWeightedLRU(t *testing.T) {
	m := NewMetrics()
	c := newResultCache(100, m)
	c.put(lruKey(1), cacheBody(40, 'a'))
	c.put(lruKey(2), cacheBody(40, 'b'))
	if n, b := c.residency(); n != 2 || b != 80 {
		t.Fatalf("residency %d entries / %d bytes, want 2 / 80", n, b)
	}
	if _, ok := c.get(lruKey(1)); !ok { // 1 becomes most recent
		t.Fatal("key 1 missing")
	}
	// 30 more bytes overflow the budget by 10: key 2, the LRU, goes.
	c.put(lruKey(3), cacheBody(30, 'c'))
	if _, ok := c.get(lruKey(2)); ok {
		t.Error("least recently used key 2 survived")
	}
	for _, k := range []byte{1, 3} {
		if _, ok := c.get(lruKey(k)); !ok {
			t.Errorf("key %d evicted out of LRU order", k)
		}
	}
	if n, b := c.residency(); n != 2 || b != 70 {
		t.Fatalf("residency %d entries / %d bytes, want 2 / 70", n, b)
	}
	// A large body evicts as many entries as it needs, oldest first.
	c.get(lruKey(1))
	c.put(lruKey(4), cacheBody(90, 'd'))
	if n, b := c.residency(); n != 1 || b != 90 {
		t.Fatalf("residency %d entries / %d bytes after a 90-byte put, want 1 / 90", n, b)
	}
	if got := m.cacheEvict.Value(); got != 3 {
		t.Errorf("evictions %d, want 3", got)
	}

	// Refreshing a key re-weighs it instead of double-counting.
	c.put(lruKey(4), cacheBody(60, 'e'))
	if n, b := c.residency(); n != 1 || b != 60 {
		t.Fatalf("residency %d entries / %d bytes after a refresh, want 1 / 60", n, b)
	}
	if got, _ := c.get(lruKey(4)); !bytes.Equal(got, cacheBody(60, 'e')) {
		t.Errorf("refresh kept the stale body %q", got)
	}
}

// TestResultCacheOversizeSkipped: a body larger than the whole budget
// is not cached and does not flush what is resident.
func TestResultCacheOversizeSkipped(t *testing.T) {
	m := NewMetrics()
	c := newResultCache(100, m)
	c.put(lruKey(1), cacheBody(50, 'a'))
	c.put(lruKey(2), cacheBody(101, 'b'))
	if _, ok := c.get(lruKey(2)); ok {
		t.Error("oversize body cached")
	}
	if _, ok := c.get(lruKey(1)); !ok {
		t.Error("oversize put evicted a resident entry")
	}
	if n, b := c.residency(); n != 1 || b != 50 || m.cacheEvict.Value() != 0 {
		t.Errorf("residency %d / %d bytes, evictions %d; want 1 / 50, 0", n, b, m.cacheEvict.Value())
	}
	// Exactly the budget still fits.
	c.put(lruKey(3), cacheBody(100, 'c'))
	if _, ok := c.get(lruKey(3)); !ok {
		t.Error("budget-sized body not cached")
	}
}

// TestResultCacheDisabled: a non-positive budget caches nothing.
func TestResultCacheDisabled(t *testing.T) {
	for _, budget := range []int64{-1, 0} {
		c := newResultCache(budget, NewMetrics())
		c.put(lruKey(1), cacheBody(1, 'a'))
		c.put(lruKey(2), nil)
		if n, b := c.residency(); n != 0 || b != 0 {
			t.Errorf("budget %d: %d entries / %d bytes resident", budget, n, b)
		}
		if _, ok := c.get(lruKey(1)); ok {
			t.Errorf("budget %d: get hit", budget)
		}
	}
}

// TestResultCacheStoresExactCopy: the stored body is an exact-size
// copy — append slack in the caller's slice is not kept alive, and the
// caller may reuse its buffer without corrupting the cache.
func TestResultCacheStoresExactCopy(t *testing.T) {
	c := newResultCache(1<<10, NewMetrics())
	buf := make([]byte, 10, 512)
	copy(buf, "0123456789")
	c.put(lruKey(1), buf)
	buf[0] = 'x'
	got, ok := c.get(lruKey(1))
	if !ok || string(got) != "0123456789" {
		t.Fatalf("cached %q, want the body as put", got)
	}
	if cap(got) != len(got) {
		t.Errorf("cached body has cap %d for len %d", cap(got), len(got))
	}
}

// TestConfigCacheBytesDefault: the zero Config gets the 4 MiB budget,
// which holds well over 256 dense n=2000 answers (each ≤ 10 KB) — the
// count the former entry bound kept.
func TestConfigCacheBytesDefault(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.CacheBytes != 4<<20 {
		t.Fatalf("default CacheBytes %d, want 4 MiB", cfg.CacheBytes)
	}
	if cfg.CacheBytes < 256*10_000 {
		t.Fatalf("default budget %d cannot hold 256 bodies of 10 KB", cfg.CacheBytes)
	}
	if got := (Config{CacheBytes: -1}).withDefaults().CacheBytes; got >= 0 {
		t.Errorf("negative CacheBytes normalized to %d; it must stay disabled", got)
	}
}
