package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

// prepFor builds a small real prepared instance for cache tests.
func prepFor(t testing.TB, n int, seed uint64) *sched.Prepared {
	t.Helper()
	ls, err := network.NewLinkSet(paperLinks(t, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sched.Prepare(ls, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

func testKey(i int) cacheKey {
	var k cacheKey
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	return k
}

// TestPrepCacheSingleFlight hammers a small key space from many
// goroutines and asserts each field was constructed exactly once: the
// whole point of the per-entry sync.Once is that concurrent misses on
// one key share a single build. Run under -race, this also proves the
// cache's locking discipline.
func TestPrepCacheSingleFlight(t *testing.T) {
	const (
		keys       = 4
		goroutines = 16
		iters      = 8
	)
	m := NewMetrics()
	c := newPrepCache(8, m)
	shared := prepFor(t, 20, 1)
	var builds [keys]atomic.Int64

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % keys
				prep, err := c.get(testKey(i), false, func() (*sched.Prepared, error) {
					builds[i].Add(1)
					time.Sleep(time.Millisecond) // widen the race window
					return shared, nil
				})
				if err != nil {
					errc <- err
					return
				}
				if prep != shared {
					errc <- errors.New("get returned a different prepared instance")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for i := range builds {
		if n := builds[i].Load(); n != 1 {
			t.Errorf("key %d built %d times, want exactly 1", i, n)
		}
	}
	if n := m.PreparedBuilds(); n != keys {
		t.Errorf("PreparedBuilds() = %d, want %d", n, keys)
	}
	total := m.prepHits.Value() + m.prepMiss.Value()
	if want := int64(goroutines * iters); total != want {
		t.Errorf("hits+misses = %d, want %d", total, want)
	}
	if c.len() != keys {
		t.Errorf("cache holds %d entries, want %d", c.len(), keys)
	}
}

// TestPrepCacheEvictionAccounting walks more keys than the capacity
// through the LRU and checks the obs counters tell the true story:
// evictions counted, the size gauge tracking residency, and an evicted
// key paying a rebuild on return.
func TestPrepCacheEvictionAccounting(t *testing.T) {
	m := NewMetrics()
	c := newPrepCache(2, m)
	shared := prepFor(t, 20, 2)
	var builds atomic.Int64
	build := func() (*sched.Prepared, error) {
		builds.Add(1)
		return shared, nil
	}

	const inserts = 5
	for i := 0; i < inserts; i++ {
		if _, err := c.get(testKey(i), false, build); err != nil {
			t.Fatal(err)
		}
	}
	if n := builds.Load(); n != inserts {
		t.Errorf("builds = %d, want %d", n, inserts)
	}
	if n := m.PreparedEvictions(); n != inserts-2 {
		t.Errorf("PreparedEvictions() = %d, want %d", n, inserts-2)
	}
	if n := c.len(); n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
	if n := m.prepSize.Value(); n != 2 {
		t.Errorf("size gauge = %d, want 2", n)
	}

	// Key 0 was evicted long ago: returning to it is a miss + rebuild.
	if _, err := c.get(testKey(0), false, build); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != inserts+1 {
		t.Errorf("builds after revisiting evicted key = %d, want %d", n, inserts+1)
	}
	// Key inserts-1 is still resident: a pure hit.
	before := builds.Load()
	if _, err := c.get(testKey(inserts-1), false, build); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != before {
		t.Errorf("resident key rebuilt (builds %d → %d)", before, n)
	}
}

// TestPrepCacheErrorsNotCached checks a failed build is purged: the
// next request for the same key retries instead of replaying the
// error forever.
func TestPrepCacheErrorsNotCached(t *testing.T) {
	m := NewMetrics()
	c := newPrepCache(4, m)
	shared := prepFor(t, 20, 3)
	var calls atomic.Int64
	boom := errors.New("transient build failure")
	build := func() (*sched.Prepared, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return shared, nil
	}

	if _, err := c.get(testKey(9), false, build); !errors.Is(err, boom) {
		t.Fatalf("first build: err = %v, want %v", err, boom)
	}
	if c.len() != 0 {
		t.Fatalf("failed build left %d entries resident", c.len())
	}
	prep, err := c.get(testKey(9), false, build)
	if err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if prep != shared {
		t.Fatal("retry returned wrong instance")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("build called %d times, want 2", n)
	}
}

// TestPrepCacheDisabled checks non-positive capacity degrades to
// build-always (the -prep-cache=-1 operator escape hatch).
func TestPrepCacheDisabled(t *testing.T) {
	m := NewMetrics()
	c := newPrepCache(-1, m)
	shared := prepFor(t, 20, 4)
	var builds atomic.Int64
	build := func() (*sched.Prepared, error) {
		builds.Add(1)
		return shared, nil
	}
	for i := 0; i < 3; i++ {
		if _, err := c.get(testKey(0), false, build); err != nil {
			t.Fatal(err)
		}
	}
	if n := builds.Load(); n != 3 {
		t.Errorf("disabled cache built %d times, want 3", n)
	}
	if c.len() != 0 {
		t.Errorf("disabled cache retains %d entries", c.len())
	}
}

// TestPrepCachePinnedSkipsEviction covers the pin/release protocol:
// a pinned entry survives arbitrary LRU pressure, unpinned entries
// around it still rotate, and release drops the pinned entry outright
// (session keys are never hit again).
func TestPrepCachePinnedSkipsEviction(t *testing.T) {
	m := NewMetrics()
	c := newPrepCache(2, m)
	shared := prepFor(t, 20, 5)
	build := func() (*sched.Prepared, error) { return shared, nil }

	pinnedKey := testKey(100)
	if _, err := c.get(pinnedKey, true, build); err != nil {
		t.Fatal(err)
	}
	// Push far more traffic than capacity through the unpinned tier.
	for i := 0; i < 10; i++ {
		if _, err := c.get(testKey(i), false, build); err != nil {
			t.Fatal(err)
		}
		if !c.contains(pinnedKey) {
			t.Fatalf("pinned entry evicted after %d unpinned inserts", i+1)
		}
	}
	if n := c.len(); n != 2 {
		t.Errorf("cache holds %d entries under pressure, want cap 2", n)
	}

	c.release(pinnedKey)
	if c.contains(pinnedKey) {
		t.Fatal("released session entry still resident")
	}
	if n := c.len(); n != 1 {
		t.Errorf("cache holds %d entries after release, want 1", n)
	}
}

// TestPrepCacheAllPinnedExceedsCap: when live sessions pin more entries
// than the LRU capacity, the cache grows past cap rather than evicting
// an entry a session still owns — MaxSessions, not the LRU, is the
// bound on that growth. Releases shrink it back down.
func TestPrepCacheAllPinnedExceedsCap(t *testing.T) {
	m := NewMetrics()
	c := newPrepCache(2, m)
	shared := prepFor(t, 20, 6)
	build := func() (*sched.Prepared, error) { return shared, nil }

	const pins = 5
	for i := 0; i < pins; i++ {
		if _, err := c.get(testKey(200+i), true, build); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.len(); n != pins {
		t.Fatalf("fully pinned cache holds %d entries, want %d (cap 2 must stretch)", n, pins)
	}
	if n := m.PreparedEvictions(); n != 0 {
		t.Fatalf("%d evictions despite every entry being pinned", n)
	}
	for i := 0; i < pins; i++ {
		c.release(testKey(200 + i))
	}
	if n := c.len(); n != 0 {
		t.Fatalf("cache holds %d entries after all releases, want 0", n)
	}
}

// TestPrepCacheAcquireRefcounts checks that pinning one key twice
// through get needs two releases before the entry drops (pins are a
// refcount, not a bit).
func TestPrepCacheAcquireRefcounts(t *testing.T) {
	m := NewMetrics()
	c := newPrepCache(4, m)
	shared := prepFor(t, 20, 7)
	build := func() (*sched.Prepared, error) { return shared, nil }

	k := testKey(300)
	if _, err := c.get(k, true, build); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get(k, true, build); err != nil {
		t.Fatal(err)
	}
	c.release(k)
	if !c.contains(k) {
		t.Fatal("entry dropped with one pin still held")
	}
	c.release(k)
	if c.contains(k) {
		t.Fatal("entry resident after final release")
	}
	// Releasing an unknown key is a harmless no-op.
	c.release(testKey(301))
}

// TestPrepCacheReplaceSwapsHandle checks replace points a pinned entry
// at a new prepared handle (the add/remove rebuild path) and ignores
// unknown keys.
func TestPrepCacheReplaceSwapsHandle(t *testing.T) {
	m := NewMetrics()
	c := newPrepCache(4, m)
	first := prepFor(t, 20, 8)
	second := prepFor(t, 22, 9)

	k := testKey(400)
	if _, err := c.get(k, true, func() (*sched.Prepared, error) { return first, nil }); err != nil {
		t.Fatal(err)
	}
	c.replace(k, second)
	got, err := c.get(k, true, func() (*sched.Prepared, error) { return nil, errors.New("must not rebuild") })
	if err != nil {
		t.Fatal(err)
	}
	if got != second {
		t.Fatal("a pinned get after replace returned the stale handle")
	}
	c.replace(testKey(401), first) // unknown key: no-op, no panic
	c.release(k)
	c.release(k)
}

// TestPrepCacheAcquireBuildFailure checks a failed pinned build leaves
// no residue: the key is absent and a retry rebuilds.
func TestPrepCacheAcquireBuildFailure(t *testing.T) {
	m := NewMetrics()
	c := newPrepCache(4, m)
	shared := prepFor(t, 20, 10)
	boom := errors.New("bad links")
	if _, err := c.get(testKey(500), true, func() (*sched.Prepared, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.len() != 0 {
		t.Fatalf("failed pinned build left %d entries", c.len())
	}
	if _, err := c.get(testKey(500), true, func() (*sched.Prepared, error) { return shared, nil }); err != nil {
		t.Fatal(err)
	}
	c.release(testKey(500))
}
