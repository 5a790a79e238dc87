package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Idempotent registration returns the same metric.
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("in_flight", "gauge")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Errorf("gauge = %d, want 2", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("gauge after Set = %d, want 7", g.Value())
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("solves_total", "solves", Label{"algorithm", "rle"})
	b := r.Counter("solves_total", "solves", Label{"algorithm", "ldp"})
	if a == b {
		t.Fatal("differently labeled series shared a counter")
	}
	a.Add(2)
	b.Inc()
	if a.Value() != 2 || b.Value() != 1 {
		t.Errorf("labeled counters = %d/%d, want 2/1", a.Value(), b.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if want := 0.05 + 0.1 + 0.5 + 2 + 100; math.Abs(h.Sum()-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	// le="0.1" catches 0.05 and the boundary value 0.1 (le is ≤).
	cum := h.cumulative()
	want := []uint64{2, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d (full: %v)", i, cum[i], want[i], cum)
		}
	}
}

// TestHistogramScrapeVsRecordRace hammers Observe from many writers
// while scraping the exposition concurrently; under -race
// (scripts/check.sh) this is the scrape-vs-record data-race test for
// the lock-free bucket counters.
func TestHistogramScrapeVsRecordRace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("race_seconds", "race", nil)
	var wg sync.WaitGroup
	const perWriter = 5000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	for scrape := 0; scrape < 50; scrape++ {
		r.WritePrometheus(discardWriter{})
	}
	wg.Wait()
	if h.Count() != 4*perWriter {
		t.Errorf("count = %d, want %d", h.Count(), 4*perWriter)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
