package server

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metrics holds schedd's operational counters on an obs.Registry, which
// renders them as Prometheus text exposition at /metrics. The registry
// is per-Server rather than process-global so multiple instances — one
// per test — never collide.
//
// Prometheus families:
//
//	schedd_requests_total             counter
//	schedd_responses_total{code}      counter
//	schedd_in_flight                  gauge
//	schedd_solve_errors_total         counter
//	schedd_solves_total{algorithm}    counter
//	schedd_cache_hits_total           counter
//	schedd_cache_misses_total         counter
//	schedd_cache_evictions_total      counter
//	schedd_cache_bytes/entries        gauges (registered by Server)
//	schedd_links_memo_hits_total      counter
//	schedd_links_memo_misses_total    counter
//	schedd_links_memo_entries/bytes   gauges (registered by Server)
//	schedd_request_duration_seconds   histogram (obs.DefBuckets)
//	schedd_pool_capacity/in_use/queued gauges (registered by Server)
//	schedd_goroutines                 gauge
//	schedd_heap_bytes                 gauge
//	schedd_gc_pause_seconds_total     gauge (cumulative, scrape-computed)
type Metrics struct {
	reg *obs.Registry

	requests   *obs.Counter
	solveErrs  *obs.Counter
	inFlight   *obs.Gauge
	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	cacheEvict *obs.Counter
	latency    *obs.Histogram
	memoHits   *obs.Counter
	memoMiss   *obs.Counter

	prepHits   *obs.Counter
	prepMiss   *obs.Counter
	prepBuilds *obs.Counter
	prepEvict  *obs.Counter
	prepSize   *obs.Gauge
	batchSizes *obs.Histogram

	sessActive   *obs.Gauge
	sessOpened   *obs.Counter
	sessEvents   *obs.Counter
	sessRejected *obs.Counter
	sessDeltas   *obs.Counter
	sessLatency  *obs.Histogram

	mu     sync.Mutex
	byCode map[int]*obs.Counter

	// memStats caching: ReadMemStats briefly stops the world, so one
	// scrape hitting both heap and GC-pause gauges reads it once.
	msMu sync.Mutex
	msAt time.Time
	ms   runtime.MemStats
}

// NewMetrics returns an initialized metric set on a fresh registry.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:       reg,
		requests:  reg.Counter("schedd_requests_total", "HTTP requests received."),
		solveErrs: reg.Counter("schedd_solve_errors_total", "Solves that failed after admission (timeouts, cancellations, solver refusals)."),
		inFlight:  reg.Gauge("schedd_in_flight", "Requests currently being served."),
		cacheHits: reg.Counter("schedd_cache_hits_total", "Solve responses served from the result cache."),
		cacheMiss: reg.Counter("schedd_cache_misses_total", "Solve requests that missed the result cache."),
		cacheEvict: reg.Counter("schedd_cache_evictions_total",
			"Responses evicted from the result cache by its byte budget."),
		latency: reg.Histogram("schedd_request_duration_seconds", "End-to-end HTTP request latency in seconds.", nil),
		memoHits: reg.Counter("schedd_links_memo_hits_total",
			"JSON requests whose links array the link memo held: only the rest of the body was decoded."),
		memoMiss: reg.Counter("schedd_links_memo_misses_total", "JSON requests whose whole body was decoded."),
		prepHits: reg.Counter("schedd_prepared_cache_hits_total", "Solves that reused a cached prepared interference field."),
		prepMiss: reg.Counter("schedd_prepared_cache_misses_total", "Solves that found no prepared field for their link set."),
		prepBuilds: reg.Counter("schedd_prepared_builds_total",
			"Interference-field constructions performed (single-flight: concurrent misses on one key build once)."),
		prepEvict: reg.Counter("schedd_prepared_cache_evictions_total", "Prepared fields evicted by LRU capacity pressure."),
		prepSize:  reg.Gauge("schedd_prepared_cache_size", "Prepared fields currently resident."),
		batchSizes: reg.Histogram("schedd_batch_configs", "Solve configs per /v1/solve/batch request.",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
		sessActive: reg.Gauge("schedd_sessions_active", "Streaming sessions currently open."),
		sessOpened: reg.Counter("schedd_sessions_opened_total", "Streaming sessions registered."),
		sessEvents: reg.Counter("schedd_session_events_total",
			"Session events applied (geometry/parameter changes that advanced a session's sequence)."),
		sessRejected: reg.Counter("schedd_session_events_rejected_total",
			"Session events rejected without changing state (malformed, out of range, invalid geometry)."),
		sessDeltas: reg.Counter("schedd_session_deltas_total", "Schedule deltas streamed to session clients."),
		sessLatency: reg.Histogram("schedd_session_event_seconds",
			"Per-event apply latency in seconds (decode to delta encoded).", nil),
		byCode: map[int]*obs.Counter{},
	}
	reg.GaugeFunc("schedd_goroutines", "Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("schedd_heap_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(m.memStats().HeapAlloc) })
	reg.GaugeFunc("schedd_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time in seconds.",
		func() float64 { return float64(m.memStats().PauseTotalNs) / 1e9 })

	return m
}

// Registry exposes the underlying obs registry so the Server can attach
// pool gauges and mount the Prometheus handler.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// RequestStarted bumps the in-flight gauge and returns the completion
// callback the middleware defers: it records the status code and the
// latency and drops the gauge.
func (m *Metrics) RequestStarted() func(code int, elapsed time.Duration) {
	m.requests.Inc()
	m.inFlight.Add(1)
	return func(code int, elapsed time.Duration) {
		m.inFlight.Add(-1)
		m.responseCounter(code).Inc()
		m.latency.Observe(elapsed.Seconds())
	}
}

// responseCounter returns the per-status-code counter, registering the
// labeled series on first use.
func (m *Metrics) responseCounter(code int) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.byCode[code]
	if c == nil {
		c = m.reg.Counter("schedd_responses_total", "HTTP responses by status code.",
			obs.Label{Key: "code", Value: strconv.Itoa(code)})
		m.byCode[code] = c
	}
	return c
}

// SolveError counts a failed solve (as opposed to a rejected request).
func (m *Metrics) SolveError() { m.solveErrs.Inc() }

// SolveDone counts a completed solve under its algorithm label.
func (m *Metrics) SolveDone(algorithm string) {
	m.reg.Counter("schedd_solves_total", "Completed solves by algorithm.",
		obs.Label{Key: "algorithm", Value: algorithm}).Inc()
}

// TrafficDone counts a completed /v1/traffic simulation under its
// policy label; truncated runs get their own counter so operators see
// deadline pressure.
func (m *Metrics) TrafficDone(policy string, truncated bool) {
	m.reg.Counter("schedd_traffic_runs_total", "Completed traffic simulations by policy.",
		obs.Label{Key: "policy", Value: policy}).Inc()
	if truncated {
		m.reg.Counter("schedd_traffic_truncated_total", "Traffic simulations cut off by their deadline.").Inc()
	}
}

// CacheHit / CacheMiss feed the hit-rate gauge; CacheEviction counts
// result-cache byte-budget evictions.
func (m *Metrics) CacheHit()      { m.cacheHits.Inc() }
func (m *Metrics) CacheMiss()     { m.cacheMiss.Inc() }
func (m *Metrics) CacheEviction() { m.cacheEvict.Inc() }

// LinksMemoHit / LinksMemoMiss count JSON-route decodes by whether the
// link memo supplied the links (see linkMemo).
func (m *Metrics) LinksMemoHit()  { m.memoHits.Inc() }
func (m *Metrics) LinksMemoMiss() { m.memoMiss.Inc() }

// Prepared-field cache accounting (see prepCache).
func (m *Metrics) PreparedHit()       { m.prepHits.Inc() }
func (m *Metrics) PreparedMiss()      { m.prepMiss.Inc() }
func (m *Metrics) PreparedBuild()     { m.prepBuilds.Inc() }
func (m *Metrics) PreparedEviction()  { m.prepEvict.Inc() }
func (m *Metrics) PreparedSize(n int) { m.prepSize.Set(int64(n)) }

// PreparedBuilds returns the cumulative field-construction count
// (tests assert the batch endpoint builds exactly once per request).
func (m *Metrics) PreparedBuilds() int64 { return m.prepBuilds.Value() }

// PreparedEvictions returns the cumulative eviction count.
func (m *Metrics) PreparedEvictions() int64 { return m.prepEvict.Value() }

// BatchObserved records one batch request's config count.
func (m *Metrics) BatchObserved(configs int) { m.batchSizes.Observe(float64(configs)) }

// Streaming-session accounting (see internal/server/session.go).
// SessionOpened/SessionClosed drive the active gauge; closes are
// additionally counted under their reason ("client", "ttl", "drain",
// "error") so operators can tell voluntary teardown from eviction.
func (m *Metrics) SessionOpened() {
	m.sessOpened.Inc()
	m.sessActive.Add(1)
}

func (m *Metrics) SessionClosed(reason string) {
	m.sessActive.Add(-1)
	m.reg.Counter("schedd_sessions_closed_total", "Streaming sessions closed, by reason.",
		obs.Label{Key: "reason", Value: reason}).Inc()
}

// SessionEvent records one applied event: its type-labeled count, the
// unlabeled total (the counter tests and operators diff against
// prepared_builds to prove moves skip the O(n²) rebuild), and the
// apply latency.
func (m *Metrics) SessionEvent(typ string, elapsed time.Duration) {
	m.sessEvents.Inc()
	m.reg.Counter("schedd_session_events_by_type_total", "Session events applied, by event type.",
		obs.Label{Key: "type", Value: typ}).Inc()
	m.sessLatency.Observe(elapsed.Seconds())
}

// SessionEventRejected counts an event that changed nothing.
func (m *Metrics) SessionEventRejected() { m.sessRejected.Inc() }

// SessionDelta counts one delta frame streamed to a client.
func (m *Metrics) SessionDelta() { m.sessDeltas.Inc() }

// SessionsActive returns the current gauge value (tests).
func (m *Metrics) SessionsActive() int64 { return m.sessActive.Value() }

// SessionEvents returns the cumulative applied-event count (tests
// assert it advances while PreparedBuilds stays flat on move streams).
func (m *Metrics) SessionEvents() int64 { return m.sessEvents.Value() }

// InFlight returns the current gauge value (used by tests).
func (m *Metrics) InFlight() int64 { return m.inFlight.Value() }

// memStats returns the process MemStats, refreshed at most once per
// second: a scrape touching several runtime gauges pays for one read.
func (m *Metrics) memStats() *runtime.MemStats {
	m.msMu.Lock()
	defer m.msMu.Unlock()
	if now := time.Now(); now.Sub(m.msAt) > time.Second {
		runtime.ReadMemStats(&m.ms)
		m.msAt = now
	}
	return &m.ms
}
