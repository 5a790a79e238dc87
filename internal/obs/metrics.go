package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric at
// registration time. Labels distinguish series inside a family — e.g.
// schedd_solves_total{algorithm="rle"} — and are fixed for the life of
// the metric; there is no dynamic label API, which keeps the hot-path
// types lock-free.
type Label struct{ Key, Value string }

// DefBuckets are the default latency histogram bounds (seconds),
// matching the conventional Prometheus client defaults so dashboards
// carry over.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the exposition to stay meaningful).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Observe is
// lock-free (atomics), so recording never waits on a scrape.
type Histogram struct {
	bounds  []float64       // ascending upper bounds
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-add
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			panic(fmt.Sprintf("obs: duplicate histogram bucket bound %v", bounds[i]))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound ≥ v is the Prometheus le-bucket the value lands in.
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// Count returns the all-time observation count.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the all-time sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// cumulative returns the per-bucket cumulative counts aligned with
// bounds plus the +Inf total as the final element.
func (h *Histogram) cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		out[i] = run
	}
	return out
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one labeled series inside a family; exactly one of the
// value fields is set.
type entry struct {
	labels []Label
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups every series registered under one metric name; HELP
// and TYPE render once per family, in registration order. labelVals
// tracks the distinct values seen per label key, backing the
// cardinality guard.
type family struct {
	name, help string
	kind       metricKind
	entries    []*entry
	byKey      map[string]*entry
	labelVals  map[string]map[string]struct{}
}

// DefaultLabelLimit is the per-family cap on distinct values of one
// label key. Request-derived labels (algorithm, policy, event type)
// come from client input; without a cap a fuzzer — or a hostile client
// — grows one series per invented name until the registry is the heap.
// Past the cap, new values collapse into the shared "other" series.
const DefaultLabelLimit = 64

// LabelOverflow is the bucket value substituted once a label key
// exhausts its distinct-value budget.
const LabelOverflow = "other"

// Registry owns a set of metric families. The zero Registry is not
// usable; construct with NewRegistry. Registration is idempotent: the
// same (name, labels) returns the same metric, so packages can look up
// shared metrics without threading pointers.
type Registry struct {
	mu         sync.Mutex
	families   []*family
	byName     map[string]*family
	labelLimit int
}

// NewRegistry returns an empty registry with the default label
// cardinality limit.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}, labelLimit: DefaultLabelLimit}
}

// SetLabelLimit replaces the per-family distinct-value budget per
// label key (0 restores the default; negative disables the guard).
// Values already admitted keep their series; only future new values
// feel a lowered limit.
func (r *Registry) SetLabelLimit(n int) {
	r.mu.Lock()
	if n == 0 {
		n = DefaultLabelLimit
	}
	r.labelLimit = n
	r.mu.Unlock()
}

// clampLabels rewrites label values that would exceed the family's
// distinct-value budget to LabelOverflow. Called with the registry
// lock held. The caller's slice is never mutated; a copy is made only
// when a rewrite happens.
func (f *family) clampLabels(labels []Label, limit int) []Label {
	if limit < 0 || len(labels) == 0 {
		return labels
	}
	out := labels
	for i, l := range labels {
		if l.Value == LabelOverflow {
			continue
		}
		if f.labelVals == nil {
			f.labelVals = map[string]map[string]struct{}{}
		}
		seen := f.labelVals[l.Key]
		if seen == nil {
			seen = map[string]struct{}{}
			f.labelVals[l.Key] = seen
		}
		if _, ok := seen[l.Value]; ok {
			continue
		}
		if len(seen) < limit {
			seen[l.Value] = struct{}{}
			continue
		}
		if &out[0] == &labels[0] {
			out = append([]Label(nil), labels...)
		}
		out[i].Value = LabelOverflow
	}
	return out
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte(',')
	}
	return sb.String()
}

// register finds or creates the entry for (name, labels) and runs init
// on it under the registry lock, so two goroutines registering the same
// new series concurrently share one metric value.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, init func(*entry)) *entry {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*entry{}}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	labels = f.clampLabels(labels, r.labelLimit)
	key := labelKey(labels)
	e, ok := f.byKey[key]
	if !ok {
		e = &entry{labels: append([]Label(nil), labels...)}
		f.byKey[key] = e
		f.entries = append(f.entries, e)
	}
	init(e)
	return e
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, counterKind, labels, func(e *entry) {
		if e.c == nil {
			e.c = &Counter{}
		}
	}).c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, gaugeKind, labels, func(e *entry) {
		if e.g == nil && e.gf == nil {
			e.g = &Gauge{}
		}
	}).g
}

// GaugeFunc registers a computed gauge: fn is called at scrape time.
// fn must be safe for concurrent use and must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, gaugeKind, labels, func(e *entry) { e.gf = fn })
}

// Histogram registers (or returns the existing) histogram with the
// given ascending bucket upper bounds (nil = DefBuckets). A +Inf
// bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.register(name, help, histogramKind, labels, func(e *entry) {
		if e.h == nil {
			e.h = newHistogram(buckets)
		}
	}).h
}

// snapshot copies the family/entry structure under the lock so
// rendering (which may invoke gauge callbacks like
// runtime.ReadMemStats) happens outside it.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.families))
	for i, f := range r.families {
		cp := &family{name: f.name, help: f.help, kind: f.kind}
		cp.entries = append(cp.entries, f.entries...)
		out[i] = cp
	}
	return out
}
