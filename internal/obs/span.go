package obs

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans is the per-trace span arena capacity used by
// NewTrace. The arena is allocated once (and pooled), so this bounds
// both the memory of one trace and the work a runaway producer (a
// million-slot traffic run, say) can add to it: past the cap new spans
// are dropped and counted, never grown.
const DefaultMaxSpans = 256

// maxSpanAttrs is the inline attribute capacity per span. Setters past
// the cap are dropped silently; six covers every call site in the repo
// (DLS's rounds phase carries five counters, a schedd solve span six
// attributes) and keeps the record fixed-size (no per-attr allocation).
const maxSpanAttrs = 6

// AttrKind discriminates the typed attribute slots.
type AttrKind uint8

const (
	attrNone AttrKind = iota
	attrInt
	attrFloat
	attrStr
	attrCount // accumulating counter (Span.Add), folded into SolveStats
)

// attr is one typed key/value pair stored inline in a span record.
// Integers and counters keep their value in n, floats their bits.
type attr struct {
	key  string
	s    string
	n    int64
	kind AttrKind
}

func (a attr) value() any {
	switch a.kind {
	case attrInt, attrCount:
		return a.n
	case attrFloat:
		return math.Float64frombits(uint64(a.n))
	case attrStr:
		return a.s
	}
	return nil
}

// SpanID identifies a span within its trace: 1-based index into the
// arena, 0 meaning "no span" (the inert handle).
type SpanID int32

// spanRecord is one span's storage inside the trace arena. Start and
// dur are monotonic offsets from the trace's begin instant, so records
// need no time.Time of their own.
type spanRecord struct {
	name   string
	parent SpanID
	start  time.Duration
	dur    time.Duration
	ended  bool
	nattrs int8
	attrs  [maxSpanAttrs]attr
}

// Trace is one request's span tree: a fixed-capacity arena of span
// records plus identity and outcome fields filled in by Finish. All
// span operations lock the trace, so spans may start and end from any
// goroutine (worker shards, batch configs, traffic slots). Creating a
// span in a non-full trace performs no allocation — the record lives
// in the preallocated arena and the Span handle is a two-word value.
type Trace struct {
	mu    sync.Mutex
	id    string
	name  string
	begun time.Time

	spans []spanRecord

	// full short-circuits span creation without taking mu once the
	// arena is exhausted; dropped counts the spans lost that way.
	full    atomic.Bool
	dropped atomic.Int64

	// Set by Finish / MarkOutlier.
	done    bool
	status  int
	dur     time.Duration
	outlier string
}

// tracePool recycles default-capacity traces: the flight recorder
// returns unsampled and evicted traces here, so the steady state
// allocates no arenas at all.
var tracePool = sync.Pool{
	New: func() any {
		return &Trace{spans: make([]spanRecord, 0, DefaultMaxSpans)}
	},
}

// NewTrace starts a trace with the default arena capacity and an
// implicit root span named name (typically the route, "POST
// /v1/solve"). The trace clock starts now.
func NewTrace(id, name string) *Trace {
	t := tracePool.Get().(*Trace)
	t.init(id, name)
	return t
}

// NewTraceCap is NewTrace with an explicit arena capacity, for
// one-shot CLI runs that want room for a whole experiment sweep.
// Non-default capacities are not pooled.
func NewTraceCap(id, name string, maxSpans int) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	t := &Trace{spans: make([]spanRecord, 0, maxSpans)}
	t.init(id, name)
	return t
}

func (t *Trace) init(id, name string) {
	t.id, t.name, t.begun = id, name, time.Now()
	t.spans = append(t.spans, spanRecord{name: name})
}

// release resets the trace and, when it holds a default-capacity
// arena, returns it to the pool. Only the recorder calls this; a
// released trace must have no live Span handles.
func (t *Trace) release() {
	for i := range t.spans {
		t.spans[i] = spanRecord{}
	}
	if cap(t.spans) != DefaultMaxSpans {
		return
	}
	t.id, t.name = "", ""
	t.begun = time.Time{}
	t.spans = t.spans[:0]
	t.full.Store(false)
	t.dropped.Store(0)
	t.done, t.status, t.dur, t.outlier = false, 0, 0, ""
	tracePool.Put(t)
}

// ID returns the trace ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the implicit root span. On a nil trace it returns the
// inert span.
func (t *Trace) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, id: 1}
}

// Dropped reports how many spans were discarded because the arena
// filled.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// MarkOutlier flags the trace for unconditional retention by the
// flight recorder, e.g. when a traffic run was truncated by its
// deadline. The first reason wins.
func (t *Trace) MarkOutlier(reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.outlier == "" {
		t.outlier = reason
	}
	t.mu.Unlock()
}

// Finish closes the trace: ends the root span, freezes the total
// duration, and records the request's status code. Must be called
// exactly once, after which no spans may be started.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.status = status
		t.dur = time.Since(t.begun)
		if !t.spans[0].ended {
			t.spans[0].ended = true
			t.spans[0].dur = t.dur
		}
	}
	t.mu.Unlock()
}

// Duration returns the finished trace's wall time (0 before Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur
}

// startSpan appends a record; returns the inert span when the arena is
// full.
func (t *Trace) startSpan(name string, parent SpanID) Span {
	if t.full.Load() {
		t.dropped.Add(1)
		return Span{}
	}
	t.mu.Lock()
	if t.done || len(t.spans) == cap(t.spans) {
		if !t.done {
			t.full.Store(true)
		}
		t.mu.Unlock()
		t.dropped.Add(1)
		return Span{}
	}
	t.spans = append(t.spans, spanRecord{
		name:   name,
		parent: parent,
		start:  time.Since(t.begun),
	})
	id := SpanID(len(t.spans))
	t.mu.Unlock()
	return Span{tr: t, id: id}
}

// Span is a handle to one span of a Trace. The zero Span is inert:
// every method is a no-op costing a nil check, so call sites never
// guard on "is tracing on". Span is a value type — creating, ending,
// and annotating spans allocates nothing (TestSpanZeroAlloc guards
// this).
type Span struct {
	tr *Trace
	id SpanID
}

// Enabled reports whether the span records anything.
func (s Span) Enabled() bool { return s.tr != nil }

// Trace returns the owning trace (nil for the inert span).
func (s Span) Trace() *Trace { return s.tr }

// Child starts a nested span. On the inert span the child is inert
// too, so subtrees switch off wholesale.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.startSpan(name, s.id)
}

// End freezes the span's duration. Ending twice keeps the first end.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	rec := &t.spans[s.id-1]
	if !rec.ended {
		rec.ended = true
		rec.dur = time.Since(t.begun) - rec.start
	}
	t.mu.Unlock()
}

func (s Span) setAttr(a attr) {
	if s.tr == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	rec := &t.spans[s.id-1]
	if int(rec.nattrs) < maxSpanAttrs {
		rec.attrs[rec.nattrs] = a
		rec.nattrs++
	}
	t.mu.Unlock()
}

// SetInt attaches an integer attribute (at most maxSpanAttrs stick).
func (s Span) SetInt(key string, v int64) { s.setAttr(attr{key: key, kind: attrInt, n: v}) }

// SetFloat attaches a float attribute.
func (s Span) SetFloat(key string, v float64) {
	s.setAttr(attr{key: key, kind: attrFloat, n: int64(math.Float64bits(v))})
}

// SetStr attaches a string attribute.
func (s Span) SetStr(key, v string) { s.setAttr(attr{key: key, kind: attrStr, s: v}) }

// Add adds n to the span's counter key, creating it on first use (at
// n, so a counter that stays 0 is still reported). Counters are the
// attributes SolveStats folds: solvers report through them, and
// concurrent workers may add to the same span.
func (s Span) Add(key string, n int64) {
	if s.tr == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	rec := &t.spans[s.id-1]
	for i := range rec.attrs[:rec.nattrs] {
		if a := &rec.attrs[i]; a.kind == attrCount && a.key == key {
			a.n += n
			t.mu.Unlock()
			return
		}
	}
	if int(rec.nattrs) < maxSpanAttrs {
		rec.attrs[rec.nattrs] = attr{key: key, kind: attrCount, n: n}
		rec.nattrs++
	}
	t.mu.Unlock()
}

// graft copies src's spans under s: src's root attributes onto s
// itself, every other span as a descendant of s with its start moved
// onto s's trace clock. Spans past the destination arena's capacity
// are dropped and counted, as Child drops them. Parents precede
// children in an arena and a full arena stays full, so every copied
// span's parent was copied too and ids shift by one constant.
func (s Span) graft(src *Trace) {
	if s.tr == nil {
		return
	}
	dst := s.tr
	src.mu.Lock()
	defer src.mu.Unlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()
	rec := &dst.spans[s.id-1]
	root := &src.spans[0]
	for _, a := range root.attrs[:root.nattrs] {
		if int(rec.nattrs) < maxSpanAttrs {
			rec.attrs[rec.nattrs] = a
			rec.nattrs++
		}
	}
	shift := src.begun.Sub(dst.begun)
	base := SpanID(len(dst.spans)) - 1 // src span k ≥ 2 becomes base+k
	for i := 1; i < len(src.spans); i++ {
		if dst.done || len(dst.spans) == cap(dst.spans) {
			if !dst.done {
				dst.full.Store(true)
			}
			dst.dropped.Add(int64(len(src.spans) - i))
			return
		}
		r := src.spans[i]
		if r.parent == 1 {
			r.parent = s.id
		} else {
			r.parent += base
		}
		r.start += shift
		dst.spans = append(dst.spans, r)
	}
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp as the current span.
// This allocates (context boxing), so it is used at coarse boundaries
// — request middleware, handler phases — while hot loops keep the Span
// value and call Child directly.
func ContextWithSpan(ctx context.Context, sp Span) context.Context {
	if sp.tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFrom returns the context's current span, or the inert span when
// the context carries none.
func SpanFrom(ctx context.Context) Span {
	sp, _ := ctx.Value(spanCtxKey{}).(Span)
	return sp
}

// SpanSnapshot is the JSON-renderable copy of one span record.
type SpanSnapshot struct {
	ID      int32          `json:"id"`
	Parent  int32          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// TraceSnapshot is the JSON-renderable copy of a whole trace, taken
// under the trace lock so it is internally consistent. Open spans in a
// finished trace are clamped to the trace end.
type TraceSnapshot struct {
	TraceID      string         `json:"trace_id"`
	Name         string         `json:"name"`
	Start        time.Time      `json:"start"`
	DurUS        float64        `json:"dur_us"`
	Status       int            `json:"status,omitempty"`
	Outlier      string         `json:"outlier,omitempty"`
	DroppedSpans int64          `json:"dropped_spans,omitempty"`
	Spans        []SpanSnapshot `json:"spans"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Snapshot copies the trace into its exportable form.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceSnapshot{
		TraceID:      t.id,
		Name:         t.name,
		Start:        t.begun,
		DurUS:        us(t.dur),
		Status:       t.status,
		Outlier:      t.outlier,
		DroppedSpans: t.dropped.Load(),
		Spans:        make([]SpanSnapshot, len(t.spans)),
	}
	for i := range t.spans {
		rec := &t.spans[i]
		ss := SpanSnapshot{
			ID:      int32(i + 1),
			Parent:  int32(rec.parent),
			Name:    rec.name,
			StartUS: us(rec.start),
			DurUS:   us(rec.dur),
		}
		if !rec.ended && t.done {
			if end := t.dur - rec.start; end > 0 {
				ss.DurUS = us(end)
			} else {
				ss.DurUS = 0
			}
		}
		if rec.nattrs > 0 {
			ss.Attrs = make(map[string]any, rec.nattrs)
			for _, a := range rec.attrs[:rec.nattrs] {
				ss.Attrs[a.key] = a.value()
			}
		}
		out.Spans[i] = ss
	}
	return out
}
