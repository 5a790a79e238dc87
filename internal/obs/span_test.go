package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSpanTree(t *testing.T) {
	tr := NewTraceCap("0123456789abcdef", "POST /v1/solve", 32)
	root := tr.Root()
	if !root.Enabled() {
		t.Fatal("root span disabled")
	}
	cache := root.Child("cache_lookup")
	cache.SetStr("result", "miss")
	cache.End()
	build := root.Child("field_build")
	build.SetInt("links", 2000)
	fill := build.Child("dense_fill")
	fill.End()
	build.End()
	tr.Finish(200)

	s := tr.Snapshot()
	if s.TraceID != "0123456789abcdef" || s.Name != "POST /v1/solve" || s.Status != 200 {
		t.Fatalf("bad snapshot header: %+v", s)
	}
	if len(s.Spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(s.Spans))
	}
	byName := map[string]SpanSnapshot{}
	for _, sp := range s.Spans {
		byName[sp.Name] = sp
	}
	if byName["cache_lookup"].Parent != 1 || byName["field_build"].Parent != 1 {
		t.Fatalf("children not parented to root: %+v", s.Spans)
	}
	if byName["dense_fill"].Parent != byName["field_build"].ID {
		t.Fatalf("grandchild not parented to field_build: %+v", s.Spans)
	}
	if byName["cache_lookup"].Attrs["result"] != "miss" {
		t.Fatalf("string attr lost: %+v", byName["cache_lookup"].Attrs)
	}
	if byName["field_build"].Attrs["links"] != int64(2000) {
		t.Fatalf("int attr lost: %+v", byName["field_build"].Attrs)
	}
	if s.DurUS <= 0 {
		t.Fatalf("finished trace has no duration: %v", s.DurUS)
	}
}

func TestSpanInert(t *testing.T) {
	var sp Span
	if sp.Enabled() {
		t.Fatal("zero span enabled")
	}
	// All of these must be no-ops, not panics.
	c := sp.Child("x")
	c.SetInt("k", 1)
	c.SetFloat("k", 1)
	c.SetStr("k", "v")
	c.Add(KeyAdmitted, 1)
	c.End()
	if c.Enabled() {
		t.Fatal("child of inert span enabled")
	}
	if got := SpanFrom(context.Background()); got.Enabled() {
		t.Fatal("SpanFrom on empty context not inert")
	}
	var tr *Trace
	tr.Finish(0)
	tr.MarkOutlier("x")
	if tr.Root().Enabled() {
		t.Fatal("nil trace root enabled")
	}
}

func TestSpanContext(t *testing.T) {
	tr := NewTrace(NewTraceID(), "test")
	ctx := ContextWithSpan(context.Background(), tr.Root())
	sp := SpanFrom(ctx)
	if !sp.Enabled() || sp.Trace() != tr {
		t.Fatal("context round-trip lost the span")
	}
	tr.Finish(200)
	tr.release()
}

func TestSpanArenaOverflow(t *testing.T) {
	tr := NewTraceCap("feedfeedfeedfeed", "overflow", 4)
	root := tr.Root()
	var last Span
	for i := 0; i < 10; i++ {
		last = root.Child("s")
		last.End()
	}
	if last.Enabled() {
		t.Fatal("span past arena cap should be inert")
	}
	if got := tr.Dropped(); got != 7 { // cap 4, root + 3 children fit
		t.Fatalf("dropped = %d, want 7", got)
	}
	tr.Finish(200)
	if got := len(tr.Snapshot().Spans); got != 4 {
		t.Fatalf("arena grew past cap: %d spans", got)
	}
	// Spans started after Finish are inert and counted as dropped.
	if sp := root.Child("late"); sp.Enabled() {
		t.Fatal("span after Finish should be inert")
	}
}

// TestSpanAttrOverflowCounted: attributes past a span's inline capacity
// are dropped and counted on the trace — through the typed setters, a
// new counter key, and a graft whose root attributes overflow the
// destination span — and the count reaches the snapshot and the
// trace_event export.
func TestSpanAttrOverflowCounted(t *testing.T) {
	tr := NewTraceCap("feedfeedfeedfeed", "attrs", 8)
	sp := tr.Root().Child("full")
	for i := 0; i < maxSpanAttrs; i++ {
		sp.SetInt(fmt.Sprintf("k%d", i), int64(i))
	}
	sp.SetStr("over", "x")
	sp.SetFloat("over", 1)
	sp.Add("counter", 1)
	if got := tr.DroppedAttrs(); got != 3 {
		t.Fatalf("dropped attrs = %d, want 3", got)
	}
	src := NewTraceCap("", "solve", 4)
	for i := 0; i < maxSpanAttrs; i++ {
		src.Root().Add(fmt.Sprintf("c%d", i), 1)
	}
	src.Root().Add("c-over", 1) // dropped in src, carried over by graft
	dst := tr.Root().Child("solve")
	dst.SetInt("dense_rows", 1)
	dst.graft(src)
	if got := tr.DroppedAttrs(); got != 3+1+1 {
		t.Fatalf("dropped attrs after graft = %d, want 5", got)
	}
	tr.Finish(200)
	snap := tr.Snapshot()
	if snap.DroppedAttrs != 5 || snap.DroppedSpans != 0 {
		t.Fatalf("snapshot dropped attrs/spans = %d/%d, want 5/0", snap.DroppedAttrs, snap.DroppedSpans)
	}
	var buf strings.Builder
	if err := snap.WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dropped_attrs":5`) {
		t.Fatalf("trace_event export lacks dropped_attrs: %s", buf.String())
	}
}

// TestSpanZeroAlloc is the zero-alloc gate for the span lifecycle on
// the warm solve path: child creation, typed attributes, counters, and
// End must not allocate while the arena has room, and the inert span
// every untraced solve runs against must not allocate at all
// (scripts/check.sh runs this as the obs overhead gate).
func TestSpanZeroAlloc(t *testing.T) {
	tr := NewTraceCap("abcdabcdabcdabcd", "warm", 1<<13)
	root := tr.Root()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := root.Child("solve")
		sp.SetInt("links", 2000)
		sp.SetStr("algorithm", "rle")
		sp.Add(KeyAdmitted, 1)
		sp.Add(KeyAdmitted, 2)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("span lifecycle allocates %v allocs/op, want 0", allocs)
	}
	// The inert path must be allocation-free too.
	var inert Span
	allocs = testing.AllocsPerRun(1000, func() {
		sp := inert.Child("solve")
		sp.SetInt("links", 2000)
		sp.Add(KeyAdmitted, 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("inert span lifecycle allocates %v allocs/op, want 0", allocs)
	}
}

// TestSpanConcurrentRace hammers one trace and the flight recorder
// from many goroutines — worker shards starting/ending nested spans
// while other traces record, evict, and recycle. Run under -race this
// is the satellite's corruption gate.
func TestSpanConcurrentRace(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8, SampleEvery: 1})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := NewTrace(NewTraceID(), "race")
				root := tr.Root()
				var inner sync.WaitGroup
				for g := 0; g < 4; g++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						for k := 0; k < 20; k++ {
							sp := root.Child("shard")
							sp.SetInt("k", int64(k))
							sp.Child("leaf").End()
							sp.End()
						}
					}()
				}
				inner.Wait()
				tr.Finish(200)
				rec.Record(tr)
			}
		}(w)
	}
	wg.Wait()
	st := rec.Stats()
	if st.Seen != workers*50 {
		t.Fatalf("seen = %d, want %d", st.Seen, workers*50)
	}
	if st.Retained != 8 {
		t.Fatalf("retained = %d, want 8", st.Retained)
	}
	for _, snap := range rec.Recent(8) {
		if len(snap.Spans) == 0 || snap.Spans[0].Name != "race" {
			t.Fatalf("corrupt snapshot: %+v", snap)
		}
		for _, sp := range snap.Spans[1:] {
			if sp.Name != "shard" && sp.Name != "leaf" {
				t.Fatalf("foreign span %q in ring", sp.Name)
			}
		}
	}
}

func BenchmarkSpanLifecycle(b *testing.B) {
	b.ReportAllocs()
	tr := NewTrace("abcdabcdabcdabcd", "bench")
	root := tr.Root()
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := root.Child("solve")
		sp.SetInt("links", 2000)
		sp.End()
		// Recycle through the pool before the arena fills so the
		// benchmark measures live recording, not the overflow path.
		if n++; n == DefaultMaxSpans-2 {
			tr.Finish(200)
			tr.release()
			tr = NewTrace("abcdabcdabcdabcd", "bench")
			root = tr.Root()
			n = 0
		}
	}
}

// BenchmarkSpanInert measures what an untraced solve pays per phase:
// a nil check per call, no clock reads, 0 allocs/op.
func BenchmarkSpanInert(b *testing.B) {
	b.ReportAllocs()
	var root Span
	for i := 0; i < b.N; i++ {
		sp := root.Child("solve")
		sp.SetInt("links", 2000)
		sp.Add(KeyAdmitted, 1)
		sp.End()
	}
}
