package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSolveStatsCollectsPhasesAndCounters(t *testing.T) {
	st, err := TraceSolve(context.Background(), Span{}, func(ctx context.Context, _ *Trace) error {
		sp := SpanFrom(ctx)
		sp.SetStr(KeyAlgorithm, "exact")
		ph := sp.Child("search")
		time.Sleep(time.Millisecond)
		ph.Add(KeyNodesExpanded, 100)
		ph.Add(KeyNodesExpanded, 50)
		ph.Add(KeyBoundCutoffs, 7)
		ph.Add(KeyIncumbents, 0)
		ph.End()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != "exact" {
		t.Errorf("algorithm = %q", st.Algorithm)
	}
	if len(st.Phases) != 1 || st.Phases[0].Name != "search" || st.Phases[0].Seconds <= 0 {
		t.Errorf("phases = %+v", st.Phases)
	}
	if st.Counter(KeyNodesExpanded) != 150 || st.Counter(KeyBoundCutoffs) != 7 {
		t.Errorf("counters = %v", st.Counters)
	}
	if v, ok := st.Counters[KeyIncumbents]; !ok || v != 0 {
		t.Errorf("zero counter not reported: %v", st.Counters)
	}
	if st.Counter("missing") != 0 {
		t.Error("missing counter not zero")
	}
}

// TestSolveStatsRepeatedPhasesAccumulate: same-name phases merge into
// one entry, in order of first start, and counters on different spans
// sum by key.
func TestSolveStatsRepeatedPhasesAccumulate(t *testing.T) {
	st, _ := TraceSolve(context.Background(), Span{}, func(ctx context.Context, _ *Trace) error {
		sp := SpanFrom(ctx)
		sp.Child("sort").End()
		for i := 0; i < 3; i++ {
			ph := sp.Child("round")
			ph.Add(KeyRounds, 1)
			ph.End()
		}
		sp.Child("merge").End()
		return nil
	})
	if len(st.Phases) != 3 || st.Phases[0].Name != "sort" || st.Phases[1].Name != "round" || st.Phases[2].Name != "merge" {
		t.Errorf("repeated phase not merged in start order: %+v", st.Phases)
	}
	if st.Counter(KeyRounds) != 3 {
		t.Errorf("rounds = %d, want 3", st.Counter(KeyRounds))
	}
}

func TestSolveStatsJSONShape(t *testing.T) {
	st, _ := TraceSolve(context.Background(), Span{}, func(ctx context.Context, _ *Trace) error {
		sp := SpanFrom(ctx)
		sp.SetStr(KeyAlgorithm, "dls")
		sp.Add(KeyRounds, 12)
		return nil
	})
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back SolveStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "dls" || back.Counter(KeyRounds) != 12 || back.Phases != nil {
		t.Errorf("round-trip lost data: %s", b)
	}
	var none *SolveStats
	if none.Counter(KeyLinks) != 0 {
		t.Error("nil stats counter not zero")
	}
}

// TestSpanAddConcurrent: tile workers add to one span's counters from
// many goroutines while a reader folds the live trace (schedd's
// /debug/state), and the fold never runs ahead of the adds.
func TestSpanAddConcurrent(t *testing.T) {
	st, _ := TraceSolve(context.Background(), Span{}, func(ctx context.Context, tr *Trace) error {
		sp := SpanFrom(ctx).Child("tile_solve")
		defer sp.End()
		done := make(chan struct{})
		monotone := make(chan bool, 1)
		go func() {
			var last int64
			for {
				select {
				case <-done:
					monotone <- true
					return
				default:
				}
				got := tr.SolveStats().Counter(KeyTilesSolved)
				if got < last || got > 8000 {
					monotone <- false
					return
				}
				last = got
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					sp.Add(KeyTilesSolved, 1)
				}
			}()
		}
		wg.Wait()
		close(done)
		if !<-monotone {
			t.Error("the live fold went backwards or ran ahead of the adds")
		}
		return nil
	})
	if got := st.Counter(KeyTilesSolved); got != 8000 {
		t.Errorf("concurrent counts = %d, want 8000", got)
	}
}

// TestTraceSolveGraftsSpans checks that a traced solve's phases land
// under the caller's span, with the solve's root attributes on that
// span itself, while the stats come from the private trace.
func TestTraceSolveGraftsSpans(t *testing.T) {
	trace := NewTraceCap("1234123412341234", "request", 32)
	solve := trace.Root().Child("solve")
	time.Sleep(time.Millisecond) // the private trace starts later than the request's
	st, err := TraceSolve(context.Background(), solve, func(ctx context.Context, _ *Trace) error {
		sp := SpanFrom(ctx)
		sp.SetStr(KeyAlgorithm, "rle")
		sp.Add(KeyLinks, 9)
		p := sp.Child("sort")
		p.Child("inner").End()
		p.End()
		p = sp.Child("eliminate")
		p.Add(KeyPicks, 3)
		p.End()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	solve.End()
	trace.Finish(200)

	if len(st.Phases) != 3 || st.Phases[0].Name != "sort" || st.Counter(KeyPicks) != 3 || st.Counter(KeyLinks) != 9 {
		t.Fatalf("stats broken: %+v", st)
	}
	s := trace.Snapshot()
	byName := map[string]SpanSnapshot{}
	for _, sp := range s.Spans {
		byName[sp.Name] = sp
	}
	sv := byName["solve"]
	if byName["sort"].Parent != sv.ID || byName["eliminate"].Parent != sv.ID {
		t.Fatalf("phase spans not nested under solve: %+v", s.Spans)
	}
	if byName["inner"].Parent != byName["sort"].ID {
		t.Fatalf("grandchild lost its parent: %+v", s.Spans)
	}
	if sv.Attrs[KeyAlgorithm] != "rle" || sv.Attrs[KeyLinks] != int64(9) {
		t.Fatalf("root attributes not copied onto solve: %+v", sv.Attrs)
	}
	if byName["eliminate"].Attrs[KeyPicks] != int64(3) {
		t.Fatalf("phase counter not copied: %+v", byName["eliminate"].Attrs)
	}
	if byName["sort"].StartUS < sv.StartUS+1000 {
		t.Fatalf("phase start %v µs not on the request clock (solve at %v µs)", byName["sort"].StartUS, sv.StartUS)
	}
}

// TestTraceSolveStatsIndependentOfParent: a full caller arena drops
// the copied spans (and counts them) but cannot change the stats.
func TestTraceSolveStatsIndependentOfParent(t *testing.T) {
	run := func(parent Span) *SolveStats {
		st, _ := TraceSolve(context.Background(), parent, func(ctx context.Context, _ *Trace) error {
			sp := SpanFrom(ctx)
			for _, name := range []string{"a", "b", "c"} {
				p := sp.Child(name)
				p.Add(KeyAdmitted, 2)
				p.End()
			}
			return nil
		})
		st.Phases = nil // wall times differ run to run
		return st
	}
	want, _ := json.Marshal(run(Span{}))

	full := NewTraceCap("feedfeedfeedfeed", "full", 3)
	parent := full.Root().Child("solve")
	got, _ := json.Marshal(run(parent))
	if string(got) != string(want) {
		t.Fatalf("stats depend on the caller's arena: %s != %s", got, want)
	}
	if d := full.Dropped(); d != 2 { // cap 3: root, solve, "a"
		t.Fatalf("dropped = %d, want 2", d)
	}
	if n := len(full.Snapshot().Spans); n != 3 {
		t.Fatalf("arena grew past cap: %d spans", n)
	}
}

// TestNilTracerIsInert: an untraced solve's context carries no span, so
// the solver records into the inert span. Naming the algorithm,
// counting, and starting and ending a phase must be no-ops that leave
// no trace to fold, and a nil stats snapshot reads every counter as 0.
func TestNilTracerIsInert(t *testing.T) {
	sp := SpanFrom(context.Background())
	sp.SetStr(KeyAlgorithm, "x")
	sp.Add(KeyLinks, 5)
	ph := sp.Child("p")
	ph.End()
	if sp.Trace() != nil || ph.Trace() != nil {
		t.Error("untraced solve recorded into a trace")
	}
	var st *SolveStats
	if st.Counter(KeyLinks) != 0 {
		t.Error("nil stats counter not zero")
	}
}

// TestTracerDisabledAllocs: what an untraced solve does per phase —
// look up its span, name the algorithm, start a phase, count, end it —
// must not allocate.
func TestTracerDisabledAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFrom(ctx)
		sp.SetStr(KeyAlgorithm, "greedy")
		ph := sp.Child("insert")
		ph.Add(KeyAdmitted, 1)
		ph.Add(KeyRejected, 2)
		ph.End()
	})
	if allocs != 0 {
		t.Errorf("untraced solve path allocates %v per op, want 0", allocs)
	}
}
