package sched

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
)

// tracedSolve runs solve in a private trace and returns its schedule
// with the stats folded from that trace.
func tracedSolve(t testing.TB, solve func(context.Context) (Schedule, error)) (Schedule, *obs.SolveStats) {
	t.Helper()
	var s Schedule
	st, err := obs.TraceSolve(context.Background(), obs.Span{}, func(ctx context.Context, _ *obs.Trace) error {
		var err error
		s, err = solve(ctx)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// conformanceInstance is one link set under one field backend.
type conformanceInstance struct {
	name string
	ls   *network.LinkSet
	opts []Option
}

func conformanceInstances(t testing.TB, seed uint64, sizes ...int) []conformanceInstance {
	t.Helper()
	var out []conformanceInstance
	for _, n := range sizes {
		ls, err := network.Generate(network.PaperConfig(n), seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name string
			opts []Option
		}{{"dense", nil}, {"sparse", []Option{WithSparseField(SparseOptions{})}}} {
			out = append(out, conformanceInstance{name: f.name + "-" + strconv.Itoa(n), ls: ls, opts: f.opts})
		}
	}
	return out
}

// conformanceAlgorithms is every registered algorithm plus the
// non-default configurations the table also pins: a c₂ sweep point, a
// round-capped DLS, and a multi-tile greedy-sharded.
func conformanceAlgorithms(n int) []Algorithm {
	var out []Algorithm
	for _, name := range Names() {
		if a, _ := Lookup(name); name != "exact" || n <= DefaultExactMaxN {
			out = append(out, a)
		}
	}
	return append(out, RLE{C2: 0.3}, DLS{Rounds: 5}, Sharded{Shards: 8})
}

// fadingAware reports whether an algorithm guarantees Corollary 3.1
// feasibility; the deterministic-SINR baselines over-pack by design.
func fadingAware(a Algorithm) bool {
	switch a.(type) {
	case ApproxLogN, ApproxDiversity:
		return false
	}
	return true
}

// TestSolverConformance is the solver contract's one correctness
// table. For every registered algorithm (and the extra configurations
// above) on a small instance inside Exact's cap and a larger one,
// each under a dense and a sparse field, every entry point must return
// the same schedule bit for bit: Algorithm.Schedule, ScheduleContext
// on an independently built problem (determinism), SolveContext by
// name, Prepared.ScheduleInto on a cold scratch, on the handle's pool,
// and on a warm scratch that has served every algorithm before it.
// Fading-aware schedules must pass Verify, a Shardable algorithm at one
// shard must reproduce greedy, a dead context must be refused on every
// path, and unknown names must error.
func TestSolverConformance(t *testing.T) {
	ctx := context.Background()
	dead, cancel := context.WithCancel(ctx)
	cancel()
	p := radio.DefaultParams()
	for _, inst := range conformanceInstances(t, 42, 24, 250) {
		t.Run(inst.name, func(t *testing.T) {
			pr := MustNewProblem(inst.ls, p, inst.opts...)
			rebuilt := MustNewProblem(inst.ls, p, inst.opts...)
			shared := NewPrepared(MustNewProblem(inst.ls, p, inst.opts...))
			warm := shared.getScratch()
			defer shared.putScratch(warm)
			greedy := Greedy{}.Schedule(pr)
			var dst []int
			for _, a := range conformanceAlgorithms(inst.ls.Len()) {
				want := a.Schedule(pr)
				cells := map[string]func() (Schedule, error){
					"ScheduleContext": func() (Schedule, error) { return ScheduleContext(ctx, a, rebuilt) },
					"ScheduleInto/cold": func() (Schedule, error) {
						return NewPrepared(pr).ScheduleInto(ctx, a, nil)
					},
					"ScheduleInto/pool": func() (Schedule, error) { return shared.ScheduleInto(ctx, a, dst) },
					"ScheduleInto/warm": func() (Schedule, error) { return scheduleWith(ctx, a, shared.Problem(), warm, dst) },
				}
				if reg, ok := Lookup(a.Name()); ok && reflect.DeepEqual(reg, a) {
					cells["SolveContext"] = func() (Schedule, error) { return SolveContext(ctx, a.Name(), rebuilt) }
					cells["Prepared.SolveContext"] = func() (Schedule, error) { return shared.SolveContext(ctx, a.Name()) }
				}
				for entry, run := range cells {
					got, err := run()
					if err != nil {
						t.Fatalf("%s %s: %v", a.Name(), entry, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s %s: %v (%s) != Schedule's %v (%s)", a.Name(), entry, got.Active, got.Algorithm, want.Active, want.Algorithm)
					}
					dst = got.Active
				}
				if fadingAware(a) {
					if v := Verify(pr, want); len(v) != 0 {
						t.Errorf("%s: infeasible schedule: %v", a.Name(), v[0])
					}
				}
				if sh, ok := a.(Shardable); ok {
					one := sh.WithShards(1)
					for _, got := range []Schedule{one.Schedule(pr), shared.Schedule(one)} {
						if !slices.Equal(got.Active, greedy.Active) {
							t.Fatalf("%s at 1 shard: %v != greedy %v", a.Name(), got.Active, greedy.Active)
						}
					}
				}
				if s, err := ScheduleContext(dead, a, pr); !errors.Is(err, context.Canceled) || s.Len() != 0 {
					t.Errorf("%s: dead context gave %v, %v", a.Name(), s, err)
				}
				if s, err := shared.ScheduleInto(dead, a, dst); !errors.Is(err, context.Canceled) || s.Len() != 0 {
					t.Errorf("%s: dead context on a prepared handle gave %v, %v", a.Name(), s, err)
				}
			}
			if _, err := SolveContext(ctx, "zz-no-such-algo", pr); err == nil {
				t.Error("unknown algorithm accepted")
			}
			if _, err := shared.SolveContext(ctx, "zz-no-such-algo"); err == nil {
				t.Error("unknown algorithm accepted by a prepared handle")
			}
		})
	}
}

// goldenStats is one solve's stats with the wall times left out.
type goldenStats struct {
	Phases   []string         `json:"phases"`
	Counters map[string]int64 `json:"counters"`
}

// TestSolveStatsGolden pins every algorithm's phase names (in order)
// and counter values against testdata/solve_stats_golden.json, which
// was recorded from the phase tracer the span-based stats replaced:
// the solve's span tree must fold into exactly what that tracer
// reported. The golden instances are PaperConfig(n) seed 11 at n=24
// (every registered algorithm) and n=300 (all but exact), each under a
// dense and a sparse field, plus greedy-sharded at 4 shards. Exact's
// search counters depend on how its subtree tasks interleave, so the
// test runs on one OS thread, where the tasks run in order.
func TestSolveStatsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	raw, err := os.ReadFile("testdata/solve_stats_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]goldenStats
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]goldenStats{}
	for _, inst := range conformanceInstances(t, 11, 24, 300) {
		prep, err := Prepare(inst.ls, radio.DefaultParams(), inst.opts...)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]goldenStats{}
		for _, name := range Names() {
			if name == "exact" && inst.ls.Len() > 24 {
				continue
			}
			a, _ := Lookup(name)
			m[name] = solveGolden(t, prep, a)
		}
		m["greedy-sharded/4"] = solveGolden(t, prep, Sharded{Shards: 4})
		got[inst.name] = m
	}
	for inst, want := range golden {
		for algo, w := range want {
			g, ok := got[inst][algo]
			if !ok {
				t.Errorf("%s/%s: in the golden but not solved", inst, algo)
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s/%s:\n got  %+v\n want %+v", inst, algo, g, w)
			}
		}
		if len(got[inst]) != len(want) {
			t.Errorf("%s: solved %d algorithms, golden has %d", inst, len(got[inst]), len(want))
		}
	}
	if len(got) != len(golden) {
		t.Errorf("solved %d instances, golden has %d", len(got), len(golden))
	}
}

func solveGolden(t *testing.T, prep *Prepared, a Algorithm) goldenStats {
	t.Helper()
	_, st := tracedSolve(t, func(ctx context.Context) (Schedule, error) {
		return prep.ScheduleInto(ctx, a, nil)
	})
	if st.Algorithm != a.Name() {
		t.Errorf("stats algorithm %q, want %q", st.Algorithm, a.Name())
	}
	g := goldenStats{Counters: st.Counters}
	for _, ph := range st.Phases {
		g.Phases = append(g.Phases, ph.Name)
	}
	return g
}

// plainAlgo is an algorithm from outside the package: Schedule only.
// Its Schedule runs hook first, so a test can expire the context mid-solve.
type plainAlgo struct{ hook func() }

func (plainAlgo) Name() string { return "test-plain" }
func (a plainAlgo) Schedule(pr *Problem) Schedule {
	if a.hook != nil {
		a.hook()
	}
	return NewSchedule("test-plain", []int{0})
}

// ctxAlgo is an outside algorithm that honors its context.
type ctxAlgo struct{ plainAlgo }

func (ctxAlgo) ScheduleContext(ctx context.Context, pr *Problem) (Schedule, error) {
	<-ctx.Done()
	return Schedule{}, ctx.Err()
}

// TestScheduleWithFallbacks covers the dispatcher's paths for
// algorithms defined outside the package: ContextAlgorithm first, then
// Algorithm.Schedule, both recorded into the context's span like the
// built-ins, and a schedule finished after its deadline is discarded.
func TestScheduleWithFallbacks(t *testing.T) {
	pr := MustNewProblem(conformanceInstances(t, 5, 12)[0].ls, radio.DefaultParams())
	s, st := tracedSolve(t, func(ctx context.Context) (Schedule, error) {
		return ScheduleContext(ctx, plainAlgo{}, pr)
	})
	if !slices.Equal(s.Active, []int{0}) || st.Algorithm != "test-plain" || st.Counter(obs.KeyLinks) != 12 || st.Counter(obs.KeyScheduled) != 1 {
		t.Fatalf("plain fallback: %v, stats %+v", s, st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	if _, err := ScheduleContext(ctx, plainAlgo{hook: cancel}, pr); !errors.Is(err, context.Canceled) {
		t.Errorf("schedule finished after cancellation returned err %v, want Canceled", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := NewPrepared(pr).ScheduleInto(ctx, ctxAlgo{}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("ContextAlgorithm fallback returned err %v, want DeadlineExceeded", err)
	}
}
