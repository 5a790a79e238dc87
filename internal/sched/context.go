package sched

import (
	"context"

	"repro/internal/obs"
)

// ContextAlgorithm is the interface for algorithms defined outside
// this package whose solve can be aborted mid-way. ScheduleContext
// returns ctx.Err() when the context is canceled before the schedule
// is complete; the partial work is discarded. The built-in algorithms
// all implement the package's own solve contract instead (see solver).
type ContextAlgorithm interface {
	Algorithm
	ScheduleContext(ctx context.Context, pr *Problem) (Schedule, error)
}

// solver is the one contract every built-in algorithm implements. solve
// runs the algorithm on pr off the scr workspace and writes the active
// set into dst[:0] (nil allocates). It observes ctx where the algorithm
// has preemption points (Exact's search, DLS's round boundaries),
// records its phases as child spans of obs.SpanFrom(ctx) and its
// counters as Add attributes of those spans; on the inert span of an
// untraced context all of that costs a nil check.
type solver interface {
	Algorithm
	solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error)
}

var (
	_ solver    = Greedy{}
	_ solver    = Sharded{}
	_ solver    = RLE{}
	_ solver    = ApproxDiversity{}
	_ solver    = LDP{}
	_ solver    = ApproxLogN{}
	_ solver    = DLS{}
	_ solver    = Exact{}
	_ Shardable = Sharded{}
)

// ScheduleContext runs a on pr honoring ctx, on a one-shot Prepared
// handle: it is NewPrepared(pr).ScheduleInto(ctx, a, nil). The context
// is checked before the solve starts and again when it ends, so a
// caller never receives a schedule after its deadline; Exact and DLS
// also abort mid-solve. When ctx carries a span (obs.ContextWithSpan)
// the solve records into it: the algorithm name, the instance size and
// schedule size, the sparse field's stored pairs, and the algorithm's
// phases and counters.
func ScheduleContext(ctx context.Context, a Algorithm, pr *Problem) (Schedule, error) {
	return NewPrepared(pr).ScheduleInto(ctx, a, nil)
}

// scheduleWith is the one dispatcher behind every solve, run on a
// scratch of the handle that owns pr: built-in algorithms run their
// solve off scr, algorithms from other packages fall back to
// ContextAlgorithm, then to Algorithm.Schedule.
func scheduleWith(ctx context.Context, a Algorithm, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	if err := ctx.Err(); err != nil {
		return Schedule{}, err
	}
	sp := obs.SpanFrom(ctx)
	if sp.Enabled() {
		sp.SetStr(obs.KeyAlgorithm, a.Name())
		sp.Add(obs.KeyLinks, int64(pr.N()))
		if f, ok := pr.field.(*SparseField); ok {
			sp.Add(obs.KeyFieldPairs, int64(f.StoredPairs()))
		}
	}
	var s Schedule
	var err error
	switch impl := a.(type) {
	case solver:
		s, err = impl.solve(ctx, pr, scr, dst)
	case ContextAlgorithm:
		s, err = impl.ScheduleContext(ctx, pr)
	default:
		s = a.Schedule(pr)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return Schedule{}, err
	}
	sp.Add(obs.KeyScheduled, int64(s.Len()))
	return s, nil
}

// schedule is every built-in's Algorithm.Schedule: ScheduleContext
// under a background context, which never cancels, so the only failure
// left is a refusal (Exact over MaxN), which panics.
func schedule(a solver, pr *Problem) Schedule {
	s, err := ScheduleContext(context.Background(), a, pr)
	if err != nil {
		panic("sched: " + a.Name() + " solve failed: " + err.Error())
	}
	return s
}

// SolveContext looks up a registered algorithm by name and runs it
// under ctx on a one-shot Prepared handle — the entry point
// long-running services use.
func SolveContext(ctx context.Context, name string, pr *Problem) (Schedule, error) {
	return NewPrepared(pr).SolveContext(ctx, name)
}
