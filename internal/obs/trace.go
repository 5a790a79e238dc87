package obs

import (
	"context"
	"sync"
	"time"
)

// Well-known tracer counter keys. Solvers report under these names so
// schedd responses, CLI -trace output, and dashboards agree on
// vocabulary; the inventory is documented in DESIGN.md §8.
const (
	// Shared across algorithms.
	KeyLinks      = "links"     // instance size
	KeyScheduled  = "scheduled" // activation-set size
	KeyFieldPairs = "field_stored_pairs"

	// Exact branch-and-bound.
	KeyNodesExpanded = "nodes_expanded"
	KeyBoundCutoffs  = "bound_cutoffs"
	KeyInfeasible    = "infeasible_prunes"
	KeyIncumbents    = "incumbent_updates"
	KeySubtreeTasks  = "subtree_tasks"

	// DLS protocol rounds. KeyContentionChecks counts evaluations of
	// the leader election's contention predicate.
	KeyRounds           = "rounds"
	KeyWinner           = "round_winners"
	KeyNacks            = "nacks"
	KeyGaveUp           = "gave_up"
	KeyContentionChecks = "contention_checks"

	// Elimination core (RLE, ApproxDiversity).
	KeyPicks = "picks"
	KeyRule1 = "rule1_eliminated"
	KeyRule2 = "rule2_eliminated"

	// Diversity-partition core (LDP, ApproxLogN).
	KeyClasses    = "length_classes"
	KeyGridCells  = "grid_cells"
	KeyCandidates = "candidate_schedules"

	// Greedy insertion.
	KeyAdmitted = "admitted"
	KeyRejected = "rejected"

	// Tile-sharded solving. KeyTiles is the partition's tile count,
	// KeyTilesSolved counts tiles completed (workers bump it live, so a
	// mid-solve Stats snapshot shows fan-out progress), KeyTileAdmitted
	// the per-tile admissions surviving into the merge candidate list,
	// and KeyBoundaryRepairs the candidates the full-budget merge pass
	// dropped to resolve cross-tile conflicts.
	KeyTiles           = "tiles"
	KeyTilesSolved     = "tiles_solved"
	KeyTileAdmitted    = "tile_admitted"
	KeyBoundaryRepairs = "boundary_repairs"
)

// PhaseStat is one named phase's accumulated wall time.
type PhaseStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// SolveStats is the JSON-renderable snapshot of one solve's trace: the
// algorithm that ran, its per-phase wall times (in execution order),
// and its counters. schedd embeds it under "stats" in the /v1/solve
// response; fadingsched -trace prints it.
type SolveStats struct {
	Algorithm string           `json:"algorithm,omitempty"`
	Phases    []PhaseStat      `json:"phases,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
}

// Counter returns the named counter (0 when absent), tolerating a nil
// receiver so callers can chain off an optional stats snapshot.
func (s *SolveStats) Counter(key string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[key]
}

// Tracer collects one solve's phases and counters. The nil *Tracer is
// the disabled state: every method is a no-op costing a nil check and
// zero allocations (BenchmarkTracerDisabled guards this), so solvers
// call unconditionally and the untraced hot path stays untouched.
//
// A Tracer is safe for concurrent use — Exact's parallel subtree
// workers report into one — but the intended pattern is coarse:
// accumulate in solver-local variables and report once per phase, not
// once per node.
type Tracer struct {
	mu        sync.Mutex
	algorithm string
	order     []string
	phases    map[string]float64
	counters  map[string]int64
	ctrOrder  []string
	span      Span // parent span phases nest under (inert when unset)
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{phases: map[string]float64{}, counters: map[string]int64{}}
}

// AttachSpan nests the tracer's phases under sp: every StartPhase also
// opens a child span of sp, so solver phase timings appear inside the
// request's trace tree. Attach before the solve starts; returns t for
// chaining. Nil-safe on both sides.
func (t *Tracer) AttachSpan(sp Span) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.span = sp
	t.mu.Unlock()
	return t
}

// SetAlgorithm records which algorithm the trace belongs to.
func (t *Tracer) SetAlgorithm(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.algorithm = name
	sp := t.span
	t.mu.Unlock()
	sp.SetStr("algorithm", name)
}

// Count adds n to the named counter.
func (t *Tracer) Count(key string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.counters[key]; !ok {
		t.ctrOrder = append(t.ctrOrder, key)
	}
	t.counters[key] += n
	t.mu.Unlock()
}

// Phase measures one solver phase; obtain with StartPhase, finish with
// End. It is a value type so the enabled path allocates nothing
// either. When the tracer has an attached request span, the phase also
// opens a child span, so the same call site feeds both the flat
// per-phase totals (SolveStats) and the request trace tree.
type Phase struct {
	t     *Tracer
	name  string
	start time.Time
	sp    Span
}

// StartPhase begins timing a named phase. On a nil tracer the returned
// Phase is inert and no clock is read.
func (t *Tracer) StartPhase(name string) Phase {
	if t == nil {
		return Phase{}
	}
	t.mu.Lock()
	parent := t.span
	t.mu.Unlock()
	return Phase{t: t, name: name, start: time.Now(), sp: parent.Child(name)}
}

// Span returns the child span opened for this phase — inert on a nil
// tracer, without an attached request span, or when the trace arena is
// exhausted — so call sites can attach phase-level attributes (tile
// counts, repair totals) before End.
func (s Phase) Span() Span { return s.sp }

// End records the phase's elapsed wall time; repeated phases with the
// same name accumulate (their spans stay distinct).
func (s Phase) End() {
	if s.t == nil {
		return
	}
	s.sp.End()
	elapsed := time.Since(s.start).Seconds()
	s.t.mu.Lock()
	if _, ok := s.t.phases[s.name]; !ok {
		s.t.order = append(s.t.order, s.name)
	}
	s.t.phases[s.name] += elapsed
	s.t.mu.Unlock()
}

// Stats snapshots the trace. Returns nil on a nil tracer, so the
// result can feed straight into an omitempty JSON field.
func (t *Tracer) Stats() *SolveStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &SolveStats{Algorithm: t.algorithm}
	for _, name := range t.order {
		out.Phases = append(out.Phases, PhaseStat{Name: name, Seconds: t.phases[name]})
	}
	if len(t.counters) > 0 {
		out.Counters = make(map[string]int64, len(t.counters))
		for k, v := range t.counters {
			out.Counters[k] = v
		}
	}
	return out
}

type tracerKey struct{}

// WithTracer returns a context carrying t; solvers retrieve it with
// TracerFrom. Installing a nil tracer is allowed and equivalent to not
// installing one.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil (the disabled
// tracer) when absent.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}
