package obs

import (
	"context"
	"time"
)

// Well-known solve attribute and counter keys. Solvers report under
// these names so schedd responses, CLI -trace output, and dashboards
// agree on vocabulary; the inventory is documented in DESIGN.md §8.
const (
	// KeyAlgorithm is the solve span's string attribute naming the
	// algorithm that ran; every other key is a counter (Span.Add).
	KeyAlgorithm = "algorithm"

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

// SolveStats is the JSON-renderable summary of one solve's span tree:
// the algorithm that ran, its per-phase wall times (in execution
// order), and its counters. schedd embeds it under "stats" in the
// /v1/solve response; fadingsched -trace prints it.
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

// SolveStats folds the trace into a solve summary, reading the root
// span as the solve itself: the algorithm is the root's KeyAlgorithm
// attribute, every other span is a phase (same-name spans summed, in
// order of first start), and the counters are the Add attributes of
// every span, summed by key. A span still open counts its time so far,
// so a mid-solve read (schedd's /debug/state) sees live progress.
func (t *Trace) SolveStats() *SolveStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &SolveStats{}
	for i := range t.spans {
		rec := &t.spans[i]
		for _, a := range rec.attrs[:rec.nattrs] {
			switch {
			case a.kind == attrCount:
				if out.Counters == nil {
					out.Counters = make(map[string]int64, 8)
				}
				out.Counters[a.key] += a.n
			case i == 0 && a.kind == attrStr && a.key == KeyAlgorithm:
				out.Algorithm = a.s
			}
		}
		if i == 0 {
			continue
		}
		d := rec.dur
		if !rec.ended {
			d = time.Since(t.begun) - rec.start
		}
		k := 0
		for k < len(out.Phases) && out.Phases[k].Name != rec.name {
			k++
		}
		if k == len(out.Phases) {
			out.Phases = append(out.Phases, PhaseStat{Name: rec.name})
		}
		out.Phases[k].Seconds += d.Seconds()
	}
	return out
}

// TraceSolve runs solve in a private pooled trace whose root span
// stands for the solve: solve's context carries that root, so the
// solver's phases become its child spans and its counters accumulating
// attributes. TraceSolve returns the trace folded into SolveStats and,
// when parent records, copies the spans under parent. Stats therefore
// never depend on whether, or how full, the caller's own trace is.
// solve also receives the private trace, to read live stats from
// while it runs; the trace is recycled when TraceSolve returns.
func TraceSolve(ctx context.Context, parent Span, solve func(context.Context, *Trace) error) (*SolveStats, error) {
	t := NewTrace("", "solve")
	defer t.release()
	err := solve(ContextWithSpan(ctx, t.Root()), t)
	parent.graft(t)
	return t.SolveStats(), err
}
