package mobility

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/sched"
)

// Tracker couples a Trace to a scheduling Problem and keeps the
// problem's interference field current as nodes move, using
// Problem.Rebind's incremental patching instead of rebuilding the
// instance from scratch every step. On the dense backend one tracked
// step costs O(|moved|·resident rows) factor updates rather than a
// rebuild that refills every row — the difference between re-planning
// every slot and re-planning only when the geometry actually changed.
//
// Tol trades accuracy for update volume: a link is re-bound only once
// its sender has drifted more than Tol from the position its factors
// were last computed at, so the field's view of any link is stale by
// at most Tol of sender displacement. Tol = 0 keeps the field exact.
type Tracker struct {
	trace *Trace
	pr    *sched.Problem
	prep  *sched.Prepared
	// bound[i] is sender i's position at its last rebind; drift is
	// measured against it, not against the previous step.
	bound []geom.Point
	tol   float64
}

// NewTracker wraps an existing trace and problem. The problem must
// have been built from the trace's current snapshot (same link count;
// positions in sync).
func NewTracker(trace *Trace, pr *sched.Problem, tol float64) (*Tracker, error) {
	if pr.N() != len(trace.pos) {
		return nil, fmt.Errorf("mobility: problem has %d links, trace has %d", pr.N(), len(trace.pos))
	}
	if tol < 0 {
		return nil, fmt.Errorf("mobility: negative tolerance %v", tol)
	}
	return &Tracker{
		trace: trace,
		pr:    pr,
		bound: trace.Positions(),
		tol:   tol,
	}, nil
}

// Problem returns the tracked problem; its interference field reflects
// the trace as of the last Advance (within the drift tolerance).
func (tk *Tracker) Problem() *sched.Problem { return tk.pr }

// Prepared returns a prepared handle over the tracked problem, built
// lazily and reused across calls, so re-planning after every Advance
// reuses solver scratch instead of reallocating it. Rebind bumps the
// problem's generation counter, which invalidates the handle's cached
// geometry (sender index, median length) automatically — callers just
// Advance and re-Schedule.
func (tk *Tracker) Prepared() *sched.Prepared {
	if tk.prep == nil {
		tk.prep = sched.NewPrepared(tk.pr)
	}
	return tk.prep
}

// Advance moves the trace forward by the given number of slots and
// patches the problem's interference field for every link whose sender
// drifted beyond the tolerance since its last rebind. It returns how
// many links were re-bound (0 means the field was left untouched).
func (tk *Tracker) Advance(slots int) (int, error) {
	tk.trace.Advance(slots)
	var moved []int
	for i, p := range tk.trace.pos {
		if p.Dist(tk.bound[i]) > tk.tol {
			moved = append(moved, i)
		}
	}
	if len(moved) == 0 {
		return 0, nil
	}
	snap, err := tk.trace.Snapshot()
	if err != nil {
		return 0, err
	}
	if err := tk.pr.Rebind(snap, moved); err != nil {
		return 0, err
	}
	for _, i := range moved {
		tk.bound[i] = tk.trace.pos[i]
	}
	return len(moved), nil
}
