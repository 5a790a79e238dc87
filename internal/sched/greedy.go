package sched

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Greedy is the natural rate-greedy insertion heuristic: consider links
// in descending rate (ties: shorter first, then lower index) and insert
// each one iff the schedule stays feasible under Corollary 3.1. It has
// no approximation guarantee — adversarial instances starve it — and
// serves as the ablation comparator quantifying what LDP's geometric
// structure buys.
type Greedy struct{}

// Name implements Algorithm.
func (Greedy) Name() string { return "greedy" }

// Schedule implements Algorithm.
func (g Greedy) Schedule(pr *Problem) Schedule { return g.ScheduleTraced(pr, nil) }

// ScheduleTraced implements TracedAlgorithm: phases "sort" and
// "insert", counters for links admitted vs rejected by the budget
// checks.
func (g Greedy) ScheduleTraced(pr *Problem, tr *obs.Tracer) Schedule {
	return g.scheduleScratch(pr, new(Scratch), tr, nil)
}

// scheduleScratch is the single implementation behind both entry
// points: a fresh Scratch reproduces the historical allocation
// profile, a pooled one (via Prepared) makes the loop allocation-free.
func (g Greedy) scheduleScratch(pr *Problem, scr *Scratch, tr *obs.Tracer, dst []int) Schedule {
	return g.scheduleRestricted(pr, scr, Selection{}, tr, dst)
}

// Selection restricts and re-orders a greedy solve without rebuilding
// the problem. Interference factors and noise terms depend only on
// link pairs and geometry, so masking candidates on the full prepared
// field is exactly equivalent to solving a rebuilt sub-instance over
// the selected links — minus the O(n²) field rebuild.
type Selection struct {
	// Mask, when non-nil (length n), limits the candidate links to
	// those with Mask[i] true. Nil admits every link.
	Mask []bool
	// Weights, when non-nil (length n), overrides the pick order:
	// descending weight, ties by descending rate, then by index. Links
	// with weight <= 0 are excluded — a queue-length weighting thus
	// doubles as a backlog mask. Nil keeps the default greedy order
	// (descending rate, ties by ascending length).
	Weights []float64
}

func (sel Selection) validate(n int) error {
	if sel.Mask != nil && len(sel.Mask) != n {
		return fmt.Errorf("sched: selection mask length %d != n %d", len(sel.Mask), n)
	}
	if sel.Weights != nil && len(sel.Weights) != n {
		return fmt.Errorf("sched: selection weights length %d != n %d", len(sel.Weights), n)
	}
	return nil
}

// admits reports whether link i participates in the solve.
func (sel Selection) admits(i int) bool {
	if sel.Mask != nil && !sel.Mask[i] {
		return false
	}
	if sel.Weights != nil && sel.Weights[i] <= 0 {
		return false
	}
	return true
}

// scheduleRestricted is scheduleScratch generalized over a Selection.
// It lists the links the selection admits, in index order, and
// stable-sorts only that list: a stable sort restricted to a subset
// equals the stable sort of that subset, so the pick order — and with
// it the schedule — matches a sub-problem solve over the same links.
// The zero Selection lists every link, which is plain greedy.
//
// Greedy reads only candidates' loads (each one's own budget and the
// active receivers'), so when the list is a strict subset the
// accumulator updates just the listed receivers: a slot of a light
// traffic run costs an O(n) selection scan plus sort and accumulation
// over its m candidates.
func (g Greedy) scheduleRestricted(pr *Problem, scr *Scratch, sel Selection, tr *obs.Tracer, dst []int) Schedule {
	n := pr.N()
	// Pick order: descending rate, ties by ascending length, then by
	// index (sort.Stable over an index-ordered list). Keys are negated
	// so the shared ascending two-key sorter realizes the descending
	// order. With weights the primary key is the weight and rate
	// breaks ties.
	sp := tr.StartPhase("sort")
	cands := intsIn(&scr.cands, n)[:0]
	for i := 0; i < n; i++ {
		if sel.admits(i) {
			cands = append(cands, i)
		}
	}
	scr.cands = cands
	ps := scr.pickSorterBufs(len(cands), true)
	copy(ps.order, cands)
	if sel.Weights == nil {
		for k, i := range cands {
			ps.k1[k] = -pr.Links.Rate(i)
			ps.k2[k] = pr.Links.Length(i)
		}
	} else {
		for k, i := range cands {
			ps.k1[k] = -sel.Weights[i]
			ps.k2[k] = -pr.Links.Rate(i)
		}
	}
	sort.Stable(ps)
	sp.End()

	// acc tracks each receiver's total budget usage: its noise term
	// (zero in the paper's model) plus interference from the current
	// set. Greedy needs no headroom slack — it checks the exact budget.
	sp = tr.StartPhase("insert")
	acc := scr.noiseAccum(pr)
	if len(cands) < n {
		acc.only = cands
	}
	active := scr.activeBuf(n)
	rejected := 0
	for _, i := range ps.order {
		// Candidate's own budget with the current set (Informed applies
		// the same rounding slack as the Verify cross-check).
		if !pr.Params.Informed(acc.Load(i)) {
			rejected++
			continue
		}
		// Would adding sender i push any active receiver over budget?
		ok := true
		for _, j := range active {
			if !pr.Params.Informed(acc.Load(j) + acc.Contribution(i, j)) {
				ok = false
				break
			}
		}
		if !ok {
			rejected++
			continue
		}
		acc.AddLink(i)
		active = append(active, i)
	}
	scr.active = active
	sp.End()
	tr.Count(obs.KeyAdmitted, int64(len(active)))
	tr.Count(obs.KeyRejected, int64(rejected))
	return finishSchedule(g.Name(), active, dst)
}

func init() {
	mustRegister(Greedy{})
}
