package sched

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/radio"
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
func (g Greedy) Schedule(pr *Problem) Schedule { return schedule(g, pr) }

// solve implements solver: phases "sort" and "insert", the latter
// counting links admitted vs rejected by the budget checks.
func (g Greedy) solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	return g.scheduleRestricted(pr, scr, Selection{}, obs.SpanFrom(ctx), dst), nil
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

// scheduleRestricted is solve generalized over a Selection, recording
// its phases under sp: greedyOrder lists the candidates, greedyInsert
// admits them. The zero Selection lists every link, which is plain
// greedy.
//
// Greedy reads only candidates' loads (each one's own budget and the
// active receivers'), so when the list is a strict subset the
// accumulator is scoped to it (restrict): only the listed receivers'
// loads are initialized and updated, and a dense walk rents the rows
// it reads. A slot of a light traffic run therefore costs one O(n)
// selection scan plus sort, insertion checks and accumulation over its
// m candidates.
func (g Greedy) scheduleRestricted(pr *Problem, scr *Scratch, sel Selection, sp obs.Span, dst []int) Schedule {
	ph := sp.Child("sort")
	order := greedyOrder(pr, scr, sel)
	ph.End()

	// acc tracks each receiver's total budget usage: its noise term
	// (zero in the paper's model) plus interference from the current
	// set. Greedy needs no headroom slack — it checks the exact budget.
	ph = sp.Child("insert")
	var acc *Accum
	if len(order) < pr.N() {
		acc = scr.scopedAccum(pr, order)
	} else {
		acc = scr.noiseAccum(pr)
	}
	active, rejected, reads := greedyInsert(pr, scr, acc, order)
	ph.Add(obs.KeyAdmitted, int64(len(active)))
	ph.Add(obs.KeyRejected, int64(rejected))
	ph.Add(obs.KeyFactorReads, int64(reads))
	ph.End()
	return finishSchedule(g.Name(), active, dst)
}

// greedyOrder returns the links sel admits in the greedy pick order:
// descending rate, ties by ascending length, then by index — or, with
// weights, descending weight, ties by descending rate, then by index.
// The zero Selection's order depends on the link set alone, so a
// Prepared keeps it per geometry generation (preparedShared) and its
// solves share it read-only; a mask or weights sorts per call into
// scr's sorter.
func greedyOrder(pr *Problem, scr *Scratch, sel Selection) []int {
	if sel.Mask == nil && sel.Weights == nil {
		return scr.pickOrder(pr, greedyPick)
	}
	return sortSelected(pr, scr, sel)
}

// sortGreedy sorts the zero Selection's order into scr.
func sortGreedy(pr *Problem, scr *Scratch) []int { return sortSelected(pr, scr, Selection{}) }

// sortSelected sorts greedyOrder's order into scr's sorter. Keys are
// negated so the shared ascending two-key sorter realizes the
// descending order. It lists the admitted links in index order and
// stable-sorts only that list: a stable sort restricted to a subset
// equals the stable sort of that subset, so the pick order — and with
// it the schedule — matches a sub-problem solve over the same links,
// and a tile's order-contiguous run is the order its members would be
// reached in.
func sortSelected(pr *Problem, scr *Scratch, sel Selection) []int {
	n := pr.N()
	ps := &scr.sorter
	order := intsIn(&ps.order, n)[:0]
	// A traffic slot's selection is weights or a mask alone; their
	// scans skip admits' per-link nil and bounds checks.
	switch {
	case sel.Mask == nil && sel.Weights != nil:
		for i, w := range sel.Weights {
			if !(w <= 0) {
				order = append(order, i)
			}
		}
	case sel.Weights == nil && sel.Mask != nil:
		for i, ok := range sel.Mask {
			if ok {
				order = append(order, i)
			}
		}
	default:
		for i := 0; i < n; i++ {
			if sel.admits(i) {
				order = append(order, i)
			}
		}
	}
	ps.order = order
	ps.k1 = floatsIn(&ps.k1, len(order))
	ps.k2 = floatsIn(&ps.k2, len(order))
	if sel.Weights == nil {
		for k, i := range order {
			ps.k1[k] = -pr.Links.Rate(i)
			ps.k2[k] = pr.Links.Length(i)
		}
	} else {
		for k, i := range order {
			ps.k1[k] = -sel.Weights[i]
			ps.k2[k] = -pr.Links.Rate(i)
		}
	}
	sort.Stable(ps)
	return ps.order
}

// insert is the greedy insertion loop: from acc's empty active set it
// walks order and admits each sender that fits against budget,
// appending it to active. It returns the grown active set, the number
// of senders rejected and the admission test's factor reads. The last
// active receiver to reject a candidate is the witness the next tests
// check first: the active set only grows inside the pass, so it stays
// a member, and a receiver near its budget tends to reject the next
// candidate too.
func insert(p radio.Params, acc *Accum, order []int, budget float64, active []int) (_ []int, rejected, reads int) {
	w := -1
	for _, i := range order {
		ok, binding, r := acc.fits(p, i, acc.asc, budget, w)
		reads += r
		if !ok {
			rejected++
			if binding >= 0 {
				w = binding
			}
			continue
		}
		acc.admit(i)
		active = append(active, i)
	}
	return active, rejected, reads
}

// greedyInsert is the full-budget greedy insertion over an explicit
// candidate order, from acc's state (an empty active set over noise
// loads). Greedy runs it over its pick order, greedy-sharded over the
// global order (one tile) or the tile winners (merge pass). On
// tail-bounded (sparse) fields it runs prunedInsert, which admits and
// rejects the same senders as insert in O(stored degree) per candidate
// instead of Θ(|active|).
func greedyInsert(pr *Problem, scr *Scratch, acc *Accum, order []int) (active []int, rejected, reads int) {
	if acc.hasTail {
		active, rejected, reads = prunedInsert(pr, scr, acc, order)
	} else {
		active, rejected, reads = insert(pr.Params, acc, order, acc.gammaEps, scr.activeBuf(pr.N()))
	}
	scr.active = active
	return active, rejected, reads
}

// prunedInsert is insert's fast path for tail-bounded (sparse) fields,
// from an empty active set against the full budget. The plain loop
// pays Θ(|active|) per candidate, and near budget saturation almost
// every candidate is rejected by *some* active receiver, so the scan
// degenerates to Θ(n·|active|). This path decides each candidate in
// O(stored degree of its sender) using the structure of the
// conservative load model.
//
// For an active receiver j with no stored factor from candidate i,
// the plain check Load(j) + Contribution(i,j) ≤ γ_ε expands to
//
//	m_j + TailBound(j)·(actPow + P_i) ≤ γ_ε,
//	m_j = load_j − TailBound(j)·nearPow_j,
//
// and, once j is active, m_j only grows as further links join: a
// stored factor dominates the tail charge it displaces (f ≥ tail·P
// for every stored pair, by the truncation-radius construction), and
// unstored joins leave m_j untouched. A running maximum M over active
// receivers' m_j therefore answers every far check at once. With the
// per-receiver tail spread over [tmin, tmax] (analytically the bounds
// coincide at cutoff/pmax; only pow() rounding separates them), the
// candidate is safe to accept on the far side when even the tmax form
// fits the budget, and safe to reject when even the tmin form
// overflows — for the arg-max receiver a stored factor from i could
// only raise its exact check above the far form. Between the two
// (a band ~10⁻⁹ of the budget wide, versus a decision granularity of
// one whole tail charge) Accum.fits decides.
//
// Stored active neighbors — the O(degree) near field — are checked
// with exactly fits' expression, so the admitted set and pick order
// are identical to insert's on every input;
// TestGreedyInsertMatchesPlainLoop pins that equivalence.
func prunedInsert(pr *Problem, scr *Scratch, acc *Accum, order []int) (_ []int, rejected, reads int) {
	p, budget := pr.Params, acc.gammaEps
	active := scr.activeBuf(pr.N())
	isActive := boolsIn(&scr.insAct, pr.N())
	m := func(j int) float64 { return acc.load[j] - acc.tail[j]*acc.nearPow[j] }
	M := math.Inf(-1)
	for _, i := range order {
		if !p.InformedBudget(acc.Load(i), budget) {
			rejected++
			continue
		}
		ok := true
		if len(active) > 0 {
			aPrime := acc.actPow + acc.field.PowerOf(i)
			margin := 1e-9 * (budget + math.Abs(M) + acc.tmax*aPrime)
			if !p.InformedBudget(M+acc.tmin*aPrime-margin, budget) {
				// Even the weakest tail charge overflows the most loaded
				// receiver: every variant of its exact check fails too.
				ok = false
			} else if p.InformedBudget(M+acc.tmax*aPrime+margin, budget) {
				// Far field clears the budget everywhere; only stored
				// active neighbors can still object.
				acc.field.ForEachAffected(i, func(j int, f float64) {
					if ok && isActive[j] && !p.InformedBudget(acc.Load(j)+f, budget) {
						ok = false
					}
				})
			} else {
				// Margin band: rounding could flip the bound tests, so
				// let the exact scan decide.
				var r int
				ok, _, r = acc.fits(p, i, active, budget, -1)
				reads += r
			}
		}
		if !ok {
			rejected++
			continue
		}
		acc.AddLink(i)
		isActive[i] = true
		active = append(active, i)
		if v := m(i); v > M {
			M = v
		}
		acc.field.ForEachAffected(i, func(j int, _ float64) {
			if isActive[j] {
				if v := m(j); v > M {
					M = v
				}
			}
		})
	}
	return active, rejected, reads
}

func init() {
	mustRegister(Greedy{})
}
