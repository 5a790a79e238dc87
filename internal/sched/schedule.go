package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mathx"
)

// Schedule is the output of an algorithm: the set of links activated in
// the single time slot, in ascending link-index order, plus provenance.
type Schedule struct {
	// Active holds the indices of scheduled links, sorted ascending.
	Active []int
	// Algorithm names the producer ("ldp", "rle", ...).
	Algorithm string
}

// NewSchedule normalizes (sorts, de-duplicates) a raw index set.
func NewSchedule(algorithm string, idxs []int) Schedule {
	sorted := append([]int(nil), idxs...)
	sort.Ints(sorted)
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return Schedule{Active: out, Algorithm: algorithm}
}

// Len returns the number of scheduled links.
func (s Schedule) Len() int { return len(s.Active) }

// Equal reports whether two schedules activate the same link set under
// the same algorithm name.
func (s Schedule) Equal(o Schedule) bool {
	if s.Algorithm != o.Algorithm || len(s.Active) != len(o.Active) {
		return false
	}
	for i, v := range s.Active {
		if v != o.Active[i] {
			return false
		}
	}
	return true
}

// Contains reports whether link i is scheduled.
func (s Schedule) Contains(i int) bool {
	k := sort.SearchInts(s.Active, i)
	return k < len(s.Active) && s.Active[k] == i
}

// Throughput returns Σ λ_i over the scheduled links — the Fading-R-LS
// objective value U(P).
func (s Schedule) Throughput(pr *Problem) float64 {
	return pr.Links.TotalRate(s.Active)
}

// String renders a compact human-readable form.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d links {", s.Algorithm, len(s.Active))
	for i, v := range s.Active {
		if i > 0 {
			b.WriteString(",")
		}
		if i == 8 && len(s.Active) > 10 {
			fmt.Fprintf(&b, "… +%d more", len(s.Active)-i)
			break
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString("}")
	return b.String()
}

// Violation describes one receiver whose Corollary 3.1 budget is
// exceeded by a schedule.
type Violation struct {
	Link   int     // receiver's link index
	Factor float64 // Σ f_{i,j} over the schedule
	Budget float64 // γ_ε
}

func (v Violation) String() string {
	return fmt.Sprintf("link %d: interference factor %.6g exceeds γ_ε %.6g", v.Link, v.Factor, v.Budget)
}

// Assessment is everything the per-receiver loads of a schedule say
// about it. Corollary 3.1 feasibility and the Theorem 3.1 success
// probability exp(−load_j) are two readings of the same load, so Assess
// computes each active receiver's load once and derives both.
type Assessment struct {
	// Violations lists every receiver over its γ_ε budget, in
	// s.Active order (nil ⇒ the schedule is feasible).
	Violations []Violation
	// SuccessProb is each scheduled link's Theorem 3.1 success
	// probability, indexed like s.Active.
	SuccessProb []float64
	// ExpectedFailures is Σ_j (1 − SuccessProb_j), compensated.
	ExpectedFailures float64
}

// Feasible reports whether no receiver exceeds its budget.
func (a Assessment) Feasible() bool { return len(a.Violations) == 0 }

// Assess checks every scheduled link against the (noise-aware) fading
// feasibility condition NoiseTerm_j + Σ f_{i,j} ≤ γ_ε using compensated
// summation, independent of any bookkeeping the producing algorithm
// kept, and converts the same loads into success probabilities. With
// the paper's N0 = 0 the noise term vanishes and the check is exactly
// Corollary 3.1.
//
// Assessment reads through the instance's interference field: on the
// dense backend the factors are exact; on a truncated backend each
// unstored active sender is charged the conservative TailBound, so a
// clean assessment still certifies the schedule against the true
// factors, and each success probability is a lower bound on the true
// one.
//
// On the dense field denseLoads sums the loads sender-major, in
// scheduleLoad's order per receiver; other fields sum each receiver's
// load on its own (scheduleLoad).
func Assess(pr *Problem, s Schedule) Assessment {
	a := Assessment{SuccessProb: make([]float64, len(s.Active))}
	budget := pr.GammaEps()
	var sums []mathx.Accumulator
	if d, ok := pr.field.(*DenseField); ok {
		sums = denseLoads(d, s.Active)
	}
	var failures mathx.Accumulator
	for k, j := range s.Active {
		var load float64
		if sums != nil {
			load = sums[k].Sum()
		} else {
			load = scheduleLoad(pr, s, j)
		}
		if !pr.Params.Informed(load) {
			a.Violations = append(a.Violations, Violation{Link: j, Factor: load, Budget: budget})
		}
		p := prExp(load)
		a.SuccessProb[k] = p
		failures.Add(1 - p)
	}
	a.ExpectedFailures = failures.Sum()
	return a
}

// Verify returns Assess's violations: every receiver whose budget the
// schedule exceeds (empty ⇒ the schedule is feasible).
func Verify(pr *Problem, s Schedule) []Violation { return Assess(pr, s).Violations }

// scheduleLoad computes receiver j's conservative noise-plus-
// interference load under s with compensated summation: stored factors
// exactly, truncated active senders at the field's tail bound.
func scheduleLoad(pr *Problem, s Schedule, j int) float64 {
	field := pr.Field()
	var sum mathx.Accumulator
	sum.Add(field.NoiseTerm(j))
	tb := field.TailBound(j)
	var farPow float64
	for _, i := range s.Active {
		if i == j {
			continue
		}
		if f := field.Factor(i, j); f > 0 {
			sum.Add(f)
		} else if tb > 0 {
			farPow += field.PowerOf(i)
		}
	}
	if farPow > 0 {
		sum.Add(tb * farPow)
	}
	return sum.Sum()
}

// denseLoads is scheduleLoad for every receiver in active at once on
// the dense field, which truncates nothing: each active sender's row
// is walked once over the active receivers, adding each positive
// factor into that receiver's own compensated sum. A receiver's sum
// takes its noise term first, then its factors in active order —
// scheduleLoad's order — so each load is bit-identical to it, whatever
// the order of active and however often a link repeats in it. A
// resident row is read in place, an unfilled one through Factor's
// scalar kernel: Assess never fills or charges a row.
func denseLoads(f *DenseField, active []int) []mathx.Accumulator {
	sums := make([]mathx.Accumulator, len(active))
	for k, j := range active {
		sums[k].Add(f.NoiseTerm(j))
	}
	for _, i := range active {
		if row := f.filledRow(i); row != nil {
			for k, j := range active {
				if v := row[j]; v > 0 && j != i {
					sums[k].Add(v)
				}
			}
			continue
		}
		for k, j := range active {
			if j == i {
				continue
			}
			if v := f.Factor(i, j); v > 0 {
				sums[k].Add(v)
			}
		}
	}
	return sums
}

// Feasible reports whether the schedule satisfies every receiver's
// fading budget.
func Feasible(pr *Problem, s Schedule) bool { return Assess(pr, s).Feasible() }

// SuccessProbabilities returns Assess's per-link Theorem 3.1 success
// probabilities, indexed like s.Active.
func SuccessProbabilities(pr *Problem, s Schedule) []float64 { return Assess(pr, s).SuccessProb }

// ExpectedFailures returns Assess's Σ_j (1 − Pr(success_j)): the
// analytic expectation of the number of failed transmissions per slot,
// the cross-check metric for the Fig. 5 Monte-Carlo measurement.
func ExpectedFailures(pr *Problem, s Schedule) float64 { return Assess(pr, s).ExpectedFailures }
