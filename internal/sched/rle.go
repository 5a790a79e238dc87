package sched

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/obs"
)

// DefaultC2 is the interference-budget split c₂ used when an RLE or
// ApproxDiversity value leaves it zero. The paper only requires
// c₂ ∈ (0,1); an even split between the interference contributed by
// earlier picks (≤ c₂·γ_ε, enforced by rule 2) and later picks
// (≤ (1−c₂)·γ_ε, enforced by the c₁ elimination radius) is the natural
// default, and the c₂-sweep ablation covers the rest of the range.
const DefaultC2 = 0.5

// RLE is the paper's Recursive Link Elimination algorithm (§IV-B,
// Algorithm 2) for uniform-rate instances: repeatedly activate the
// shortest remaining link, then delete (rule 1) every candidate whose
// sender lies within c₁·d_ii of the new receiver and (rule 2) every
// candidate whose accumulated interference factor from the active set
// exceeds c₂·γ_ε. Feasibility is Theorem 4.3, the constant-factor
// guarantee Theorem 4.4.
type RLE struct {
	// C2 ∈ (0,1) splits the budget; zero means DefaultC2.
	C2 float64
}

// Name implements Algorithm.
func (a RLE) Name() string {
	if a.C2 == 0 || a.C2 == DefaultC2 {
		return "rle"
	}
	return fmt.Sprintf("rle-c2=%v", a.C2)
}

// Schedule implements Algorithm.
func (a RLE) Schedule(pr *Problem) Schedule { return schedule(a, pr) }

// solve implements solver through the shared elimination core (phases
// "sort" and "eliminate", pick and elimination counters).
func (a RLE) solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	c2 := a.C2
	if c2 == 0 {
		c2 = DefaultC2
	}
	budget, spread, usable := pr.headroomIn(boolsIn(&scr.usable, pr.N()))
	active := eliminationSchedule(pr, eliminationConfig{
		c1:     rleC1For(pr.Params, budget, spread, c2),
		budget: c2 * budget,
		accum:  scr.zeroAccum(pr),
		usable: usable,
	}, obs.SpanFrom(ctx), scr)
	return finishSchedule(a.Name(), active, dst), nil
}

// eliminationConfig parameterizes the shared shortest-link-first
// elimination core. RLE uses the fading interference factor against
// the budget c₂·γ_ε; ApproxDiversity uses the deterministic relative
// gain against c₂·1. Everything else — pick order, rule 1, rule 2 — is
// identical, which is what makes the Fig. 5 comparison a pure
// model-vs-model measurement.
type eliminationConfig struct {
	// c1 is the rule-1 elimination radius multiplier.
	c1 float64
	// budget is the rule-2 accumulated-interference cap.
	budget float64
	// accum measures each candidate's accumulated interference from the
	// picked set under the algorithm's channel model (field Accum for
	// RLE, deterministic-gain adapter for ApproxDiversity).
	accum interferenceAccum
	// usable marks links allowed to participate (nil = all); the
	// headroom analysis excludes links whose noise term alone exhausts
	// their budget.
	usable []bool
}

// interferenceAccum is the slice of the Accum surface the elimination
// core needs, so the deterministic baseline can plug in its own model.
type interferenceAccum interface {
	AddLink(i int)
	Load(j int) float64
}

// eliminationSchedule returns the raw (pick-ordered) active set in a
// scratch-owned buffer, recording its phases under sp; callers copy
// the set out via finishSchedule before the scratch is reused.
func eliminationSchedule(pr *Problem, cfg eliminationConfig, sp obs.Span, scr *Scratch) []int {
	n := pr.N()
	// Pick order: ascending link length, ties by index (deterministic).
	ph := sp.Child("sort")
	ps := scr.pickSorterBufs(n, false)
	for i := 0; i < n; i++ {
		ps.k1[i] = pr.Links.Length(i)
	}
	sort.Stable(ps)
	ph.End()

	ph = sp.Child("eliminate")
	alive := boolsIn(&scr.alive, n)
	for i := range alive {
		alive[i] = cfg.usable == nil || cfg.usable[i]
	}
	// Rule-1 queries go through a grid index over the senders instead of
	// an O(n) scan per pick; elimination radii scale with the picked
	// link's length, so the cell side comes from the median length.
	// Through a Prepared handle both the senders slice and the index are
	// shared immutable caches; standalone scratches build them per call.
	senders := scr.sendersOf(pr)
	idx := scr.rule1Index(pr, senders, rule1IndexSide(pr, cfg.c1, scr))
	active := scr.activeBuf(n)
	var rule1, rule2 int64

	for _, i := range ps.order {
		if !alive[i] {
			continue
		}
		// Rule 2, checked lazily at pick time: accumulated interference
		// is monotone nondecreasing and elimination only matters when a
		// link reaches the head of the pick order, so testing the budget
		// here admits exactly the links the pseudocode's eager per-pick
		// elimination admits.
		if cfg.accum.Load(i) > cfg.budget {
			alive[i] = false
			rule2++
			continue
		}
		alive[i] = false
		active = append(active, i)
		ri := pr.Links.Link(i).Receiver
		radius := cfg.c1 * pr.Links.Length(i)
		// Rule 1: candidates whose sender is too close to the new
		// receiver. The index query is inclusive (≤ radius); the rule is
		// strict (<), so re-check the distance before eliminating.
		idx.VisitWithinRadius(ri, radius, func(j int) {
			if alive[j] && senders[j].Dist(ri) < radius {
				alive[j] = false
				rule1++
			}
		})
		cfg.accum.AddLink(i)
	}
	scr.active = active
	ph.Add(obs.KeyPicks, int64(len(active)))
	ph.Add(obs.KeyRule1, rule1)
	ph.Add(obs.KeyRule2, rule2)
	ph.End()
	return active
}

// rule1IndexSide derives a grid cell side for the rule-1 sender index:
// a third of the median elimination radius, with a bounding-box
// fallback when the radii are degenerate (empty instance, extreme c₁).
func rule1IndexSide(pr *Problem, c1 float64, scr *Scratch) float64 {
	side := c1 * scr.medianLength(pr) / 3
	if side > 0 && !math.IsInf(side, 1) {
		return side
	}
	box := geom.BoundingBox(scr.sendersOf(pr))
	return math.Max(box.Width(), box.Height())/64 + 1
}

func init() {
	mustRegister(RLE{})
}
