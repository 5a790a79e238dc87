package sched

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// ApproxLogN is the deterministic-SINR diversity-partition baseline of
// Goussevskaia et al. [14], the algorithm LDP extends: disjoint
// (banded) length classes, square tiling, 4 colors, one link per
// same-color square — but with the square size derived from the
// non-fading SINR condition (DeterministicBeta). Under an actual
// Rayleigh channel its schedules are too dense, producing the failed
// transmissions of the paper's Fig. 5.
type ApproxLogN struct{}

// Name implements Algorithm.
func (ApproxLogN) Name() string { return "approxlogn" }

// Schedule implements Algorithm.
func (a ApproxLogN) Schedule(pr *Problem) Schedule { return schedule(a, pr) }

// solve implements solver via the shared diversity-partition core
// (same phases and counters as LDP).
func (a ApproxLogN) solve(ctx context.Context, pr *Problem, _ *Scratch, dst []int) (Schedule, error) {
	sp := obs.SpanFrom(ctx)
	ph := sp.Child("classes")
	budget, spread, usable := pr.detHeadroom()
	classes := filterClasses(pr.Links.BandedLengthClasses(), usable)
	beta := detBetaFor(pr.Params, budget, spread)
	ph.End()
	best := gridPartitionBest(pr, classes, beta, sp)
	return finishSchedule(a.Name(), best, dst), nil
}

// ApproxDiversity is the deterministic-SINR shortest-link-first
// baseline of Goussevskaia et al. [15]: the same elimination structure
// as RLE, but budgeting the deterministic relative gain against the
// unit SINR budget instead of the fading interference factor against
// γ_ε. Like ApproxLogN it over-packs under fading.
type ApproxDiversity struct {
	// C2 splits the deterministic budget; zero means DefaultC2.
	C2 float64
}

// Name implements Algorithm.
func (a ApproxDiversity) Name() string {
	if a.C2 == 0 || a.C2 == DefaultC2 {
		return "approxdiversity"
	}
	return fmt.Sprintf("approxdiversity-c2=%v", a.C2)
}

// Schedule implements Algorithm.
func (a ApproxDiversity) Schedule(pr *Problem) Schedule { return schedule(a, pr) }

// solve implements solver via the shared elimination core (same
// phases and counters as RLE).
func (a ApproxDiversity) solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	c2 := a.C2
	if c2 == 0 {
		c2 = DefaultC2
	}
	budget, spread, usable := pr.detHeadroomIn(boolsIn(&scr.usable, pr.N()))
	active := eliminationSchedule(pr, eliminationConfig{
		c1:     detC1For(pr.Params, budget, spread, c2),
		budget: c2 * budget, // c₂ share of the deterministic budget
		accum:  scr.detAccumFor(pr),
		usable: usable,
	}, obs.SpanFrom(ctx), scr)
	return finishSchedule(a.Name(), active, dst), nil
}

// detAccum adapts the deterministic-SINR relative gain to the
// elimination core's accumulator interface. The deterministic model has
// no truncated representation (and the baselines only ever run at
// evaluation scale), so it recomputes gains directly from geometry —
// the interference field is a fading-model construct.
type detAccum struct {
	pr   *Problem
	load []float64
}

func newDetAccum(pr *Problem) *detAccum {
	return &detAccum{pr: pr, load: make([]float64, pr.N())}
}

func (d *detAccum) AddLink(i int) {
	for j := range d.load {
		if j != i {
			d.load[j] += d.pr.detGain(i, j)
		}
	}
}

func (d *detAccum) Load(j int) float64 { return d.load[j] }

func init() {
	mustRegister(ApproxLogN{})
	mustRegister(ApproxDiversity{})
}
