package sched

import (
	"context"
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
)

// Problem is one Fading-R-LS instance: a link set plus the physical
// model parameters, with interference served by a pluggable
// InterferenceField backend (dense exact matrix by default, sparse
// truncated field for large instances — see NewProblem options).
type Problem struct {
	Links  *network.LinkSet
	Params radio.Params

	field InterferenceField
	// build reconstructs the field for a re-bound link set (mobility);
	// fieldName records which backend was selected, for diagnostics.
	build     fieldBuilder
	fieldName string
	n         int
	// gen counts geometry rebinds; Prepared's shared caches (sender
	// index, median length) are valid for exactly one generation.
	gen uint64
}

// NewProblem validates parameters and constructs the interference
// field. With no options it builds the exact dense matrix (the
// historical behavior); pass WithSparseField to trade bounded,
// conservative-only truncation error for near-linear memory.
func NewProblem(ls *network.LinkSet, p radio.Params, opts ...Option) (*Problem, error) {
	return NewProblemContext(context.Background(), ls, p, opts...)
}

// NewProblemContext is NewProblem under a context. When ctx carries a
// trace span (obs.ContextWithSpan) the field construction is recorded
// as a "field_build" span with the backend, instance size, and kernel
// pow specialization attached; the sparse builder nests its grid, fill
// and merge phases under it (a dense build is O(n) and has none). ctx
// is not a cancellation signal here: a build always runs to
// completion.
func NewProblemContext(ctx context.Context, ls *network.LinkSet, p radio.Params, opts ...Option) (*Problem, error) {
	if ls == nil {
		return nil, fmt.Errorf("sched: nil link set")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid radio params: %w", err)
	}
	cfg := problemConfig{}
	WithDenseField()(&cfg)
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	sp := obs.SpanFrom(ctx).Child("field_build")
	if sp.Enabled() {
		sp.SetStr("backend", cfg.name)
		sp.SetInt("links", int64(ls.Len()))
		sp.SetStr("pow_spec", p.FieldKernel().PowSpec())
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	field, err := cfg.build(ctx, ls, p)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Problem{
		Links: ls, Params: p, n: ls.Len(),
		field: field, build: cfg.build, fieldName: cfg.name,
	}, nil
}

// MustNewProblem panics on error; for tests and generators with known
// valid inputs.
func MustNewProblem(ls *network.LinkSet, p radio.Params, opts ...Option) *Problem {
	pr, err := NewProblem(ls, p, opts...)
	if err != nil {
		panic(err)
	}
	return pr
}

// N returns the number of links.
func (pr *Problem) N() int { return pr.n }

// Field returns the interference backend the instance was built with.
func (pr *Problem) Field() InterferenceField { return pr.field }

// FieldName returns the selected backend's name ("dense", "sparse").
func (pr *Problem) FieldName() string { return pr.fieldName }

// Factor returns f_{i,j}, the stored interference factor of sender i on
// receiver j (0 when i == j, or when a sparse backend truncated the
// pair — see InterferenceField.Factor).
func (pr *Problem) Factor(i, j int) float64 { return pr.field.Factor(i, j) }

// GammaEps returns the feasibility budget γ_ε of the instance.
func (pr *Problem) GammaEps() float64 { return pr.Params.GammaEps() }

// NoiseTerm returns receiver j's additive noise contribution to its
// feasibility budget (0 with the paper's N0 = 0).
func (pr *Problem) NoiseTerm(j int) float64 { return pr.field.NoiseTerm(j) }

// PowerOf returns link i's effective transmit power.
func (pr *Problem) PowerOf(i int) float64 { return pr.field.PowerOf(i) }

// Rebind points the instance at a moved copy of the same links (same
// count, rates, and powers; only positions may differ) and patches the
// interference field incrementally where the backend supports it. The
// dense backend drops the moved links' rows and patches their columns
// in the rows still resident — O(|moved|·resident) instead of a
// rebuild that would discard every filled row — which is what makes
// per-step mobility tracking affordable; other backends rebuild.
// moved lists the link indices whose sender or receiver changed.
func (pr *Problem) Rebind(ls *network.LinkSet, moved []int) error {
	if ls == nil {
		return fmt.Errorf("sched: nil link set")
	}
	if ls.Len() != pr.n {
		return fmt.Errorf("sched: rebind link count %d != %d (links must keep their identities)", ls.Len(), pr.n)
	}
	for _, i := range moved {
		if i < 0 || i >= pr.n {
			return fmt.Errorf("sched: rebind moved index %d out of range", i)
		}
	}
	if d, ok := pr.field.(*DenseField); ok {
		d.rebind(ls, moved)
	} else {
		field, err := pr.build(context.Background(), ls, pr.Params)
		if err != nil {
			return err
		}
		pr.field = field
	}
	pr.Links = ls
	pr.gen++
	return nil
}

// headroomIn computes the shared machinery the approximation algorithms
// use to stay correct under the noise and heterogeneous-power
// extensions while reducing exactly to the paper on its own model:
//
//   - usable[j] is false when link j's noise term alone eats more than
//     half its budget (such links need near-silence and are handled
//     only by the exact/greedy family);
//   - budget is γ_ε minus the worst usable noise term — the
//     interference budget every usable link provably still has;
//   - spread is the max/min effective power ratio over usable links;
//     the grid/elimination constants inflate by spread^{1/α} so the
//     ring-summation bounds hold with heterogeneous interferer powers.
//
// With N0 = 0 and uniform power this is (γ_ε, 1, all-true) and every
// algorithm behaves byte-identically to the paper's pseudocode. The
// usable mask is written into a caller-owned buffer (len pr.n, all
// false), the solve's Scratch.usable.
func (pr *Problem) headroomIn(usable []bool) (budget, spread float64, _ []bool) {
	ge := pr.GammaEps()
	var worstNoise float64
	minP, maxP := math.Inf(1), 0.0
	any := false
	for j := 0; j < pr.n; j++ {
		if pr.field.NoiseTerm(j) > ge/2 {
			continue
		}
		any = true
		usable[j] = true
		worstNoise = math.Max(worstNoise, pr.field.NoiseTerm(j))
		minP = math.Min(minP, pr.field.PowerOf(j))
		maxP = math.Max(maxP, pr.field.PowerOf(j))
	}
	if !any {
		// Every link is noise-drowned (minP stayed +Inf, maxP stayed 0):
		// nothing to budget for, and the spread ratio would be 0/∞.
		// Return the untouched budget and unit spread so callers simply
		// schedule the empty set.
		return ge, 1, usable
	}
	budget = ge - worstNoise
	spread = 1.0
	if maxP > minP {
		spread = maxP / minP
	}
	return budget, spread, usable
}

// detHeadroomIn is headroomIn for the deterministic (non-fading) model
// the baselines budget against: unit interference budget, noise term
// γ_th·N0/(P_j·d_jj^{−α}). Reduces to (1, 1, all-true) on the paper's
// model.
func (pr *Problem) detHeadroomIn(usable []bool) (budget, spread float64, _ []bool) {
	var worstNoise float64
	minP, maxP := math.Inf(1), 0.0
	any := false
	for j := 0; j < pr.n; j++ {
		dn := pr.detNoise(j)
		if dn > 0.5 {
			continue
		}
		any = true
		usable[j] = true
		worstNoise = math.Max(worstNoise, dn)
		minP = math.Min(minP, pr.field.PowerOf(j))
		maxP = math.Max(maxP, pr.field.PowerOf(j))
	}
	if !any {
		// All links noise-drowned under the deterministic model too;
		// same degenerate-extrema guard as headroomIn.
		return 1, 1, usable
	}
	budget = 1 - worstNoise
	spread = 1.0
	if maxP > minP {
		spread = maxP / minP
	}
	return budget, spread, usable
}

// detNoise is the deterministic-model noise share of link j's unit
// budget.
func (pr *Problem) detNoise(j int) float64 {
	if pr.Params.N0 == 0 {
		return 0
	}
	return pr.Params.GammaTh * pr.Params.N0 / pr.Params.MeanGainP(pr.field.PowerOf(j), pr.Links.Length(j))
}

// detGain is the deterministic-model relative interference of sender i
// on receiver j, power-aware: γ_th·(P_i/P_j)·(d_jj/d_ij)^α.
func (pr *Problem) detGain(i, j int) float64 {
	base := pr.Params.RelativeGain(pr.Links.Dist(i, j), pr.Links.Length(j))
	return base * pr.field.PowerOf(i) / pr.field.PowerOf(j)
}

// InterferenceOn returns the (conservative) total interference factor
// on receiver j from the given active sender set: stored factors plus
// the backend's tail-bound charge for truncated active senders. Exact
// on the dense backend. The sum is plain left-to-right; budgets are
// O(10⁻²) with factors bounded below by ~10⁻¹⁵ of the budget at
// deployment scale, so compensation is unnecessary here (the verifier
// uses compensated sums as an independent cross-check).
func (pr *Problem) InterferenceOn(j int, active []int) float64 {
	var sum float64
	tb := pr.field.TailBound(j)
	for _, i := range active {
		if i == j {
			continue
		}
		if f := pr.field.Factor(i, j); f > 0 {
			sum += f
		} else if tb > 0 {
			sum += tb * pr.field.PowerOf(i)
		}
	}
	return sum
}
