// Package fadingrls is the public API of the Fading-R-LS reproduction:
// link scheduling under the Rayleigh-fading SINR model, after
//
//	C. Qiu and H. Shen, "Fading-Resistant Link Scheduling in Wireless
//	Networks", ICPP 2017.
//
// The package exposes, through thin aliases over the internal
// implementation packages:
//
//   - the instance model (Link, LinkSet, deployment generators);
//   - the Rayleigh and deterministic channel models (Params);
//   - the scheduling problem and all algorithms — the paper's LDP and
//     RLE, the deterministic baselines ApproxLogN and ApproxDiversity,
//     the exact branch-and-bound, the Greedy heuristic, and the
//     decentralized DLS reconstruction;
//   - schedule verification (Corollary 3.1) and the Monte-Carlo channel
//     simulator behind the paper's failed-transmission measurements;
//   - the experiment harness regenerating every figure of §V.
//
// Quick start:
//
//	ls, _ := fadingrls.Generate(fadingrls.PaperConfig(300), 42, 0)
//	pr, _ := fadingrls.NewProblem(ls, fadingrls.DefaultParams())
//	s := fadingrls.RLE{}.Schedule(pr)
//	fmt.Println(s.Throughput(pr), fadingrls.Feasible(pr, s))
package fadingrls

import (
	"context"
	"fmt"
	"io"

	"repro/internal/geom"
	"repro/internal/mc"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/sched"
)

// Geometry and instance model.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Link is one sender→receiver transmission request.
	Link = network.Link
	// LinkSet is an immutable Fading-R-LS instance.
	LinkSet = network.LinkSet
	// GenConfig configures the random deployment generators.
	GenConfig = network.GenConfig
	// LengthClass is one LDP link class (Eq. 36).
	LengthClass = network.LengthClass
)

// Channel model.
type (
	// Params bundles the physical-layer constants (α, γ_th, ε, P, N0).
	Params = radio.Params
)

// Scheduling.
type (
	// Problem is an instance plus channel parameters with cached
	// interference factors.
	Problem = sched.Problem
	// Schedule is an activation set for one time slot.
	Schedule = sched.Schedule
	// Algorithm is any Fading-R-LS scheduler.
	Algorithm = sched.Algorithm
	// ContextAlgorithm is the interface an Algorithm defined outside
	// this module implements to honor context cancellation mid-solve
	// (the built-in Exact and DLS do so through SolveContext).
	ContextAlgorithm = sched.ContextAlgorithm
	// Violation reports one receiver over its feasibility budget.
	Violation = sched.Violation
	// Assessment is a schedule's violations, per-link success
	// probabilities and expected failures from one load pass.
	Assessment = sched.Assessment

	// LDP is the paper's O(g(L)) link-diversity-partition algorithm.
	LDP = sched.LDP
	// RLE is the paper's constant-factor recursive-link-elimination
	// algorithm for uniform rates.
	RLE = sched.RLE
	// ApproxLogN is the deterministic-SINR baseline of [14].
	ApproxLogN = sched.ApproxLogN
	// ApproxDiversity is the deterministic-SINR baseline of [15].
	ApproxDiversity = sched.ApproxDiversity
	// Greedy is the rate-greedy insertion heuristic.
	Greedy = sched.Greedy
	// Sharded is the tile-parallel greedy: receivers are partitioned
	// onto a spatial grid, tiles solve concurrently under a reserved
	// cross-tile interference budget, and a full-budget merge pass
	// repairs the boundaries. Shards=1 is bit-identical to Greedy.
	Sharded = sched.Sharded
	// Shardable marks algorithms whose tile count callers can pin.
	Shardable = sched.Shardable
	// Exact is the parallel branch-and-bound optimum solver.
	Exact = sched.Exact
	// DLS is the decentralized scheduler reconstruction.
	DLS = sched.DLS
	// ILP is the big-M matrix form of the problem (Eqs. 20–22).
	ILP = sched.ILP

	// InterferenceField is the pluggable interference backend every
	// scheduler and the verifier read through.
	InterferenceField = sched.InterferenceField
	// ProblemOption selects a NewProblem interference backend.
	ProblemOption = sched.Option
	// SparseOptions configures the sparse (truncated) backend.
	SparseOptions = sched.SparseOptions
	// DenseField is the exact n×n matrix backend.
	DenseField = sched.DenseField
	// SparseField is the grid-indexed near-field backend with a
	// conservative far-field tail bound.
	SparseField = sched.SparseField
	// Accum is the incremental per-receiver feasibility accumulator.
	Accum = sched.Accum

	// Prepared is a reusable solve handle: it owns a built interference
	// field plus pooled per-solve scratch, so repeated solves on one
	// instance — across goroutines, algorithms, and ε-variants via
	// Derive — allocate nothing in steady state.
	Prepared = sched.Prepared
)

// Simulation.
type (
	// SimConfig configures the Monte-Carlo channel simulator.
	SimConfig = mc.Config
	// SimResult is a simulation summary (failed transmissions).
	SimResult = mc.Result
	// AdaptiveSimConfig configures precision-targeted simulation.
	AdaptiveSimConfig = mc.AdaptiveConfig
)

// Observability.
type (
	// SolveStats is one solve's summary from SolveTraced: phases in
	// execution order plus counters (see obs.Key* for the vocabulary).
	SolveStats = obs.SolveStats
	// PhaseStat is one solver phase's accumulated wall time.
	PhaseStat = obs.PhaseStat
)

// DefaultParams returns the paper's evaluation parameters
// (α = 3, γ_th = 1, ε = 0.01, P = 1, zero noise).
func DefaultParams() Params { return radio.DefaultParams() }

// PaperConfig returns the paper's deployment configuration for n links
// (500×500 region, link lengths uniform in [5,20], unit rates).
func PaperConfig(n int) GenConfig { return network.PaperConfig(n) }

// Generate draws a random deployment; (cfg, seed, index) fully
// determine the instance.
func Generate(cfg GenConfig, seed, index uint64) (*LinkSet, error) {
	return network.Generate(cfg, seed, index)
}

// GenerateGrid builds the deterministic k×k lattice workload.
func GenerateGrid(k int, spacing, linkLen, rate float64) (*LinkSet, error) {
	return network.GenerateGrid(k, spacing, linkLen, rate)
}

// NewLinkSet validates and indexes an explicit link list.
func NewLinkSet(links []Link) (*LinkSet, error) { return network.NewLinkSet(links) }

// ReadLinkSet parses an instance previously written with
// LinkSet.Write, revalidating every link.
func ReadLinkSet(r io.Reader) (*LinkSet, error) { return network.Read(r) }

// NewProblem validates parameters and constructs the interference
// field. With no options it builds the exact dense factor matrix (in
// parallel); pass WithSparseField to scale to instances where the n²
// matrix no longer fits, trading a bounded, conservative-only
// truncation error.
func NewProblem(ls *LinkSet, p Params, opts ...ProblemOption) (*Problem, error) {
	return sched.NewProblem(ls, p, opts...)
}

// NewProblemContext is NewProblem under a context: when ctx carries a
// trace span (obs.ContextWithSpan) the field construction is recorded
// as nested spans — the sparse backend's grid/fill/merge phases
// included — in that request's trace.
func NewProblemContext(ctx context.Context, ls *LinkSet, p Params, opts ...ProblemOption) (*Problem, error) {
	return sched.NewProblemContext(ctx, ls, p, opts...)
}

// Prepare builds the problem and wraps it in a Prepared handle — the
// entry point for callers that will solve the same instance more than
// once (servers, sweeps, mobility re-planning).
func Prepare(ls *LinkSet, p Params, opts ...ProblemOption) (*Prepared, error) {
	return sched.Prepare(ls, p, opts...)
}

// PrepareContext is Prepare under a context (see NewProblemContext).
func PrepareContext(ctx context.Context, ls *LinkSet, p Params, opts ...ProblemOption) (*Prepared, error) {
	return sched.PrepareContext(ctx, ls, p, opts...)
}

// NewPrepared wraps an existing problem in a Prepared handle.
func NewPrepared(pr *Problem) *Prepared { return sched.NewPrepared(pr) }

// WithDenseField selects the exact dense matrix backend (the default).
func WithDenseField() ProblemOption { return sched.WithDenseField() }

// WithSparseField selects the truncated near-field backend: only
// factors above the cutoff are stored; the far field is charged a
// provable per-unit-power tail bound, so feasibility answers are
// conservative-only (never optimistic).
func WithSparseField(o SparseOptions) ProblemOption { return sched.WithSparseField(o) }

// FieldOption resolves a backend by name ("dense" or "sparse"), the
// form CLI flags arrive in; cutoff applies to sparse only (0 =
// default).
func FieldOption(name string, cutoff float64) (ProblemOption, error) {
	return sched.FieldOption(name, cutoff)
}

// NewAccum returns an incremental feasibility accumulator over the
// problem's interference field, preloaded with each receiver's noise
// term: AddLink/RemoveLink maintain every receiver's conservative
// load, Headroom(j) is the remaining γ_ε budget.
func NewAccum(pr *Problem) *Accum { return sched.NewAccum(pr) }

// Assess computes each scheduled receiver's load once and reads off
// both Corollary 3.1 violations and Theorem 3.1 success probabilities;
// Verify, Feasible, SuccessProbabilities and ExpectedFailures are views
// of it.
func Assess(pr *Problem, s Schedule) Assessment { return sched.Assess(pr, s) }

// Verify independently re-checks a schedule against Corollary 3.1,
// returning all violated receivers (empty ⇒ feasible).
func Verify(pr *Problem, s Schedule) []Violation { return sched.Verify(pr, s) }

// Feasible reports whether the schedule passes Verify.
func Feasible(pr *Problem, s Schedule) bool { return sched.Feasible(pr, s) }

// SuccessProbabilities returns each scheduled link's Theorem 3.1
// success probability, indexed like s.Active.
func SuccessProbabilities(pr *Problem, s Schedule) []float64 {
	return sched.SuccessProbabilities(pr, s)
}

// ExpectedFailures returns the analytic per-slot expectation of failed
// transmissions under the schedule.
func ExpectedFailures(pr *Problem, s Schedule) float64 { return sched.ExpectedFailures(pr, s) }

// Simulate draws Rayleigh realizations of the schedule and counts
// failed transmissions (the paper's Fig. 5 measurement).
func Simulate(pr *Problem, s Schedule, cfg SimConfig) (SimResult, error) {
	return mc.Simulate(pr, s, cfg)
}

// SimulateAdaptive runs Monte-Carlo batches until the failure
// estimate's 95% CI half-width reaches the target (or the slot cap),
// spending effort only where variance demands it.
func SimulateAdaptive(pr *Problem, s Schedule, cfg AdaptiveSimConfig) (SimResult, error) {
	return mc.SimulateAdaptive(pr, s, cfg)
}

// BuildILP extracts the big-M ILP data of a problem.
func BuildILP(pr *Problem) ILP { return sched.BuildILP(pr) }

// Algorithms returns the names of all registered algorithms.
func Algorithms() []string { return sched.Names() }

// Solve runs a registered algorithm by name.
func Solve(name string, pr *Problem) (Schedule, error) {
	a, ok := sched.Lookup(name)
	if !ok {
		return Schedule{}, fmt.Errorf("fadingrls: unknown algorithm %q (have %v)", name, sched.Names())
	}
	return a.Schedule(pr), nil
}

// SolveContext runs a registered algorithm under ctx: context-aware
// solvers (Exact, DLS) abort mid-search on cancellation, others are
// checked at the boundaries. This is the entry point long-running
// services (cmd/schedd) use to honor request deadlines.
func SolveContext(ctx context.Context, name string, pr *Problem) (Schedule, error) {
	return sched.SolveContext(ctx, name, pr)
}

// SolveTraced is SolveContext that also returns the solve's phase
// timings and counters. When ctx carries a span trace
// (obs.ContextWithSpan), the solve's phase spans are recorded under it.
func SolveTraced(ctx context.Context, name string, pr *Problem) (Schedule, *SolveStats, error) {
	var s Schedule
	st, err := obs.TraceSolve(ctx, obs.SpanFrom(ctx), func(ctx context.Context, _ *obs.Trace) error {
		var err error
		s, err = sched.SolveContext(ctx, name, pr)
		return err
	})
	return s, st, err
}
