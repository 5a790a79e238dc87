package sched

import (
	"context"
	"fmt"

	"repro/internal/network"
	"repro/internal/radio"
)

// InterferenceField is the pluggable interference layer every
// algorithm, the verifier, and the simulators read through. It answers
// "how much does sender i's transmission eat into receiver j's
// Corollary 3.1 budget" without committing to a storage strategy:
//
//   - DenseField is the exact n×n factor matrix, built in O(n) and
//     filled one sender row at a time as solves first read it;
//   - SparseField stores only near-field factors above a configurable
//     cutoff and bounds the truncated far field conservatively.
//
// The contract every backend must satisfy, and that the differential
// tests enforce, is conservativeness: for any sender set A and
// receiver j,
//
//	NoiseTerm(j) + Σ_{i∈A} Factor(i,j) + TailBound(j)·Σ_{i∈A unstored} PowerOf(i)
//
// is an upper bound on the true noise-plus-interference load of j, so
// a schedule any backend accepts is feasible under the exact dense
// factors — truncation can starve throughput but never over-admit.
type InterferenceField interface {
	// N returns the number of links.
	N() int
	// Factor returns the stored interference factor f_{i,j} of sender
	// i on receiver j. It is 0 on the diagonal and for pairs the
	// backend truncated; stored factors are always positive, so a zero
	// return with i ≠ j reliably identifies a truncated (far-field)
	// pair covered by TailBound.
	Factor(i, j int) float64
	// NoiseTerm returns receiver j's additive noise contribution to
	// its feasibility budget (0 with the paper's N0 = 0).
	NoiseTerm(j int) float64
	// PowerOf returns link i's effective transmit power.
	PowerOf(i int) float64
	// TailBound returns the per-unit-power cap on the factor any
	// truncated sender can exert on receiver j: for every pair (i, j)
	// with Factor(i,j) == 0 and i ≠ j, the true factor is at most
	// TailBound(j)·PowerOf(i). Exact backends return 0.
	TailBound(j int) float64
	// ForEachAffected calls fn for every stored receiver j that sender
	// i has a positive factor on, in a deterministic backend-specific
	// order (dense walks receivers ascending; sparse walks its grid
	// rank order). It drives the incremental feasibility accumulators,
	// whose per-receiver sums are order-independent.
	ForEachAffected(i int, fn func(j int, f float64))
	// Bytes reports the memory the field holds resident right now.
	Bytes() int64
}

// fieldBuilder constructs a backend for a validated instance. ctx
// carries the request's trace span (obs.SpanFrom) so builds show up in
// the flight recorder; builders must not treat it as a cancellation
// signal — a half-built field is useless.
type fieldBuilder func(ctx context.Context, ls *network.LinkSet, p radio.Params) (InterferenceField, error)

// problemConfig collects NewProblem options.
type problemConfig struct {
	build fieldBuilder
	name  string
}

// Option configures NewProblem (interference-field backend selection).
type Option func(*problemConfig)

// WithDenseField selects the exact n×n matrix backend (the default):
// zero truncation error, O(n) construction, and 8n bytes per sender
// row the solves actually read.
func WithDenseField() Option {
	return func(c *problemConfig) {
		c.name = "dense"
		c.build = func(_ context.Context, ls *network.LinkSet, p radio.Params) (InterferenceField, error) {
			return newDenseField(ls, p), nil
		}
	}
}

// WithSparseField selects the grid-indexed near-field backend: only
// factors above the cutoff are stored, the far field is covered by a
// conservative per-unit-power tail bound, and memory scales with the
// number of significant pairs instead of n².
func WithSparseField(o SparseOptions) Option {
	return func(c *problemConfig) {
		c.name = "sparse"
		c.build = func(ctx context.Context, ls *network.LinkSet, p radio.Params) (InterferenceField, error) {
			return newSparseField(ctx, ls, p, o)
		}
	}
}

// FieldOption resolves a backend by name ("dense" or "sparse") — the
// form CLI flags arrive in. cutoff applies to the sparse backend only
// (0 = default).
func FieldOption(name string, cutoff float64) (Option, error) {
	switch name {
	case "", "dense":
		return WithDenseField(), nil
	case "sparse":
		return WithSparseField(SparseOptions{Cutoff: cutoff}), nil
	default:
		return nil, fmt.Errorf("sched: unknown interference-field backend %q (have dense, sparse)", name)
	}
}
