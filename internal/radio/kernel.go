package radio

import (
	"math"

	"repro/internal/mathx"
)

// FieldKernel is the hot-path form of the Corollary 3.1 interference
// factor, specialized once per field build. It rewrites
//
//	f_ij = ln(1 + γ_th·(p_i/p_j)·(d_jj/d_ij)^α)
//	     = log1p( (p_i·K_j) · (d_ij²)^{-α/2} ),   K_j = γ_th·d_jj^α/p_j
//
// so the inner loop over pairs does no division by p_j, no d_jj power,
// and — crucially — no square root for the distance: d_ij enters as
// the squared Euclidean distance straight from the coordinate
// differences, and the α-specialized mathx.HalfPow raises it to α/2
// directly (for the paper's α = 3 that is one multiply and one sqrt;
// math.Pow never runs).
//
// Kernel consistency contract: Factor, FactorRow, and FactorSpan
// evaluate the identical operation sequence, so any mix of row fills,
// span fills, and scalar evaluations (a dense field's unfilled rows,
// the Rebind column patches) produces bit-identical factors. The sched
// differential tests pin this.
// Numerically the kernel tracks the reference InterferenceFactorP
// within a few ulp — the pow family is ≤ 1 ulp from correctly rounded
// (tighter than math.Pow, see mathx.HalfPow) and the log1p is
// bit-identical to the stdlib's — but it is not bit-equal to the
// reference, whose algebraic grouping differs; TestFieldKernelMatchesReference
// bounds the divergence.
type FieldKernel struct {
	gammaTh float64
	hp      mathx.HalfPow
}

// FieldKernel builds the specialized kernel for these parameters.
func (p Params) FieldKernel() FieldKernel {
	return FieldKernel{gammaTh: p.GammaTh, hp: mathx.NewHalfPow(p.Alpha)}
}

// PowSpec names the pow specialization the kernel selected for its α
// ("x_sqrt_x" for the paper's α = 3, "generic" for the math.Pow
// fallback, …). Field-build trace spans carry it so a slow build on an
// unspecialized α is visible in the flight recorder.
func (k FieldKernel) PowSpec() string { return k.hp.Kind().String() }

// ReceiverConst returns K_j = γ_th·d_jj^α/p_j — the per-receiver
// constant hoisted out of the pair loops. Computed as
// γ_th·(d_jj²)^{α/2}/p_j through the same specialized pow the pair
// loops use, so the receiver side and the distance side of the factor
// are raised by one code path.
func (k FieldKernel) ReceiverConst(pj, djj float64) float64 {
	return k.gammaTh * k.hp.Raise(djj*djj) / pj
}

// Factor returns the interference factor of a sender whose
// (power × receiver-constant) product is piK, at squared distance d2
// from the receiver: log1p(piK/(d2)^{α/2}). A zero d2 (coincident
// interferer) yields +Inf, matching InterferenceFactorP's dij ≤ 0
// contract; d2 is a sum of squares and cannot be negative.
func (k FieldKernel) Factor(piK, d2 float64) float64 {
	return mathx.Log1pPos(piK / k.hp.Raise(d2))
}

// FactorRow fills out[j] = Factor(pi·K[j], (rx[j]-sx)²+(ry[j]-sy)²)
// for every j, then zeroes out[self] (pass self < 0 to keep all
// entries). It is the dense-fill primitive: one sender against a flat
// SoA slab of receiver coordinates and constants. The α-kind switch is
// hoisted out of the loop; every branch body is the verbatim Factor
// expression, which is what keeps row fills and scalar patches
// bit-identical.
func (k FieldKernel) FactorRow(pi, sx, sy float64, rx, ry, K []float64, self int, out []float64) {
	rx = rx[:len(out)]
	ry = ry[:len(out)]
	K = K[:len(out)]
	switch k.hp.Kind() {
	case mathx.PowXSqrtX: // α = 3, the paper default
		for j := range out {
			dx := rx[j] - sx
			dy := ry[j] - sy
			d2 := dx*dx + dy*dy
			out[j] = mathx.Log1pPos(pi * K[j] / (d2 * math.Sqrt(d2)))
		}
	case mathx.PowX: // α = 2
		for j := range out {
			dx := rx[j] - sx
			dy := ry[j] - sy
			d2 := dx*dx + dy*dy
			out[j] = mathx.Log1pPos(pi * K[j] / d2)
		}
	case mathx.PowX2: // α = 4
		for j := range out {
			dx := rx[j] - sx
			dy := ry[j] - sy
			d2 := dx*dx + dy*dy
			out[j] = mathx.Log1pPos(pi * K[j] / (d2 * d2))
		}
	case mathx.PowX3: // α = 6
		for j := range out {
			dx := rx[j] - sx
			dy := ry[j] - sy
			d2 := dx*dx + dy*dy
			out[j] = mathx.Log1pPos(pi * K[j] / (d2 * d2 * d2))
		}
	default: // quarter-exponent and generic α: per-pair Raise dispatch
		for j := range out {
			dx := rx[j] - sx
			dy := ry[j] - sy
			d2 := dx*dx + dy*dy
			out[j] = mathx.Log1pPos(pi * K[j] / k.hp.Raise(d2))
		}
	}
	if self >= 0 {
		out[self] = 0
	}
}

// FactorSpan is the sparse-build primitive: one sender against a
// rank-contiguous span of candidate receivers, with per-receiver
// truncation. rx/ry/K are the span's receiver coordinates and
// constants, rad2 its squared truncation radii sorted descending (the
// span is one grid cell, ordered at build time); minD2 is a lower
// bound on this sender's squared distance to any point of the cell.
// The descending sort turns the radius test into an early break: once
// rad2[r] < minD2, no later receiver in the span can accept this
// sender.
//
// A receiver r qualifies when d2 ≤ rad2[r] and r ≠ self (the span
// rank of the sender's own receiver, or −1). For each qualifying
// receiver, base+r and the factor are appended at cursor w of
// idx/out; the new cursor is returned. Factor values follow the exact
// FactorRow/Factor operation sequence.
func (k FieldKernel) FactorSpan(pi, sx, sy float64, rx, ry, K, rad2 []float64, minD2 float64, self int, base int32, idx []int32, out []float64, w int) int {
	rx = rx[:len(rad2)]
	ry = ry[:len(rad2)]
	K = K[:len(rad2)]
	if k.hp.Kind() == mathx.PowXSqrtX { // α = 3: the hoisted hot loop
		for r := range rad2 {
			if rad2[r] < minD2 {
				break
			}
			if r == self {
				continue
			}
			dx := rx[r] - sx
			dy := ry[r] - sy
			d2 := dx*dx + dy*dy
			if d2 > rad2[r] {
				continue
			}
			idx[w] = base + int32(r)
			out[w] = mathx.Log1pPos(pi * K[r] / (d2 * math.Sqrt(d2)))
			w++
		}
		return w
	}
	// Every other kind dispatches Raise per pair; its branch bodies are
	// the same expressions FactorRow hoists, so bits still agree.
	for r := range rad2 {
		if rad2[r] < minD2 {
			break
		}
		if r == self {
			continue
		}
		dx := rx[r] - sx
		dy := ry[r] - sy
		d2 := dx*dx + dy*dy
		if d2 > rad2[r] {
			continue
		}
		idx[w] = base + int32(r)
		out[w] = mathx.Log1pPos(pi * K[r] / k.hp.Raise(d2))
		w++
	}
	return w
}
