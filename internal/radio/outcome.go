package radio

import (
	"math"
	"math/bits"

	"repro/internal/rng"
)

// RowVerdict is RowOutcome's decision on one receiver's fading row.
type RowVerdict int8

const (
	// RowUndecided: the bracket straddles γ_th, so RowOutcome replayed
	// the row exactly and returned its signal and denominator for the
	// caller's own comparison.
	RowUndecided RowVerdict = iota
	// RowSuccess: the realized SINR is certainly ≥ γ_th.
	RowSuccess
	// RowFailure: the realized SINR is certainly < γ_th.
	RowFailure
)

// expBounds[b] brackets the exponential −ln U drawn from a
// Float64Open uniform U = k·2⁻⁵³, k = x>>11 + 1 ∈ [1, 2⁵³], by the bit
// length b = bits.Len64(k) ∈ [1, 54] alone: k ∈ [2^(b−1), 2^b), so
// U ∈ [2^(b−54), 2^(b−53)) and −ln U ∈ ((53−b)·ln2, (54−b)·ln2]. Each
// bound carries a 2⁻⁴⁰ relative margin, which covers the rounding of
// the table entries and math.Log's error (about one ulp: at some
// classes' lower ends −math.Log overshoots the unmargined (54−b)·ln2).
// Index 0 is unused (k ≥ 1); b = 54 is U = 1, whose −ln U is exactly 0,
// and lo is clamped at 0 so every bound is non-negative.
var expBounds = func() (t [55]struct{ lo, hi float64 }) {
	for b := 1; b < len(t); b++ {
		t[b].lo = max(0, float64(53-b)*math.Ln2*(1-0x1p-40))
		t[b].hi = float64(54-b) * math.Ln2 * (1 + 0x1p-40)
	}
	return t
}()

// RowOutcome decides whether receiver self survives one Rayleigh
// fading realization. means[i] is sender i's mean received power at
// the receiver (means[self] the receiver's own signal); the row draws
// one 64-bit value per sender from src in slice order, the draws
// rng.Source.Exp would make for Z_i ~ Exp(means[i]). The realized SINR
// is Z_self / (n0 + Σ_{i≠self} Z_i), summed in slice order.
//
// Only the signal's exponential is evaluated. Each interferer's
// exponential is bracketed by its draw's bit-length class (expBounds),
// giving denominators lo ≤ den ≤ hi summed in the same order: IEEE
// round-to-nearest multiplication, addition and division are monotone,
// so Z_self/hi ≥ γ_th certifies success and Z_self/lo < γ_th certifies
// failure, each equal to the verdict of the exact sum. Every product is
// wrapped in float64(...), which the Go spec forbids fusing into an
// FMA, so the bounds and the exact path round the same way on every
// architecture.
//
// The bracket pass draws from a copy of src. An undecided row — the
// bracket straddles γ_th, or a bound is infinite or NaN — is replayed
// exactly from src's saved state, which re-draws the same values, and
// RowOutcome returns RowUndecided with the signal and the denominator
// for the caller's own comparison (callers differ on NaN and zero
// denominators). Either way src ends one row further on. means must be
// non-negative, as every mean gain P·d^{−α} is.
func RowOutcome(src *rng.Source, means []float64, self int, n0, gammaTh float64) (v RowVerdict, sig, den float64) {
	s := *src // the bracket pass's copy, kept in registers
	lo, hi := n0, n0
	for i, mean := range means {
		k := s.Uint64()>>11 + 1
		if i == self {
			sig = float64(-mean * math.Log(float64(k)*0x1p-53))
			continue
		}
		b := &expBounds[bits.Len64(k)]
		lo += float64(mean * b.lo)
		hi += float64(mean * b.hi)
	}
	// NaN fails every comparison, so it falls through to the replay.
	// With lo ≥ 0, den ∈ [lo, hi] is 0 or positive: a zero den is a
	// success under every caller's rule, and a positive one has
	// sig/den ≥ sig/hi.
	if lo >= 0 && hi <= math.MaxFloat64 && sig >= 0 && sig <= math.MaxFloat64 {
		if sig/hi >= gammaTh {
			*src = s
			return RowSuccess, 0, 0
		}
		if lo > 0 && sig/lo < gammaTh {
			*src = s
			return RowFailure, 0, 0
		}
	}
	den = n0
	for i, mean := range means {
		g := float64(-mean * math.Log(float64(src.Uint64()>>11+1)*0x1p-53))
		if i != self {
			den += g
		}
	}
	return RowUndecided, sig, den
}
