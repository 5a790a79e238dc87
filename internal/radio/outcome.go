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
	// RowOutcomeBounds leaves the stream where it was instead.
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
	if v := certify(sig, lo, hi, gammaTh); v != RowUndecided {
		*src = s
		return v, 0, 0
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

// RowOutcomeBounds is RowOutcome for a caller that holds only bounds
// on the interferers' mean gains: lo[i] ≤ mean_i ≤ hi[i], non-negative,
// with lo[self] = hi[self] the signal's exact mean. The row draws the
// same values, and each interferer's term is bracketed by its mean's
// bounds times its exponential's, so the certificate holds as before.
// A decided row advances src by one row. An undecided one leaves src
// where it was, and the caller decides it with RowOutcome over the
// exact means from the same stream state.
func RowOutcomeBounds(src *rng.Source, lo, hi []float64, self int, n0, gammaTh float64) RowVerdict {
	s := *src
	hi = hi[:len(lo)]
	dlo, dhi := n0, n0
	var sig float64
	for i, l := range lo {
		k := s.Uint64()>>11 + 1
		if i == self {
			sig = float64(-l * math.Log(float64(k)*0x1p-53))
			continue
		}
		b := &expBounds[bits.Len64(k)]
		dlo += float64(l * b.lo)
		dhi += float64(hi[i] * b.hi)
	}
	v := certify(sig, dlo, dhi, gammaTh)
	if v != RowUndecided {
		*src = s
	}
	return v
}

// certify decides a row from its signal and the bounds lo ≤ den ≤ hi
// on its denominator, or returns RowUndecided. NaN fails every
// comparison, so it stays undecided. With lo ≥ 0, den ∈ [lo, hi] is 0
// or positive: a zero den is a success under every caller's rule, and
// a positive one has sig/den ≥ sig/hi.
func certify(sig, lo, hi, gammaTh float64) RowVerdict {
	if lo >= 0 && hi <= math.MaxFloat64 && sig >= 0 && sig <= math.MaxFloat64 {
		if sig/hi >= gammaTh {
			return RowSuccess
		}
		if lo > 0 && sig/lo < gammaTh {
			return RowFailure
		}
	}
	return RowUndecided
}

// meanMargin is MeanBracket's relative margin on each table entry.
const meanMargin = 0x1p-36

// maxBracketAlpha is the largest path-loss exponent MeanBracket
// covers; beyond it callers compute exact means.
const maxBracketAlpha = 10

// MeanBracket brackets the mean received power P·d^{−α} of a sender
// from its squared distance d² = dx²+dy² to the receiver without a
// square root or a math.Pow: with d² = (1+f)·2^E,
//
//	d^{−α} = 2^{−E·α/2} · (1+f)^{−α/2},
//
// and two tables hold the factors — one indexed by d²'s biased
// exponent, one by the top eight bits of its mantissa, whose bucket
// [b/256, (b+1)/256) brackets f. Each entry carries a 2⁻³⁶ relative
// margin, far above the error of the exact path
// (Params.MeanGainP(P, math.Hypot(dx, dy)): d²'s own rounding, the
// hypotenuse's, and math.Pow's, amplified at most α-fold) and far
// below the bucket width. Exponent entries outside [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰]
// are refused, so every bracketed d^{−α} and its reciprocal stay
// normal; THEORY §8 gives the argument.
type MeanBracket struct {
	exp [2048]struct{ lo, hi float64 } // by d²'s biased exponent
	man [256]struct{ lo, hi float64 }  // by d²'s top 8 mantissa bits
}

// MeanBracket builds the bracket tables for p's α, or returns nil when
// α lies outside the covered [2.05, 10] (the validated minimum to the
// largest exponent the soundness test checks).
func (p Params) MeanBracket() *MeanBracket {
	a := p.Alpha
	if !(a >= 2.05 && a <= maxBracketAlpha) {
		return nil
	}
	t := &MeanBracket{}
	for b := range t.man {
		t.man[b].lo = math.Pow(1+float64(b+1)/256, -a/2) * (1 - meanMargin)
		t.man[b].hi = math.Pow(1+float64(b)/256, -a/2) * (1 + meanMargin)
	}
	for e := range t.exp {
		// Biased exponent 0 (zero, subnormal) and 2047 (Inf, NaN) keep
		// the refused entry, as does any 2^x out of range.
		t.exp[e].hi = math.Inf(1)
		if x := -float64(e-1023) * a / 2; e > 0 && e < 2047 && math.Abs(x) <= 1000 {
			v := math.Exp2(x)
			t.exp[e].lo, t.exp[e].hi = v*(1-meanMargin), v*(1+meanMargin)
		}
	}
	return t
}

// Bounds brackets MeanGainP(power, √d2): lo ≤ mean ≤ hi. ok is false —
// the caller computes the exact mean — when d2 is zero, subnormal,
// infinite or NaN, when its exponent entry is refused, or when a bound
// leaves the normal range.
func (t *MeanBracket) Bounds(power, d2 float64) (lo, hi float64, ok bool) {
	u := math.Float64bits(d2)
	e, m := &t.exp[u>>52&0x7ff], &t.man[u>>44&0xff]
	lo = power * float64(e.lo*m.lo)
	hi = power * float64(e.hi*m.hi)
	return lo, hi, lo >= 0x1p-1022 && hi <= math.MaxFloat64
}
