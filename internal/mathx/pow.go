package mathx

import "math"

// PowKind classifies how a HalfPow evaluates x^{α/2}. Kernel loops
// switch on it once per row so the per-pair body carries no dispatch;
// every branch of Raise is written so that the hoisted loop can inline
// the identical expression and stay bit-compatible with the scalar
// call.
type PowKind int8

const (
	// PowGeneric: math.Pow(x, α/2) — arbitrary α, stdlib accuracy.
	PowGeneric PowKind = iota
	// PowX: α = 2, x^1 — exact.
	PowX
	// PowXSqrtX: α = 3 (the paper default), x·sqrt(x) — one multiply
	// and one square root, ≤ 1 ulp from correctly rounded.
	PowXSqrtX
	// PowX2: α = 4, x² — ≤ 0.5 ulp.
	PowX2
	// PowX3: α = 6, x³ — ≤ 1 ulp.
	PowX3
	// PowSqrt: α = 1, sqrt(x) — correctly rounded.
	PowSqrt
	// PowDD: any other integer 2α in [1, 13] (α ∈ {0.5, 2.5, 3.5, 4.5,
	// 5, 5.5, 6.5}): sqrt(sqrt(x^{2α})) with the integer power carried
	// in a compensated double-double accumulator, ≤ 1 ulp from
	// correctly rounded on the guarded range; outside it (where x^{2α}
	// would leave the normal float64 range) Raise falls back to
	// math.Pow.
	PowDD
)

// String names the evaluation strategy for diagnostics (field-build
// trace spans report which pow specialization a build ran on).
func (k PowKind) String() string {
	switch k {
	case PowGeneric:
		return "generic"
	case PowX:
		return "x"
	case PowXSqrtX:
		return "x_sqrt_x"
	case PowX2:
		return "x2"
	case PowX3:
		return "x3"
	case PowSqrt:
		return "sqrt"
	case PowDD:
		return "dd"
	default:
		return "unknown"
	}
}

// HalfPow evaluates x^{α/2} for a fixed exponent α, specialized at
// construction. The half exponent is the natural form for interference
// kernels: path loss needs d^{-α}, the kernels have d² (no sqrt was
// paid for the distance), and (d²)^{α/2} bridges the two.
//
// Fast paths exist for the integer and half-integer α that path-loss
// models actually use; α = 3 costs one multiply and one sqrt instead
// of a math.Pow call. Every specialized path is within 1 ulp of the
// correctly rounded result (TestHalfPowULP proves it against a
// 256-bit math/big reference), which is tighter than math.Pow itself
// (measured up to 3 ulp on the same corpus): specializing never
// trades accuracy for speed here.
type HalfPow struct {
	kind PowKind
	ta   int32   // 2α, when integer-representable
	half float64 // α/2, the generic exponent
	// [lo, hi]: x range on which powIntDD(x, ta) stays normal, so the
	// PowDD path may be used; outside it Raise degrades to math.Pow.
	lo, hi float64
}

// NewHalfPow builds the evaluator for a fixed α. Any finite α is
// accepted; α outside the specializable set just selects the generic
// math.Pow path.
func NewHalfPow(alpha float64) HalfPow {
	h := HalfPow{kind: PowGeneric, half: alpha / 2}
	ta := alpha * 2
	if ta != math.Trunc(ta) || ta < 1 || ta > 13 {
		return h
	}
	h.ta = int32(ta)
	switch h.ta {
	case 2:
		h.kind = PowSqrt
	case 4:
		h.kind = PowX
	case 6:
		h.kind = PowXSqrtX
	case 8:
		h.kind = PowX2
	case 12:
		h.kind = PowX3
	default:
		h.kind = PowDD
		// x^ta must stay a normal float64 for the double-double
		// carry to keep full precision: 2^±1020 leaves margin to the
		// subnormal/overflow boundaries at 2^-1022 and 2^1024.
		h.lo = math.Pow(2, -1020/ta)
		h.hi = math.Pow(2, 1020/ta)
	}
	return h
}

// Kind reports the selected evaluation strategy.
func (h HalfPow) Kind() PowKind { return h.kind }

// Raise returns x^{α/2} for x ≥ 0. NaN propagates; the specialized
// kinds agree with Raise's generic result to ≤ 1 ulp of correctly
// rounded (see PowKind for the per-kind bounds).
func (h HalfPow) Raise(x float64) float64 {
	switch h.kind {
	case PowXSqrtX:
		return x * math.Sqrt(x)
	case PowX:
		return x
	case PowX2:
		return x * x
	case PowX3:
		return x * x * x
	case PowSqrt:
		return math.Sqrt(x)
	case PowDD:
		if x < h.lo || x > h.hi { // also catches 0, subnormals, NaN
			return math.Pow(x, h.half)
		}
		return math.Sqrt(math.Sqrt(powIntDD(x, int(h.ta))))
	default:
		return math.Pow(x, h.half)
	}
}

// powIntDD computes x^n by binary exponentiation with the running
// product kept as an unevaluated double-double (head + tail) pair,
// using math.FMA to recover each multiplication's rounding error. The
// single rounding happens at the final head+tail collapse, so the
// result is within ~0.5 ulp of the true x^n — accurate enough that
// two subsequent square roots stay within 1 ulp of correctly rounded.
// x must be normal and x^n must stay in the normal range (callers
// guard); n ≥ 1.
func powIntDD(x float64, n int) float64 {
	rh, rl := 1.0, 0.0 // result accumulator
	ph, pl := x, 0.0   // running square
	for {
		if n&1 == 1 {
			h := rh * ph
			e := math.FMA(rh, ph, -h)
			e += rh*pl + rl*ph
			rh = h + e
			rl = e - (rh - h)
		}
		n >>= 1
		if n == 0 {
			return rh + rl
		}
		h := ph * ph
		e := math.FMA(ph, ph, -h)
		e += 2 * ph * pl
		ph = h + e
		pl = e - (ph - h)
	}
}
