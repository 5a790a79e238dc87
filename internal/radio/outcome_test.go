package radio

import (
	"math"
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// logOfK is the exponential −ln U a Float64Open draw with integer k
// yields, computed as rng.Source.Exp computes it.
func logOfK(k uint64) float64 { return -math.Log(float64(k) * 0x1p-53) }

// TestExpBoundsBracketLog: every class's bounds bracket −math.Log of
// every k in the class — the 64 lowest and 64 highest k of each class
// b ∈ [1, 54], then 10⁷ random k.
func TestExpBoundsBracketLog(t *testing.T) {
	check := func(k uint64) {
		b := bits.Len64(k)
		e := logOfK(k)
		if bd := expBounds[b]; !(bd.lo <= e && e <= bd.hi) {
			t.Fatalf("k=%d (class %d): −ln U = %v outside [%v, %v]", k, b, e, bd.lo, bd.hi)
		}
	}
	for b := 1; b <= 54; b++ {
		first, last := uint64(1)<<(b-1), min(uint64(1)<<b-1, 1<<53)
		for d := uint64(0); d < 64 && first+d <= last; d++ {
			check(first + d)
			check(last - d)
		}
	}
	src := rng.New(17)
	for i := 0; i < 10_000_000; i++ {
		check(src.Uint64()>>11 + 1)
	}
}

// TestExpBoundsMarginNeeded: without the 2⁻⁴⁰ margin the upper bound
// would be wrong. At the lower end of some classes, where −ln U equals
// (54−b)·ln2 in exact arithmetic, math.Log overshoots the rounded
// product by one ulp (measured on linux/amd64, whose math.Log is
// assembly; other ports may round differently).
func TestExpBoundsMarginNeeded(t *testing.T) {
	over, maxRel := 0, 0.0
	for b := 1; b <= 53; b++ {
		e := logOfK(1 << (b - 1))
		bare := float64(54-b) * math.Ln2
		if e > bare {
			over++
			if e != math.Nextafter(bare, math.Inf(1)) {
				t.Errorf("class %d: −ln U = %v overshoots (54−b)·ln2 = %v by more than one ulp", b, e, bare)
			}
			maxRel = max(maxRel, (e-bare)/bare)
		}
	}
	t.Logf("%d classes overshoot the unmargined bound, max relative excess %.3g", over, maxRel)
	if over == 0 && runtime.GOARCH == "amd64" {
		t.Error("no class overshoots (54−b)·ln2: the margin is no longer exercised")
	}
}

// exactRow is the draw-and-compare loop RowOutcome replaces: one
// exponential per sender stored as a gain, the denominator summed in
// row order without self. It is the reference the differential and
// fuzz tests compare against.
func exactRow(src *rng.Source, means []float64, self int, n0 float64) (sig, den float64) {
	gains := make([]float64, len(means))
	for i, mean := range means {
		gains[i] = src.Exp(mean)
	}
	den = n0
	for i, g := range gains {
		if i != self {
			den += g
		}
	}
	return gains[self], den
}

// The two callers' comparison rules on the exact row. They differ only
// when den or sig/den is NaN.
func mcFailed(sig, den, gammaTh float64) bool  { return den > 0 && sig/den < gammaTh }
func trafficOK(sig, den, gammaTh float64) bool { return den == 0 || sig/den >= gammaTh }

// checkRow runs RowOutcome and the exact loop on one row from the same
// stream state and fails t unless every caller's verdict and the
// stream's end state agree. It returns RowOutcome's verdict.
func checkRow(t *testing.T, seed uint64, means []float64, self int, n0, gammaTh float64) RowVerdict {
	t.Helper()
	var src, ref rng.Source
	rng.StreamInto(&src, seed, "row", 0)
	ref = src
	v, sig, den := RowOutcome(&src, means, self, n0, gammaTh)
	wantSig, wantDen := exactRow(&ref, means, self, n0)
	if src != ref {
		t.Fatalf("stream end state differs from the exact loop's (len %d, self %d)", len(means), self)
	}
	failed, ok := v == RowFailure, v == RowSuccess
	if v == RowUndecided {
		if !sameFloat(sig, wantSig) || !sameFloat(den, wantDen) {
			t.Fatalf("replay (sig %v, den %v) differs from the exact loop (%v, %v)", sig, den, wantSig, wantDen)
		}
		failed, ok = mcFailed(sig, den, gammaTh), trafficOK(sig, den, gammaTh)
	}
	if want := mcFailed(wantSig, wantDen, gammaTh); failed != want {
		t.Fatalf("len %d self %d n0 %v γ %v: MC failed = %v (verdict %d), exact %v (sig %v, den %v)",
			len(means), self, n0, gammaTh, failed, v, want, wantSig, wantDen)
	}
	if want := trafficOK(wantSig, wantDen, gammaTh); ok != want {
		t.Fatalf("len %d self %d n0 %v γ %v: traffic success = %v (verdict %d), exact %v (sig %v, den %v)",
			len(means), self, n0, gammaTh, ok, v, want, wantSig, wantDen)
	}
	return v
}

// sameFloat reports bit equality, treating every NaN as equal (no
// comparison tells NaN payloads apart).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// randomRow draws a row of length 1–300 from src: means log-uniform
// over 10^±spread around 10^center, with an occasional 0 or +Inf when
// specials is set.
func randomRow(src *rng.Source, length int, center, spread float64, specials bool) []float64 {
	means := make([]float64, length)
	for i := range means {
		means[i] = math.Pow(10, center+spread*(2*src.Float64()-1))
		if specials {
			switch src.IntN(40) {
			case 0:
				means[i] = 0
			case 1:
				means[i] = math.Inf(1)
			}
		}
	}
	return means
}

// TestRowOutcomeMatchesExact: random rows against the exact loop under
// both callers' rules. Paper-like rows (interferer means a few orders
// below the signal, so the SINR sits near γ_th) exercise the replay;
// rows spanning 10^±300 with zeros and infinities exercise the NaN and
// overflow fall-throughs.
func TestRowOutcomeMatchesExact(t *testing.T) {
	src := rng.New(5)
	var verdicts [3]int
	for trial := 0; trial < 20000; trial++ {
		length := 1 + src.IntN(300)
		self := src.IntN(length)
		var means []float64
		wide := trial%4 == 3
		if wide {
			means = randomRow(src, length, 0, 300, true)
		} else {
			means = randomRow(src, length, -4, 1.5, false)
			// Put the signal near the interference sum so outcomes split.
			sum := 0.0
			for i, m := range means {
				if i != self {
					sum += m
				}
			}
			means[self] = sum * math.Pow(10, 2*src.Float64()-1)
		}
		n0 := 0.0
		if trial%2 == 1 {
			n0 = means[self] * math.Pow(10, -3*src.Float64())
		}
		gammaTh := []float64{1, 0.5, 2}[trial%3]
		verdicts[checkRow(t, uint64(trial), means, self, n0, gammaTh)]++
	}
	t.Logf("verdicts: %d undecided, %d success, %d failure", verdicts[RowUndecided], verdicts[RowSuccess], verdicts[RowFailure])
	for v, c := range verdicts {
		if c == 0 {
			t.Errorf("no row got verdict %d: that path is untested", v)
		}
	}
}

// FuzzRowOutcome: any row of non-negative means, any noise and
// threshold (negative, zero, NaN and infinite included), gives every
// caller the exact loop's verdict.
func FuzzRowOutcome(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(0), uint8(0), 0.0, 1.0)
	f.Add(uint64(2), uint16(2), uint16(1), uint8(3), 0.0, 1.0)
	f.Add(uint64(3), uint16(146), uint16(70), uint8(2), 1e-9, 1.0)
	f.Add(uint64(4), uint16(299), uint16(298), uint8(200), 0.0, 1.0)
	f.Add(uint64(5), uint16(40), uint16(0), uint8(255), 1e300, 0.5)
	f.Add(uint64(6), uint16(9), uint16(4), uint8(1), math.NaN(), 1.0)
	f.Add(uint64(7), uint16(9), uint16(4), uint8(1), math.Inf(1), 1.0)
	f.Add(uint64(8), uint16(12), uint16(3), uint8(4), -1e-3, 1.0)
	f.Add(uint64(9), uint16(30), uint16(29), uint8(6), 0.0, math.Inf(1))
	f.Add(uint64(10), uint16(30), uint16(5), uint8(6), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, length, self uint16, spread uint8, n0, gammaTh float64) {
		l := 1 + int(length)%300
		src := rng.New(seed)
		means := randomRow(src, l, 0, float64(spread)*300/255, spread%2 == 1)
		checkRow(t, seed, means, int(self)%l, n0, gammaTh)
	})
}
