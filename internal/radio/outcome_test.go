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

// checkRow decides one row the way the traffic engine does — first
// with RowOutcomeBounds over [lo, hi] when lo is non-nil, then, if that
// leaves it undecided, with RowOutcome over the exact means — and runs
// the exact loop from the same stream state. It fails t unless every
// caller's verdict and the stream's end state agree, and unless an
// undecided bracketed row left the stream where it was. It returns the
// first call's verdict.
func checkRow(t *testing.T, seed uint64, lo, hi, means []float64, self int, n0, gammaTh float64) RowVerdict {
	t.Helper()
	var src, ref rng.Source
	rng.StreamInto(&src, seed, "row", 0)
	ref = src
	wantSig, wantDen := exactRow(&ref, means, self, n0)
	var v RowVerdict
	var sig, den float64
	first := RowUndecided
	if lo != nil {
		start := src
		v = RowOutcomeBounds(&src, lo, hi, self, n0, gammaTh)
		if first = v; v == RowUndecided && src != start {
			t.Fatalf("an undecided bracketed row advanced the stream (len %d, self %d)", len(means), self)
		}
	}
	if v == RowUndecided {
		v, sig, den = RowOutcome(&src, means, self, n0, gammaTh)
		if lo == nil {
			first = v
		}
	}
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
	return first
}

// widen brackets each interferer's mean by a random relative width up
// to w (w < 1) on either side; the signal keeps its exact mean as both
// bounds, as every caller passes it.
func widen(src *rng.Source, means []float64, self int, w float64) (lo, hi []float64) {
	lo, hi = make([]float64, len(means)), make([]float64, len(means))
	for i, m := range means {
		lo[i], hi[i] = m, m
		if i != self {
			lo[i] = m * (1 - w*src.Float64())
			hi[i] = m * (1 + w*src.Float64())
		}
	}
	return lo, hi
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
// both callers' rules, each decided from its exact means and from
// bracketed means of four widths. Paper-like rows (interferer means a
// few orders below the signal, so the SINR sits near γ_th) exercise
// the replay;
// rows spanning 10^±300 with zeros and infinities exercise the NaN and
// overflow fall-throughs.
func TestRowOutcomeMatchesExact(t *testing.T) {
	src := rng.New(5)
	var verdicts [2][3]int // exact, then bracketed means
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
		verdicts[0][checkRow(t, uint64(trial), nil, nil, means, self, n0, gammaTh)]++
		lo, hi := widen(src, means, self, []float64{0x1p-30, 1e-3, 0.05, 0.5}[trial%4])
		verdicts[1][checkRow(t, uint64(trial), lo, hi, means, self, n0, gammaTh)]++
	}
	for form, vs := range verdicts {
		t.Logf("%s means: %d undecided, %d success, %d failure", []string{"exact", "bracketed"}[form], vs[RowUndecided], vs[RowSuccess], vs[RowFailure])
		for v, c := range vs {
			if c == 0 {
				t.Errorf("no row got verdict %d with %s means: that path is untested", v, []string{"exact", "bracketed"}[form])
			}
		}
	}
}

// FuzzRowOutcome: any row of non-negative means, any noise and
// threshold (negative, zero, NaN and infinite included), and any mean
// bracket of relative width below 1 (0: the exact means alone) gives
// every caller the exact loop's verdict.
func FuzzRowOutcome(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint16(0), uint8(0), 0.0, 1.0, 0.0)
	f.Add(uint64(2), uint16(2), uint16(1), uint8(3), 0.0, 1.0, 0.0)
	f.Add(uint64(3), uint16(146), uint16(70), uint8(2), 1e-9, 1.0, 0.0)
	f.Add(uint64(4), uint16(299), uint16(298), uint8(200), 0.0, 1.0, 0.0)
	f.Add(uint64(5), uint16(40), uint16(0), uint8(255), 1e300, 0.5, 0.0)
	f.Add(uint64(6), uint16(9), uint16(4), uint8(1), math.NaN(), 1.0, 0.0)
	f.Add(uint64(7), uint16(9), uint16(4), uint8(1), math.Inf(1), 1.0, 0.0)
	f.Add(uint64(8), uint16(12), uint16(3), uint8(4), -1e-3, 1.0, 0.0)
	f.Add(uint64(9), uint16(30), uint16(29), uint8(6), 0.0, math.Inf(1), 0.0)
	f.Add(uint64(10), uint16(30), uint16(5), uint8(6), 0.0, 0.0, 0.0)
	f.Add(uint64(11), uint16(146), uint16(70), uint8(2), 1e-9, 1.0, 0x1p-36)
	f.Add(uint64(12), uint16(60), uint16(7), uint8(3), 0.0, 1.0, 0.01)
	f.Add(uint64(13), uint16(200), uint16(100), uint8(255), 0.0, 2.0, 0.5)
	// Rows with a wide bracket whose verdicts turn on the interferers'
	// upper (a success) and lower (a failure) mean bounds.
	f.Add(uint64(1), uint16(1), uint16(12), uint8(11), -0.002, 101.0, 0.5)
	f.Add(uint64(3), uint16(7), uint16(12), uint8(11), -0.002, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, seed uint64, length, self uint16, spread uint8, n0, gammaTh, width float64) {
		l := 1 + int(length)%300
		src := rng.New(seed)
		means := randomRow(src, l, 0, float64(spread)*300/255, spread%2 == 1)
		var lo, hi []float64
		if width = math.Abs(width); width > 0 && width < 1 {
			lo, hi = widen(src, means, int(self)%l, width)
		}
		checkRow(t, seed, lo, hi, means, int(self)%l, n0, gammaTh)
	})
}

// TestMeanBracketContainsMeanGain: for α ∈ {2.05, 3, 4, 4.5, 6, 10}
// and P ∈ [10⁻³, 10³], every bracket MeanBracket.Bounds grants contains
// the exact mean Params.MeanGainP(P, hypot(dx, dy)) — at 10⁷ random
// pairs (distances from 10⁻¹⁶⁰ to 10¹⁶⁰, half of them in the range real
// deployments use, where every pair must be bracketed) and at both
// sides of every exponent and mantissa-bucket edge of d². Zero,
// subnormal, infinite and NaN d², exponent entries out of range and
// bounds leaving the normal range are refused, and α outside
// [2.05, 10] builds no tables.
func TestMeanBracketContainsMeanGain(t *testing.T) {
	alphas := []float64{2.05, 3, 4, 4.5, 6, 10}
	check := func(p Params, br *MeanBracket, power, dx, dy float64) bool {
		lo, hi, ok := br.Bounds(power, dx*dx+dy*dy)
		if !ok {
			return false
		}
		if mean := p.MeanGainP(power, math.Hypot(dx, dy)); !(lo <= mean && mean <= hi) {
			t.Fatalf("α=%v P=%v dx=%v dy=%v: mean %v outside [%v, %v]", p.Alpha, power, dx, dy, mean, lo, hi)
		}
		return true
	}
	src := rng.New(29)
	logUniform := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*src.Float64()) }
	const pairs = 10_000_000
	for k, a := range alphas {
		p := DefaultParams()
		p.Alpha = a
		br := p.MeanBracket()
		if br == nil {
			t.Fatalf("α=%v: no bracket tables", a)
		}
		granted := 0
		for trial := 0; trial < pairs/len(alphas); trial++ {
			power := logUniform(-3, 3)
			realistic := trial%2 == 0
			var d float64
			if realistic {
				d = logUniform(-3, 6)
			} else {
				d = logUniform(-160, 160)
			}
			theta := 2 * math.Pi * src.Float64()
			dx, dy := d*math.Cos(theta), d*math.Sin(theta)
			if trial%7 == 0 {
				dx, dy = d, 0 // axis-aligned: d² is one rounded square
			}
			if check(p, br, power, dx, dy) {
				granted++
			} else if realistic {
				t.Fatalf("α=%v P=%v d=%v: a deployment-range pair was refused", a, power, d)
			}
		}
		// Both sides of every exponent and mantissa-bucket edge: dx is
		// the root of the edge and its neighbours, so dx² lands on
		// either side of it.
		for e := 1; e < 2047; e++ {
			for b := 0; b < 256; b++ {
				edge := math.Ldexp(1+float64(b)/256, e-1023)
				power := []float64{1e-3, 1, 1e3}[(e+b+k)%3]
				r := math.Sqrt(edge)
				check(p, br, power, r, 0)
				check(p, br, power, math.Nextafter(r, 0), 0)
				check(p, br, power, math.Nextafter(r, math.Inf(1)), 0)
			}
		}
		t.Logf("α=%v: %d of %d random pairs bracketed", a, granted, pairs/len(alphas))

		for _, c := range []struct {
			name        string
			power, d2   float64
			wantRefusal bool
		}{
			{"d²=0", 1, 0, true},
			{"subnormal d²", 1, 0x1p-1060, true},
			{"infinite d²", 1, math.Inf(1), true},
			{"NaN d²", 1, math.NaN(), true},
			// 2^{−E·α/2} beyond 2^{±1000}, d² itself normal.
			{"exponent entry overflows", 1, math.Ldexp(1, -int(2000/a)-10), true},
			{"exponent entry underflows", 1, math.Ldexp(1, int(2000/a)+10), true},
			{"bound overflows", 1e300, 1e-12, true},
			{"bound underflows", 1e-300, 1e12, true},
			{"paper scale", 1, 2500, false},
		} {
			if _, _, ok := br.Bounds(c.power, c.d2); ok == c.wantRefusal {
				t.Errorf("α=%v %s: ok = %v", a, c.name, ok)
			}
		}
	}
	for _, a := range []float64{2, 10.5, math.NaN()} {
		p := DefaultParams()
		p.Alpha = a
		if p.MeanBracket() != nil {
			t.Errorf("α=%v: bracket tables built outside [2.05, 10]", a)
		}
	}
}
