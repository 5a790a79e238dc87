package radio

import (
	"math"
	"testing"
)

// fillBenchN is sized so the matrix (n² float64 = 32 MB) exceeds LLC,
// matching a fully resident n=2000 dense field.
const fillBenchN = 2000

func fillBenchInputs(n int) (k FieldKernel, pi, sx, sy, rx, ry, K []float64) {
	p := DefaultParams()
	k = p.FieldKernel()
	pi = make([]float64, n)
	sx = make([]float64, n)
	sy = make([]float64, n)
	rx = make([]float64, n)
	ry = make([]float64, n)
	K = make([]float64, n)
	// Deterministic scatter over a 500-unit region with ~[5,20] links
	// (the paper deployment's shape) via a fixed LCG.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		pi[i] = p.EffectivePower(0)
		sx[i] = 500 * next()
		sy[i] = 500 * next()
		length := 5 + 15*next()
		angle := 2 * math.Pi * next()
		rx[i] = sx[i] + length*math.Cos(angle)
		ry[i] = sy[i] + length*math.Sin(angle)
		K[i] = k.ReceiverConst(pi[i], length)
	}
	return k, pi, sx, sy, rx, ry, K
}

// BenchmarkFieldFillRows times the dense row fill, FactorRow, over a
// whole n×n matrix: the cost a dense field pays once every sender row
// is resident (`make bench-field`).
func BenchmarkFieldFillRows(b *testing.B) {
	k, pi, sx, sy, rx, ry, K := fillBenchInputs(fillBenchN)
	out := make([]float64, fillBenchN*fillBenchN)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := 0; i < fillBenchN; i++ {
			k.FactorRow(pi[i], sx[i], sy[i], rx, ry, K, i, out[i*fillBenchN:(i+1)*fillBenchN])
		}
	}
}
