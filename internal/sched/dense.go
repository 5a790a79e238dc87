package sched

import (
	"sync/atomic"

	"repro/internal/network"
	"repro/internal/radio"
)

// DenseField is the exact interference backend: the row-major n×n
// factor matrix, the original Problem representation, filled one
// sender row at a time on first use. Corollary 3.1 only ever sums
// f_ij over active senders, so a solve reads the rows of the links it
// admits and little else; building the matrix up front would pay n²
// factor evaluations for a few percent of them. Construction is
// therefore O(n): it hoists the flat SoA kernel inputs (sender and
// receiver coordinates, the per-receiver constant K_j = γ_th·d_jj^α/p_j)
// from the LinkSet and nothing more.
//
// row(i) — behind Accum.AddLink and ForEachAffected — fills sender
// i's row with radio.FieldKernel.FactorRow the first time it is asked
// for and publishes it with one atomic compare-and-swap. Solves
// sharing a Prepared therefore never lock and never see a half-filled
// row; when two race to fill the same row, the loser adopts the
// winner's and drops its own bit-identical copy. Factor(i, j) reads a
// resident row, or else evaluates the scalar FieldKernel.Factor
// without filling: the kernel consistency contract makes the two
// bit-identical, so a field's answers never depend on which rows
// happen to be resident.
//
// A scoped walk — an AddLink that needs only m receivers' entries: a
// restricted selection's, a greedy-sharded tile's or its merge's — rents
// instead of buying: on an unfilled row it evaluates its m entries
// with the scalar kernel and charges m to the row (rent). Charges
// expire: every n scoped solves on the field make an epoch, and a row
// fills and publishes as above only when one epoch's walks charge it
// n. Within an epoch scoped work on a row never exceeds twice the fill
// it replaces, so across the field renting costs, amortized, under n
// scalar evaluations per scoped solve; and a row that light traffic
// touches now and then never becomes resident, however many runs the
// field serves.
type DenseField struct {
	ls     *network.LinkSet
	params radio.Params
	kern   radio.FieldKernel
	// rows[i] is sender i's factor row once filled (nil before):
	// (*rows[i])[j] = f_{i,j}, 0 on the diagonal per Eq. 17, computed
	// with each link's effective transmit power. resident counts the
	// filled rows.
	rows     []atomic.Pointer[[]float64]
	resident atomic.Int64
	// charge[i] holds, in its low 32 bits, the receivers scoped walks
	// evaluated with the scalar kernel for unfilled row i in the epoch
	// its high 32 bits name (see rent). scoped counts the scoped solves
	// bound to the field so far (epoch).
	charge []atomic.Uint64
	scoped atomic.Int64
	noise  []float64
	power  []float64
	// Flat kernel inputs: sender and receiver coordinates, and the
	// hoisted per-receiver constant K.
	sx, sy []float64
	rx, ry []float64
	kc     []float64
	n      int
}

func newDenseField(ls *network.LinkSet, p radio.Params) *DenseField {
	n := ls.Len()
	f := &DenseField{
		ls: ls, params: p, kern: p.FieldKernel(), n: n,
		rows:   make([]atomic.Pointer[[]float64], n),
		charge: make([]atomic.Uint64, n),
		noise:  make([]float64, n),
		power:  make([]float64, n),
		sx:     make([]float64, n),
		sy:     make([]float64, n),
		rx:     make([]float64, n),
		ry:     make([]float64, n),
		kc:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.power[i] = p.EffectivePower(ls.Power(i))
		f.bindGeometry(ls, i)
	}
	return f
}

// bindGeometry refreshes link i's kernel inputs (coordinates, noise
// term, receiver constant) from ls. Power must already be current.
func (f *DenseField) bindGeometry(ls *network.LinkSet, i int) {
	l := ls.Link(i)
	f.sx[i], f.sy[i] = l.Sender.X, l.Sender.Y
	f.rx[i], f.ry[i] = l.Receiver.X, l.Receiver.Y
	f.noise[i] = f.params.NoiseFactorP(f.power[i], ls.Length(i))
	f.kc[i] = f.kern.ReceiverConst(f.power[i], ls.Length(i))
}

// N implements InterferenceField.
func (f *DenseField) N() int { return f.n }

// Factor implements InterferenceField: the resident row's entry, or
// the scalar kernel on the same operands when row i is not filled.
func (f *DenseField) Factor(i, j int) float64 {
	if r := f.filledRow(i); r != nil {
		return r[j]
	}
	if i == j {
		return 0
	}
	dx := f.rx[j] - f.sx[i]
	dy := f.ry[j] - f.sy[i]
	return f.kern.Factor(f.power[i]*f.kc[j], dx*dx+dy*dy)
}

// NoiseTerm implements InterferenceField.
func (f *DenseField) NoiseTerm(j int) float64 { return f.noise[j] }

// PowerOf implements InterferenceField.
func (f *DenseField) PowerOf(i int) float64 { return f.power[i] }

// TailBound implements InterferenceField: the dense backend truncates
// nothing.
func (f *DenseField) TailBound(int) float64 { return 0 }

// ForEachAffected implements InterferenceField (a row scan).
func (f *DenseField) ForEachAffected(i int, fn func(j int, fij float64)) {
	for j, v := range f.row(i) {
		if v > 0 {
			fn(j, v)
		}
	}
}

// Bytes implements InterferenceField: 8n per resident row, plus the
// seven per-link float64 inputs, the row pointer and the fill charge.
func (f *DenseField) Bytes() int64 {
	return 8 * int64(f.n) * (f.resident.Load() + 7 + 1 + 1)
}

// ResidentRows reports how many sender rows have been filled so far.
func (f *DenseField) ResidentRows() int { return int(f.resident.Load()) }

// filledRow returns sender i's factor row when it is filled, else nil.
// It never fills or charges the row: the admission test and Assess
// read a resident row in place and an unfilled one through Factor's
// scalar kernel.
func (f *DenseField) filledRow(i int) []float64 {
	if r := f.rows[i].Load(); r != nil {
		return *r
	}
	return nil
}

// row returns sender i's factor row, filling and publishing it on
// first use; the accumulators' dense fast path walks it directly
// instead of paying a closure call per entry.
func (f *DenseField) row(i int) []float64 {
	if r := f.filledRow(i); r != nil {
		return r
	}
	r := make([]float64, f.n)
	f.kern.FactorRow(f.power[i], f.sx[i], f.sy[i], f.rx, f.ry, f.kc, i, r)
	if !f.rows[i].CompareAndSwap(nil, &r) {
		return *f.rows[i].Load()
	}
	f.resident.Add(1)
	return r
}

// epoch counts one scoped solve on f and returns the epoch it falls
// in: the scoped solves before it, in whole multiples of n.
func (f *DenseField) epoch() uint32 {
	return uint32((f.scoped.Add(1) - 1) / int64(f.n))
}

// rent serves a scoped walk of epoch e over m receivers of sender i:
// the resident row, or nil while the row's charges in e — m for this
// walk plus every earlier scoped walk's of e — stay below n, leaving
// the walk to the scalar kernel. The walk that brings them to n fills
// and publishes the row through row(i) instead: renting costs under n
// scalar evaluations per epoch before the n-entry fill that buying
// would have paid up front. Charges of an earlier epoch count as zero.
func (f *DenseField) rent(i, m int, e uint32) []float64 {
	if r := f.filledRow(i); r != nil {
		return r
	}
	for {
		c := f.charge[i].Load()
		spent := uint64(m)
		if uint32(c>>32) == e {
			spent += c & 0xffffffff
		}
		if spent >= uint64(f.n) {
			return f.row(i)
		}
		if f.charge[i].CompareAndSwap(c, uint64(e)<<32|spent) {
			return nil
		}
	}
}

// rebind implements the incremental-update hook used by
// Problem.Rebind: the moved links' kernel inputs are refreshed, their
// rows are dropped and their charges zeroed (the next reader refills
// them against the new geometry), and their columns are patched in the
// rows that stay resident — O(|moved|·resident) instead of a rebuild
// that would drop every filled row. All links keep their identities
// (count, rates, powers); only positions may differ.
//
// The column patch runs the scalar Factor on the same squared-distance
// expression FactorRow uses, so the kernel consistency contract makes
// every entry bit-identical to a from-scratch build of the new
// geometry.
func (f *DenseField) rebind(ls *network.LinkSet, moved []int) {
	f.ls = ls
	for _, i := range moved {
		f.power[i] = f.params.EffectivePower(ls.Power(i))
		f.bindGeometry(ls, i)
		f.charge[i].Store(0)
		if f.rows[i].Swap(nil) != nil {
			f.resident.Add(-1)
		}
	}
	for q := range f.rows {
		r := f.rows[q].Load()
		if r == nil {
			continue
		}
		row := *r
		for _, i := range moved {
			dx := f.rx[i] - f.sx[q]
			dy := f.ry[i] - f.sy[q]
			row[i] = f.kern.Factor(f.power[q]*f.kc[i], dx*dx+dy*dy)
		}
	}
}
