package sched

import (
	"slices"

	"repro/internal/radio"
)

// Accum is the incremental feasibility accumulator every scheduler
// maintains its working interference state in. It tracks, per receiver
// j, the conservative load
//
//	Load(j) = base_j + Σ_{i∈A stored} f_{i,j} + TailBound(j)·Σ_{i∈A unstored} P_i
//
// over the current active set A, where base_j is NoiseTerm(j)
// (NewAccum) or zero (NewInterferenceAccum, for the c₂-budget
// algorithms that account noise in the budget instead). AddLink and
// RemoveLink cost O(significant factors of the link); on the dense
// backend the tail machinery vanishes (TailBound ≡ 0) and the
// accumulator reduces bit-for-bit to the interference vectors the
// algorithms historically kept by hand.
//
// The far-field term charges only *active* truncated senders — tracked
// via actPow (total active power) minus nearPow[j] (active power
// already stored, or belonging to j itself) — so sparse runs stay
// conservative without paying for the n−|A| idle links.
type Accum struct {
	field InterferenceField
	// dense short-circuits AddLink/RemoveLink through a raw row walk
	// when the backend is the exact matrix (nil otherwise).
	dense *DenseField
	// only, when non-nil, limits the dense AddLink walk to these
	// receivers, leaving every other receiver's load meaningless: a
	// selection-restricted greedy reads its candidates' loads and
	// nothing else (see Greedy.scheduleRestricted), a tile solve its
	// members' and the sharded merge its winners' (restrict). Such a
	// scoped walk rents unfilled rows (DenseField.rent) in the epoch
	// restrict drew. Sparse walks ignore it; reset clears it.
	only []int
	// asc holds the senders admit added, in ascending index order: the
	// order insert's admission tests scan the active set in. Only
	// insert fills and reads it, from an accumulator bind or restrict
	// just emptied, so each scratch's accumulator — and with it each
	// tile worker — owns its own, and clones do not carry it.
	asc      []int
	epoch    uint32
	gammaEps float64
	load     []float64
	// nearPow[j] = Σ P_i over active i whose factor on j is stored,
	// plus P_j when j itself is active (a link never far-interferes
	// with its own receiver). Unused (nil) when hasTail is false.
	nearPow []float64
	// tail is the sparse field's per-receiver tail bounds, read in
	// place; tmin and tmax bound it from below and above
	// (prunedInsert's far-field test). Meaningful only when hasTail.
	tail       []float64
	tmin, tmax float64
	actPow     float64
	hasTail    bool
}

// NewAccum returns an accumulator preloaded with each receiver's noise
// term, so Load(j) tracks the full Corollary 3.1 budget usage — the
// form Greedy, Exact, and Repair check against γ_ε.
func NewAccum(pr *Problem) *Accum {
	a := NewInterferenceAccum(pr)
	for j := range a.load {
		a.load[j] = pr.field.NoiseTerm(j)
	}
	return a
}

// NewInterferenceAccum returns an accumulator starting at zero: pure
// accumulated interference, the quantity RLE and DLS compare against
// their c₂-scaled budgets (noise is folded into the budget by the
// headroom analysis instead).
func NewInterferenceAccum(pr *Problem) *Accum {
	a := &Accum{}
	a.reset(pr.field)
	a.gammaEps = pr.GammaEps()
	return a
}

// reset rebinds a to f with an empty active set and zero base load,
// reusing a's buffers when capacity suffices — the scratch-pooled path
// through which a warm Accum is reinitialized without allocating.
func (a *Accum) reset(f InterferenceField) {
	a.bind(f)
	clear(a.load)
	clear(a.nearPow)
}

// bind points a at f with an empty active set, sizing its buffers to
// f's n without clearing them: every load is stale until reset clears
// them all or restrict initializes a scope. A sparse field's tail
// bounds and their extremes are read in place; the dense field
// truncates nothing.
func (a *Accum) bind(f InterferenceField) {
	n := f.N()
	a.field = f
	a.dense, _ = f.(*DenseField)
	a.only = nil
	a.asc = a.asc[:0]
	a.gammaEps = 0
	a.load = floatsIn(&a.load, n)
	a.actPow = 0
	a.tail, a.tmin, a.tmax, a.hasTail = nil, 0, 0, false
	if sf, ok := f.(*SparseField); ok && sf.tailMax > 0 {
		a.tail, a.tmin, a.tmax, a.hasTail = sf.tailCap, sf.tailMin, sf.tailMax, true
	}
	if !a.hasTail {
		a.nearPow = nil
		return
	}
	a.nearPow = floatsIn(&a.nearPow, n)
}

// restrict scopes a to members — one tile's links, the tile winners
// a sharded merge re-inserts, or a selection's listed candidates:
// their loads restart at their noise terms and their nearPow at zero,
// the active power empties, and dense AddLink walks visit members
// only. Every other receiver's load is stale until the next reset —
// each of these solves reads its members' loads and nothing else, so
// it restricts in O(members) instead of resetting in O(n).
func (a *Accum) restrict(members []int) {
	a.only, a.asc, a.actPow = members, a.asc[:0], 0
	if a.dense != nil {
		a.epoch = a.dense.epoch()
	}
	for _, m := range members {
		a.load[m] = a.field.NoiseTerm(m)
		if a.hasTail {
			a.nearPow[m] = 0
		}
	}
}

// AddLink folds sender i into the active set.
func (a *Accum) AddLink(i int) {
	if a.dense != nil {
		if a.only == nil {
			for j, v := range a.dense.row(i) {
				if v > 0 {
					a.load[j] += v
				}
			}
			return
		}
		if row := a.dense.rent(i, len(a.only), a.epoch); row != nil {
			for _, j := range a.only {
				if v := row[j]; v > 0 {
					a.load[j] += v
				}
			}
			return
		}
		for _, j := range a.only {
			if v := a.dense.Factor(i, j); v > 0 {
				a.load[j] += v
			}
		}
		return
	}
	if !a.hasTail {
		a.field.ForEachAffected(i, func(j int, f float64) { a.load[j] += f })
		return
	}
	pi := a.field.PowerOf(i)
	a.field.ForEachAffected(i, func(j int, f float64) {
		a.load[j] += f
		a.nearPow[j] += pi
	})
	a.nearPow[i] += pi
	a.actPow += pi
}

// RemoveLink removes sender i from the active set. Like the manual
// subtract-on-drop bookkeeping it replaces, removal is exact in value
// but not guaranteed to restore prior bits; branch-and-bound style
// searches should Clone before speculative adds instead.
func (a *Accum) RemoveLink(i int) {
	if a.dense != nil {
		for j, v := range a.dense.row(i) {
			if v > 0 {
				a.load[j] -= v
			}
		}
		return
	}
	if !a.hasTail {
		a.field.ForEachAffected(i, func(j int, f float64) { a.load[j] -= f })
		return
	}
	pi := a.field.PowerOf(i)
	a.field.ForEachAffected(i, func(j int, f float64) {
		a.load[j] -= f
		a.nearPow[j] -= pi
	})
	a.nearPow[i] -= pi
	a.actPow -= pi
}

// Load returns receiver j's conservative noise-plus-interference load
// under the current active set.
func (a *Accum) Load(j int) float64 {
	if !a.hasTail {
		return a.load[j]
	}
	far := a.actPow - a.nearPow[j]
	if far <= 0 {
		return a.load[j] // also absorbs rounding residue near zero
	}
	return a.load[j] + a.tail[j]*far
}

// Headroom returns how much of receiver j's γ_ε budget remains
// (negative when over budget).
func (a *Accum) Headroom(j int) float64 {
	return a.gammaEps - a.Load(j)
}

// fits is the Corollary 3.1 admission test every greedy-family loop
// runs: whether sender i can join active with i's own load and every
// active receiver's load plus i's contribution within budget (plus the
// Verify rounding slack). Callers compute budget once per solve — γ_ε,
// or a tile's reserved share of it.
//
// The test is a conjunction over active, and one receiver over budget
// settles it, so fits orders its terms to read as few factors as it
// can; no order changes the verdict. It checks w first — the receiver
// that rejected an earlier candidate of the same insert pass, or -1 —
// then active as given (insert hands it asc, the active set in
// ascending index order, so a dense row is read front to back). On the
// dense field a resident row of i is read in place; an unfilled one is
// read through the scalar kernel, and fits never fills or charges a
// row. It returns the receiver that rejected i (-1 when none did, or
// when i's own load did) and the factor reads it made.
func (a *Accum) fits(p radio.Params, i int, active []int, budget float64, w int) (ok bool, binding, reads int) {
	if !p.InformedBudget(a.Load(i), budget) {
		return false, -1, 0
	}
	var row []float64
	if a.dense != nil {
		row = a.dense.filledRow(i)
	}
	if w >= 0 {
		if a.firstOver(p, row, i, []int{w}, budget) == 0 {
			return false, w, 1
		}
		reads = 1
	}
	if k := a.firstOver(p, row, i, active, budget); k < len(active) {
		return false, active[k], reads + k + 1
	}
	return true, -1, reads + len(active)
}

// firstOver returns the position in js of the first receiver whose
// load plus sender i's contribution exceeds budget, or len(js) when
// none does. row is i's resident dense row, or nil to read i's
// contributions through Contribution.
func (a *Accum) firstOver(p radio.Params, row []float64, i int, js []int, budget float64) int {
	if row != nil {
		// A dense field has no tail: Load(j) is load[j], and i's
		// contribution is its row entry when positive.
		for k, j := range js {
			l := a.load[j]
			if v := row[j]; v > 0 {
				l += v
			}
			if !p.InformedBudget(l, budget) {
				return k
			}
		}
		return len(js)
	}
	for k, j := range js {
		if !p.InformedBudget(a.Load(j)+a.Contribution(i, j), budget) {
			return k
		}
	}
	return len(js)
}

// admit folds sender i into the active set and into asc, the ascending
// copy of the active set insert hands fits.
func (a *Accum) admit(i int) {
	a.AddLink(i)
	k, _ := slices.BinarySearch(a.asc, i)
	a.asc = slices.Insert(a.asc, k, i)
}

// Contribution returns the conservative load delta receiver j would
// see if sender i joined the active set: the stored factor, or the
// tail-bound charge for truncated pairs. Zero for i == j and on exact
// backends' truly-zero pairs.
func (a *Accum) Contribution(i, j int) float64 {
	if i == j {
		return 0
	}
	if f := a.field.Factor(i, j); f > 0 {
		return f
	}
	if a.hasTail {
		return a.tail[j] * a.field.PowerOf(i)
	}
	return 0
}

// Clone returns an independent copy sharing the immutable field and
// tail bounds. It is the speculative-add primitive: searches clone,
// add, and discard rather than add and remove, keeping bit-exact
// backtracking.
func (a *Accum) Clone() *Accum {
	b := &Accum{}
	a.CloneInto(b)
	return b
}

// CloneInto overwrites dst with an independent copy of a, reusing
// dst's buffers — the allocation-free form of Clone for scratch-held
// destinations. Like Clone, the immutable field, tail bounds and
// receiver scope are shared, the mutable load state is copied.
func (a *Accum) CloneInto(dst *Accum) {
	dst.field, dst.dense, dst.only, dst.epoch, dst.gammaEps = a.field, a.dense, a.only, a.epoch, a.gammaEps
	dst.tail, dst.tmin, dst.tmax = a.tail, a.tmin, a.tmax
	dst.actPow, dst.hasTail = a.actPow, a.hasTail
	dst.load = append(dst.load[:0], a.load...)
	if a.nearPow != nil {
		dst.nearPow = append(dst.nearPow[:0], a.nearPow...)
	} else {
		dst.nearPow = nil
	}
}

// CopyFrom overwrites a's state with b's. Both must derive from the
// same field.
func (a *Accum) CopyFrom(b *Accum) {
	copy(a.load, b.load)
	if a.nearPow != nil {
		copy(a.nearPow, b.nearPow)
	}
	a.actPow = b.actPow
}
