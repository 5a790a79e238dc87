package sched

import (
	"sort"

	"repro/internal/geom"
)

// Scratch is the reusable per-solve workspace behind Prepared's
// steady-state zero-allocation hot path. Every buffer an algorithm's
// inner loop needs — pick orderings, alive/usable masks, the active
// set, feasibility accumulators, DLS round state — lives here and is
// resized (never reallocated once warm) at the start of each solve.
//
// A Scratch belongs to exactly one solve at a time and to the
// Prepared handle that checked it out of its sync.Pool, so concurrent
// solves on the same handle never share one. Algorithm.Schedule and
// the package-level ScheduleContext run on a one-shot handle.
type Scratch struct {
	// pp is the owning Prepared, whose shared immutable caches (sender
	// and receiver positions, rule-1 indexes, median length, pick
	// orders) the getters below read.
	pp *Prepared

	sorter pickSorter
	active []int
	alive  []bool
	usable []bool
	acc    Accum
	acc2   Accum
	det    detAccum

	// The tile-sharded solver's partition/merge workspace (shard.go),
	// lazily allocated, and prunedInsert's active-membership marks.
	shard  *shardBufs
	insAct []bool

	// DLS round state.
	state     []dlsState
	retry     []int
	prio      []float64
	undecided []int
	winners   []int
	members   []int
	inWin     []bool
}

// intsIn returns *buf resized to n (contents unspecified), growing the
// backing array only when capacity is short.
func intsIn(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// floatsIn is intsIn for float64 buffers.
func floatsIn(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// intsLikeStates returns *buf resized to n with every element
// dlsUndecided (the zero state).
func intsLikeStates(buf *[]dlsState, n int) []dlsState {
	if cap(*buf) < n {
		*buf = make([]dlsState, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// boolsIn returns *buf resized to n with every element false.
func boolsIn(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// pickSorter stable-sorts positions of a parallel (order, k1, k2)
// triple by k1 ascending, ties by k2 ascending, remaining ties by
// original position (sort.Stable). It replaces sort.SliceStable in the
// solver hot loops: a pointer to a Scratch-resident pickSorter
// converts to sort.Interface without allocating, where SliceStable's
// closure and reflection machinery do not.
type pickSorter struct {
	order  []int
	k1, k2 []float64
}

func (s *pickSorter) Len() int { return len(s.order) }

func (s *pickSorter) Less(a, b int) bool {
	if s.k1[a] != s.k1[b] || s.k2 == nil {
		return s.k1[a] < s.k1[b]
	}
	return s.k2[a] < s.k2[b]
}

func (s *pickSorter) Swap(a, b int) {
	s.order[a], s.order[b] = s.order[b], s.order[a]
	s.k1[a], s.k1[b] = s.k1[b], s.k1[a]
	if s.k2 != nil {
		s.k2[a], s.k2[b] = s.k2[b], s.k2[a]
	}
}

// pickSorterBufs returns the scratch sorter with order = identity and
// one key buffer sized n (keys uninitialized; callers fill then
// sort.Stable). greedyOrder sets up the two-key form itself.
func (s *Scratch) pickSorterBufs(n int) *pickSorter {
	ps := &s.sorter
	ps.order = intsIn(&ps.order, n)
	ps.k1 = floatsIn(&ps.k1, n)
	ps.k2 = nil
	for i := range ps.order {
		ps.order[i] = i
	}
	return ps
}

// activeBuf returns the empty active-set buffer with capacity ≥ n, so
// the pick loops' appends never reallocate.
func (s *Scratch) activeBuf(n int) []int {
	if cap(s.active) < n {
		s.active = make([]int, 0, n)
	}
	return s.active[:0]
}

// zeroAccum returns the scratch interference accumulator reset over
// pr's field with zero base load (the NewInterferenceAccum form).
func (s *Scratch) zeroAccum(pr *Problem) *Accum {
	a := &s.acc
	a.reset(pr.field)
	a.gammaEps = pr.GammaEps()
	return a
}

// noiseAccum is zeroAccum preloaded with each receiver's noise term
// (the NewAccum form).
func (s *Scratch) noiseAccum(pr *Problem) *Accum {
	a := s.zeroAccum(pr)
	for j := range a.load {
		a.load[j] = pr.field.NoiseTerm(j)
	}
	return a
}

// scopedAccum is noiseAccum scoped to members (Accum.restrict): only
// their loads are initialized, in O(len(members)) instead of O(n).
func (s *Scratch) scopedAccum(pr *Problem, members []int) *Accum {
	a := &s.acc
	a.bind(pr.field)
	a.gammaEps = pr.GammaEps()
	a.restrict(members)
	return a
}

// detAccumFor returns the scratch deterministic-gain accumulator reset
// for pr (the ApproxDiversity elimination model).
func (s *Scratch) detAccumFor(pr *Problem) *detAccum {
	d := &s.det
	d.pr = pr
	d.load = floatsIn(&d.load, pr.N())
	clear(d.load)
	return d
}

// sendersOf returns the sender positions of pr's links, from the
// owning Prepared's shared cache.
func (s *Scratch) sendersOf(pr *Problem) []geom.Point { return s.pp.shared.sendersFor(pr) }

// receiversOf returns the receiver positions of pr's links, from the
// owning Prepared's shared cache.
func (s *Scratch) receiversOf(pr *Problem) []geom.Point { return s.pp.shared.receiversFor(pr) }

// rule1Index returns a spatial index over pr's senders with the given
// cell side, cached per side on the owning Prepared (the index is
// immutable and safely shared across concurrent solves).
func (s *Scratch) rule1Index(pr *Problem, side float64) *geom.Index {
	return s.pp.shared.senderIndex(pr, side)
}

// pickKind names one of the pick orders that depend on the link set
// alone, which a Prepared keeps per geometry generation.
type pickKind int

const (
	// greedyPick is Greedy's zero-Selection order: descending rate,
	// ties by ascending length, then by index (greedyOrder).
	greedyPick pickKind = iota
	// eliminationPick is the order RLE and ApproxDiversity share:
	// ascending length, ties by index (sortByLength).
	eliminationPick
	numPickKinds
)

// pickSorts holds each pick kind's sort, which sorts the order into a
// scratch's sorter.
var pickSorts = [numPickKinds]func(*Problem, *Scratch) []int{
	greedyPick:      sortGreedy,
	eliminationPick: sortByLength,
}

// pickOrder returns pr's pick order of the given kind: the owning
// Prepared's shared copy, which the kind's sort fills on first use per
// generation. Callers read it and never write it.
func (s *Scratch) pickOrder(pr *Problem, kind pickKind) []int {
	return s.pp.shared.pickOrder(pr, kind, s)
}

// medianLength returns the median link length, cached per geometry
// generation on the owning Prepared.
func (s *Scratch) medianLength(pr *Problem) float64 { return s.pp.shared.medianLength(pr) }

// finishSchedule copies the raw active set into dst[:0] sorted
// ascending — the normalized Schedule form — leaving the scratch-owned
// source free for reuse. With dst nil a fresh result slice is
// allocated.
func finishSchedule(name string, active, dst []int) Schedule {
	dst = append(dst[:0], active...)
	sort.Ints(dst)
	return Schedule{Active: dst, Algorithm: name}
}
