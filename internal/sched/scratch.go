package sched

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// Scratch is the reusable per-solve workspace behind Prepared's
// steady-state zero-allocation hot path. Every buffer an algorithm's
// inner loop needs — pick orderings, alive/usable masks, the active
// set, feasibility accumulators, DLS round state — lives here and is
// resized (never reallocated once warm) at the start of each solve.
//
// A Scratch belongs to exactly one solve at a time; Prepared hands
// them out from a sync.Pool so concurrent solves on the same handle
// never share one. The zero value is valid: every getter allocates on
// first use, which is how Algorithm.Schedule and the package-level
// ScheduleContext run (on a fresh Scratch per solve).
type Scratch struct {
	// pp points at the owning Prepared's shared immutable caches
	// (sender index, median length); nil for standalone scratches,
	// which recompute per call exactly as the pre-Prepared code did.
	pp *Prepared

	sorter  pickSorter
	cands   []int // a selection-restricted greedy's candidates, index order
	active  []int
	alive   []bool
	usable  []bool
	lens    []float64
	senders []geom.Point
	recvs   []geom.Point
	acc     Accum
	acc2    Accum
	det     detAccum

	// Tile-sharded solver state (shard.go): the partition/merge
	// workspace, lazily allocated, the tile-local accumulator a
	// worker-checked-out Scratch solves its tiles through, and the
	// pruned insertion loop's active-membership marks.
	shard  *shardBufs
	tacc   tileAccum
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
// key buffers sized n (keys uninitialized; callers fill then
// sort.Stable). twoKeys selects whether the secondary key participates.
func (s *Scratch) pickSorterBufs(n int, twoKeys bool) *pickSorter {
	ps := &s.sorter
	ps.order = intsIn(&ps.order, n)
	ps.k1 = floatsIn(&ps.k1, n)
	if twoKeys {
		ps.k2 = floatsIn(&ps.k2, n)
	} else {
		ps.k2 = nil
	}
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
// shared Prepared cache when available.
func (s *Scratch) sendersOf(pr *Problem) []geom.Point {
	if s.pp != nil {
		return s.pp.shared.sendersFor(pr)
	}
	n := pr.N()
	s.senders = s.senders[:0]
	if cap(s.senders) < n {
		s.senders = make([]geom.Point, 0, n)
	}
	for i := 0; i < n; i++ {
		s.senders = append(s.senders, pr.Links.Link(i).Sender)
	}
	return s.senders
}

// receiversOf returns the receiver positions of pr's links, from the
// shared Prepared cache when available.
func (s *Scratch) receiversOf(pr *Problem) []geom.Point {
	if s.pp != nil {
		return s.pp.shared.receiversFor(pr)
	}
	n := pr.N()
	s.recvs = s.recvs[:0]
	if cap(s.recvs) < n {
		s.recvs = make([]geom.Point, 0, n)
	}
	for i := 0; i < n; i++ {
		s.recvs = append(s.recvs, pr.Links.Link(i).Receiver)
	}
	return s.recvs
}

// rule1Index returns a spatial index over senders with the given cell
// side, cached per side on the Prepared when available (the index is
// immutable and safely shared across concurrent solves).
func (s *Scratch) rule1Index(pr *Problem, senders []geom.Point, side float64) *geom.Index {
	if s.pp != nil {
		return s.pp.shared.senderIndex(pr, side)
	}
	return geom.NewIndex(senders, side)
}

// medianLength returns the median link length, cached per geometry
// generation on the Prepared when available.
func (s *Scratch) medianLength(pr *Problem) float64 {
	if s.pp != nil {
		return s.pp.shared.medianLength(pr)
	}
	n := pr.N()
	lens := floatsIn(&s.lens, n)
	for i := 0; i < n; i++ {
		lens[i] = pr.Links.Length(i)
	}
	return mathx.Median(lens)
}

// finishSchedule copies the raw active set into dst[:0] sorted
// ascending — the normalized Schedule form — leaving the scratch-owned
// source free for reuse. With dst nil a fresh result slice is
// allocated.
func finishSchedule(name string, active, dst []int) Schedule {
	dst = append(dst[:0], active...)
	sort.Ints(dst)
	return Schedule{Active: dst, Algorithm: name}
}
