package sched

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
)

// SparseOptions configures the sparse interference backend.
type SparseOptions struct {
	// Cutoff is the smallest per-sender interference factor worth
	// storing exactly. Every pair whose factor could reach Cutoff is
	// materialized; everything farther is covered by the conservative
	// TailBound, so each truncated active sender costs a receiver at
	// most Cutoff of its γ_ε budget. Zero means DefaultSparseCutoffFrac
	// of γ_ε. Must not be negative.
	Cutoff float64
	// Workers bounds construction parallelism; zero means GOMAXPROCS.
	Workers int
}

// DefaultSparseCutoffFrac is the default Cutoff as a fraction of γ_ε:
// 10⁻⁴ keeps the truncation error below 1% of the budget for active
// sets of up to 100 far links per receiver, which covers every
// deployment density the evaluation sweeps.
const DefaultSparseCutoffFrac = 1e-4

// SparseField stores only near-field interference factors and budgets
// the truncated far field with the provable per-unit-power cap of
// radio.Params.FarFieldCap (the same ring-summation reasoning behind
// the LDP/RLE constants): a sender beyond receiver j's truncation
// radius R_j contributes at most P_i·γ_th·d_jj^α/(P_j·R_j^α) ≤ Cutoff.
// Feasibility answers read through it are therefore conservative-only —
// a schedule the sparse field admits is feasible under the exact dense
// factors, while memory and construction scale with the number of
// significant pairs instead of n².
//
// Construction is a sender-major fused pass: receivers are bucketed
// into a geom.CellGrid (CSR layout, no maps), ordered by descending
// truncation radius within each cell, and every sender streams its
// candidate cells through radio.FieldKernel.FactorSpan — distance
// test, factor computation, and CSR append in one loop, with the
// radius-descending cell order turning the per-receiver radius test
// into an early break. Factors are produced directly in sender-major
// (column) order, the only order the solvers walk. Workers fill
// disjoint sender ranges into private arenas, so the result is
// bit-identical at any worker count.
type SparseField struct {
	ls     *network.LinkSet
	params radio.Params
	kern   radio.FieldKernel
	n      int
	power  []float64
	noise  []float64
	// tailCap[j] = FarFieldCap(P_j, d_jj, R_j): the per-unit-power
	// bound on any truncated sender's factor on receiver j; tailMin and
	// tailMax are its extremes, which accumulators read in place.
	tailCap          []float64
	tailMin, tailMax float64
	// Receiver rank permutation: receivers are stored in grid order
	// (cells a-major, descending truncation radius within a cell).
	// ids maps rank → link id, rankOf maps link id → rank.
	ids    []int32
	rankOf []int32
	// Sender-major CSR: colIdx[colStart[i]:colStart[i+1]] are the
	// stored receiver ranks of sender i (ascending), colF the factors.
	colStart []int
	colIdx   []int32
	colF     []float64
	// pairs counts stored (sender, receiver) pairs.
	pairs int
}

func newSparseField(ctx context.Context, ls *network.LinkSet, p radio.Params, o SparseOptions) (*SparseField, error) {
	if o.Cutoff < 0 || math.IsNaN(o.Cutoff) || math.IsInf(o.Cutoff, 1) {
		return nil, fmt.Errorf("sched: sparse cutoff %v must be a finite non-negative factor", o.Cutoff)
	}
	parent := obs.SpanFrom(ctx)
	cutoff := o.Cutoff
	if cutoff == 0 {
		cutoff = DefaultSparseCutoffFrac * p.GammaEps()
	}
	n := ls.Len()
	f := &SparseField{
		ls: ls, params: p, kern: p.FieldKernel(), n: n,
		power:   make([]float64, n),
		noise:   make([]float64, n),
		tailCap: make([]float64, n),
	}
	if n == 0 {
		f.colStart = make([]int, 1)
		return f, nil
	}
	gridSp := parent.Child("sparse_grid")
	gridSp.SetInt("links", int64(n))
	var pmax float64
	for i := 0; i < n; i++ {
		f.power[i] = p.EffectivePower(ls.Power(i))
		pmax = math.Max(pmax, f.power[i])
	}

	// Geometry bounds. No pair can be farther apart than the diagonal
	// of the joint sender+receiver bounding box, so truncation radii
	// are clamped to it (diag2 carries 2× slack so float rounding can
	// never drop a real pair): the stored-pair set is unchanged, while
	// near-infinite radii from tiny cutoffs stop distorting the grid.
	// tailCap keeps the unclamped radius — distances beyond the
	// diagonal do not occur, so its coverage claim is intact.
	senders, receivers := ls.Senders(), ls.Receivers()
	box := geom.BoundingBox(senders)
	rbox := geom.BoundingBox(receivers)
	box.MinX = math.Min(box.MinX, rbox.MinX)
	box.MinY = math.Min(box.MinY, rbox.MinY)
	box.MaxX = math.Max(box.MaxX, rbox.MaxX)
	box.MaxY = math.Max(box.MaxY, rbox.MaxY)
	diag2 := 2 * (box.Width()*box.Width() + box.Height()*box.Height())

	// Per-receiver truncation radius: beyond radius[j] even a pmax
	// sender's factor on j stays below the cutoff.
	radius := make([]float64, n)
	rad2 := make([]float64, n)
	var maxRad float64
	f.tailMin, f.tailMax = math.Inf(1), math.Inf(-1)
	for j := 0; j < n; j++ {
		f.noise[j] = p.NoiseFactorP(f.power[j], ls.Length(j))
		radius[j] = p.TruncationRadius(f.power[j], ls.Length(j), pmax, cutoff)
		f.tailCap[j] = p.FarFieldCap(f.power[j], ls.Length(j), radius[j])
		f.tailMin, f.tailMax = min(f.tailMin, f.tailCap[j]), max(f.tailMax, f.tailCap[j])
		r2 := math.Min(radius[j]*radius[j], diag2)
		rad2[j] = r2
		radius[j] = math.Sqrt(r2)
		maxRad = math.Max(maxRad, radius[j])
	}

	// Bucket the receivers at a cell side tied to the typical query
	// radius; the median is robust to the radius spread heterogeneous
	// powers and lengths produce. The cell cap bounds degenerate sides.
	side := mathx.Median(radius) / 3
	if !(side > 0) || math.IsInf(side, 1) {
		side = math.Max(rbox.Width(), rbox.Height())/64 + 1
	}
	grid := geom.FitCellGrid(rbox, side, 4*n+64)
	// CellXY's floor transform can misplace a boundary point by a few
	// ulp relative to the nominal cell rectangle; shrinking the
	// cell-distance lower bounds by gridEps (≫ that error, ≪ any real
	// geometry) keeps the skip/break tests provably conservative.
	gridEps := math.Max(float64(grid.Nx), float64(grid.Ny)) * grid.Side * 0x1p-48

	// Rank the receivers: cells in a-major order; descending clamped
	// radius within a cell (FactorSpan's early-break contract), link id
	// breaking ties so the layout is deterministic.
	cellOf := make([]int32, n)
	for j, r := range receivers {
		a, b := grid.CellXY(r)
		cellOf[j] = int32(grid.CellIndex(a, b))
	}
	f.ids = make([]int32, n)
	for j := range f.ids {
		f.ids[j] = int32(j)
	}
	slices.SortFunc(f.ids, func(a, b int32) int {
		if cellOf[a] != cellOf[b] {
			return int(cellOf[a] - cellOf[b])
		}
		if rad2[a] != rad2[b] {
			if rad2[a] > rad2[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	f.rankOf = make([]int32, n)
	cellStart := make([]int32, grid.Cells()+1)
	// Rank-ordered SoA kernel inputs: coordinates, clamped squared
	// radius, and the hoisted receiver constant K.
	crx := make([]float64, n)
	cry := make([]float64, n)
	crad2 := make([]float64, n)
	cK := make([]float64, n)
	for rank, id := range f.ids {
		f.rankOf[id] = int32(rank)
		crx[rank] = receivers[id].X
		cry[rank] = receivers[id].Y
		crad2[rank] = rad2[id]
		cK[rank] = f.kern.ReceiverConst(f.power[id], ls.Length(int(id)))
		cellStart[cellOf[id]+1]++
	}
	for c := 0; c < grid.Cells(); c++ {
		cellStart[c+1] += cellStart[c]
	}

	// Pair-count estimate for the worker arenas: disk area × receiver
	// density, coverage-clipped to the box. Underestimates just grow.
	area := rbox.Width() * rbox.Height()
	var est float64
	if area > 0 {
		density := float64(n) / area
		for j := 0; j < n; j++ {
			r := radius[j]
			clip := math.Min(2*r, rbox.Width()) * math.Min(2*r, rbox.Height())
			est += math.Min(math.Pi*r*r, clip) * density
		}
	}

	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	type shard struct {
		lo, hi int
		idx    []int32
		f      []float64
		w      int
	}
	shards := make([]*shard, 0, workers)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		shards = append(shards, &shard{lo: lo, hi: min(lo+chunk, n)})
	}
	colCount := make([]int32, n)
	arenaCap := int(est)/len(shards) + 256
	gridSp.End()

	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			fillSp := parent.Child("sparse_fill")
			fillSp.SetInt("sender_lo", int64(s.lo))
			fillSp.SetInt("senders", int64(s.hi-s.lo))
			defer fillSp.End()
			s.idx = make([]int32, arenaCap)
			s.f = make([]float64, arenaCap)
			for i := s.lo; i < s.hi; i++ {
				sx, sy := senders[i].X, senders[i].Y
				pi := f.power[i]
				selfRank := int(f.rankOf[i])
				begin := s.w
				a0, b0, a1, b1, ok := grid.CellRange(sx-maxRad, sy-maxRad, sx+maxRad, sy+maxRad)
				if !ok {
					continue
				}
				for a := a0; a <= a1; a++ {
					// Distance lower bound along x; boundary cells
					// absorb clamped outliers, so they are unbounded.
					var dxLo float64
					if xlo, xhi := grid.CellBoundsX(a); a > 0 && sx < xlo {
						dxLo = math.Max(0, xlo-sx-gridEps)
					} else if a < grid.Nx-1 && sx > xhi {
						dxLo = math.Max(0, sx-xhi-gridEps)
					}
					rowBase := grid.CellIndex(a, 0)
					for b := b0; b <= b1; b++ {
						r0, r1 := int(cellStart[rowBase+b]), int(cellStart[rowBase+b+1])
						if r0 == r1 {
							continue
						}
						var dyLo float64
						if ylo, yhi := grid.CellBoundsY(b); b > 0 && sy < ylo {
							dyLo = math.Max(0, ylo-sy-gridEps)
						} else if b < grid.Ny-1 && sy > yhi {
							dyLo = math.Max(0, sy-yhi-gridEps)
						}
						minD2 := dxLo*dxLo + dyLo*dyLo
						if crad2[r0] < minD2 { // cell's widest radius can't reach
							continue
						}
						if need := r1 - r0; len(s.idx)-s.w < need {
							newCap := max(2*len(s.idx), s.w+need)
							ni := make([]int32, newCap)
							copy(ni, s.idx[:s.w])
							s.idx = ni
							nf := make([]float64, newCap)
							copy(nf, s.f[:s.w])
							s.f = nf
						}
						self := -1
						if selfRank >= r0 && selfRank < r1 {
							self = selfRank - r0
						}
						s.w = f.kern.FactorSpan(pi, sx, sy,
							crx[r0:r1], cry[r0:r1], cK[r0:r1], crad2[r0:r1],
							minD2, self, int32(r0), s.idx, s.f, s.w)
					}
				}
				colCount[i] = int32(s.w - begin)
			}
		}(s)
	}
	wg.Wait()

	mergeSp := parent.Child("sparse_merge")
	defer mergeSp.End()
	f.colStart = make([]int, n+1)
	for i := 0; i < n; i++ {
		f.colStart[i+1] = f.colStart[i] + int(colCount[i])
	}
	f.pairs = f.colStart[n]
	mergeSp.SetInt("pairs", int64(f.pairs))
	if len(shards) == 1 {
		s := shards[0]
		f.colIdx = s.idx[:s.w:s.w]
		f.colF = s.f[:s.w:s.w]
		return f, nil
	}
	f.colIdx = make([]int32, f.pairs)
	f.colF = make([]float64, f.pairs)
	for _, s := range shards {
		off := f.colStart[s.lo]
		copy(f.colIdx[off:off+s.w], s.idx[:s.w])
		copy(f.colF[off:off+s.w], s.f[:s.w])
	}
	return f, nil
}

// N implements InterferenceField.
func (f *SparseField) N() int { return f.n }

// Factor implements InterferenceField: the stored factor, or 0 for
// truncated pairs (covered by TailBound) and the diagonal.
func (f *SparseField) Factor(i, j int) float64 {
	span := f.colIdx[f.colStart[i]:f.colStart[i+1]]
	if k, found := slices.BinarySearch(span, f.rankOf[j]); found {
		return f.colF[f.colStart[i]+k]
	}
	return 0
}

// NoiseTerm implements InterferenceField.
func (f *SparseField) NoiseTerm(j int) float64 { return f.noise[j] }

// PowerOf implements InterferenceField.
func (f *SparseField) PowerOf(i int) float64 { return f.power[i] }

// TailBound implements InterferenceField.
func (f *SparseField) TailBound(j int) float64 { return f.tailCap[j] }

// ForEachAffected implements InterferenceField: a walk of sender i's
// column span, in receiver rank (grid) order.
func (f *SparseField) ForEachAffected(i int, fn func(j int, fij float64)) {
	for k := f.colStart[i]; k < f.colStart[i+1]; k++ {
		fn(int(f.ids[f.colIdx[k]]), f.colF[k])
	}
}

// Bytes implements InterferenceField: the sender-major CSR arrays and
// the per-link power, noise, tail-cap and rank arrays.
func (f *SparseField) Bytes() int64 {
	return 12*int64(f.pairs) + 8*int64(f.n+1) + 32*int64(f.n)
}

// StoredPairs returns how many (sender, receiver) factors are
// materialized — the memory headline versus the dense n² matrix.
func (f *SparseField) StoredPairs() int { return f.pairs }
