package sched

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Sharded is the tile-parallel greedy scheduler: it partitions links by
// receiver position onto a geom.CellGrid, solves every tile
// concurrently against a reserved interference budget, and merges the
// per-tile schedules with a full-budget repair pass. It is the same
// partition-with-safety-margin decomposition the paper's LDP uses to
// prove feasibility — grid squares plus a conservative charge for
// everything outside the square — applied to wall-clock instead of
// analysis: tile solves only ever see interference from their own
// members, so the reserved fraction of γ_ε covers what they cannot
// see, and the merge pass (an exact greedy insertion over the tile
// winners, in the global pick order, against the full budget) restores
// unconditional correctness regardless of how the reservation was
// chosen.
//
// Correctness does not depend on the budget split: the merged schedule
// is, by construction, a greedy insertion restricted to the candidate
// set, so it satisfies exactly the Corollary 3.1 check the unsharded
// Greedy enforces — Verify accepts it whenever it accepts Greedy's
// output. The reservation only tunes quality: too small and the merge
// pass repairs many boundary conflicts (wasted tile admissions), too
// large and tiles under-fill. The cross-tile charge is the same
// far-field reasoning SparseField's tail bound uses (ln(1+x) ≤ x with
// distance ≥ the tile separation), which is why the default reserve is
// a modest fraction rather than a per-instance computation.
//
// With Shards ≤ 1 (or a partition that degenerates to a single
// occupied tile) the tile pass is skipped entirely and the merge pass
// runs over all links in the global pick order with the full budget —
// bit-identical to Greedy's activation set by construction.
type Sharded struct {
	// Shards requests the tile count: 0 picks automatically from the
	// instance size and GOMAXPROCS (1 below shardAutoMinLinks — tiny
	// instances gain nothing from fan-out), 1 forces the
	// unsharded-identical path, and larger values are clamped to
	// MaxShards and to n. The partition rounds the request to an
	// enclosing grid and compacts empty cells away, so the effective
	// tile count can land somewhat above or below Shards (KeyTiles
	// reports the realized count).
	Shards int
	// Reserve is the cross-tile interference reservation ρ ∈ [0, 0.9]:
	// tiles admit against (1−ρ)·γ_ε. 0 selects DefaultShardReserve.
	Reserve float64
}

// DefaultShardReserve is the default cross-tile budget reservation ρ.
// Measured on paper-density Poisson deployments, quality is flat for
// ρ ∈ [0.1, 0.4] (the merge pass repairs what the reservation misses);
// 0.25 sits in the middle of that plateau.
const DefaultShardReserve = 0.25

// MaxShards caps the tile count: past this the per-tile fixed costs
// (scratch checkout, accumulator begin) dominate any parallelism win.
const MaxShards = 4096

// maxShardReserve caps Reserve: reserving more than 90% of the budget
// starves every tile and degenerates the solve into the merge pass.
const maxShardReserve = 0.9

const (
	// shardAutoTargetLinks is the per-tile link target under Shards=0.
	shardAutoTargetLinks = 1024
	// shardAutoMinLinks is the auto-sharding floor: below it the
	// partition + goroutine overhead exceeds the loop it parallelizes.
	shardAutoMinLinks = 4096
)

// Shardable is implemented by algorithms that accept a tile-count
// override — the hook the server's `shards` request knob resolves
// through without the registry needing per-count entries.
type Shardable interface {
	Algorithm
	// WithShards returns a copy of the algorithm configured for k tiles
	// (0 = automatic). The receiver is not mutated.
	WithShards(k int) Algorithm
}

// WithShards implements Shardable.
func (a Sharded) WithShards(k int) Algorithm { a.Shards = k; return a }

// Name implements Algorithm.
func (Sharded) Name() string { return "greedy-sharded" }

// Schedule implements Algorithm.
func (a Sharded) Schedule(pr *Problem) Schedule { return schedule(a, pr) }

// reserveFrac resolves the effective reservation ρ.
func (a Sharded) reserveFrac() float64 {
	r := a.Reserve
	if r == 0 {
		r = DefaultShardReserve
	}
	return math.Min(math.Max(r, 0), maxShardReserve)
}

// tileCount resolves the requested tile count for an n-link instance.
func (a Sharded) tileCount(n int) int {
	k := a.Shards
	if k <= 0 {
		if n < shardAutoMinLinks {
			return 1
		}
		k = n / shardAutoTargetLinks
		if w := runtime.GOMAXPROCS(0); k < w {
			k = w
		}
	}
	if k > MaxShards {
		k = MaxShards
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// solve implements solver: phases "sort", "tile_partition" (counting
// KeyTiles), "tile_solve" (one span per worker, counting
// KeyTilesSolved and KeyTileAdmitted as each tile finishes), and
// "tile_merge" (KeyBoundaryRepairs plus the standard KeyAdmitted and
// KeyRejected).
func (a Sharded) solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	sp := obs.SpanFrom(ctx)
	n := pr.N()
	k := a.tileCount(n)

	// Global pick order: identical keys to Greedy (descending rate,
	// ties by ascending length, then index — sort.Stable). Tiles consume
	// order-contiguous subsequences of it, and a stable sort restricted
	// to a subset equals the stable sort of that subset, so every tile
	// considers its members in exactly the order the unsharded greedy
	// would have reached them.
	ph := sp.Child("sort")
	ps := scr.pickSorterBufs(n, true)
	for i := 0; i < n; i++ {
		ps.k1[i] = -pr.Links.Rate(i)
		ps.k2[i] = pr.Links.Length(i)
	}
	sort.Stable(ps)
	ph.End()

	if k <= 1 {
		return a.finishUnsharded(pr, scr, ps.order, sp, dst), nil
	}

	sb := scr.shardState()
	ph = sp.Child("tile_partition")
	tiles := sb.partition(pr, scr, k, ps.order)
	ph.SetInt("requested", int64(k))
	if tiles <= 1 {
		// Degenerate geometry (all receivers in one cell): the tile pass
		// would just be the global pass with a smaller budget.
		ph.End()
		return a.finishUnsharded(pr, scr, ps.order, sp, dst), nil
	}
	ph.Add(obs.KeyTiles, int64(tiles))
	ph.End()

	// Solve tiles on a bounded worker pool: workers pull tile indices
	// from an atomic cursor, check a private Scratch out of the
	// Prepared pool (so the steady state reuses warm buffers), and
	// write each tile's admissions into the shared arena at the tile's
	// own CSR offsets — disjoint ranges, no locks, and a result that is
	// deterministic at any worker count because tile t's outcome
	// depends only on tile t's members and order.
	budget := pr.GammaEps() * (1 - a.reserveFrac())
	workers := min(runtime.GOMAXPROCS(0), tiles)
	sb.admitted = int32sIn(&sb.admitted, n)
	var cursor atomic.Int64
	var tileRejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wsp := sp.Child("tile_solve")
			wscr, release := tileScratch(scr)
			defer release()
			ta := wscr.tileAccum(pr, sb.tileOf)
			var visited, rejected int
			for {
				t := int(cursor.Add(1)) - 1
				if t >= tiles {
					break
				}
				lo, hi := sb.tileStart[t], sb.tileStart[t+1]
				members := sb.tileOrder[lo:hi]
				ta.begin(int32(t), members)
				adm := sb.admitted[lo:lo]
				for _, m := range members {
					i := int(m)
					// The Greedy insert check against the reserved budget:
					// candidate's own load, then the delta on every
					// already-admitted tile member.
					if !pr.Params.InformedBudget(ta.Load(i), budget) {
						rejected++
						continue
					}
					ok := true
					for _, j32 := range adm {
						j := int(j32)
						if !pr.Params.InformedBudget(ta.Load(j)+ta.Contribution(i, j), budget) {
							ok = false
							break
						}
					}
					if !ok {
						rejected++
						continue
					}
					ta.AddLink(i)
					adm = append(adm, m)
				}
				sb.admCount[t] = int32(len(adm))
				visited += len(members)
				// Live progress for mid-solve stats reads
				// (GET /debug/state folds these from another goroutine).
				wsp.Add(obs.KeyTilesSolved, 1)
				wsp.Add(obs.KeyTileAdmitted, int64(len(adm)))
			}
			wsp.SetInt("links", int64(visited))
			wsp.End()
			tileRejected.Add(int64(rejected))
		}()
	}
	wg.Wait()

	// Merge + repair: gather the tile winners in the global pick order
	// and rerun the exact full-budget greedy insertion over them. Every
	// admission therefore satisfies the same conservative feasibility
	// check as unsharded Greedy's — the merged schedule can never be
	// infeasible where Greedy's would be accepted — and candidates that
	// only fit under their tile's blinkered view (boundary conflicts)
	// are dropped here, counted as repairs.
	ph = sp.Child("tile_merge")
	mark := boolsIn(&sb.mark, n)
	for t := 0; t < tiles; t++ {
		lo := sb.tileStart[t]
		for _, m := range sb.admitted[lo : lo+sb.admCount[t]] {
			mark[m] = true
		}
	}
	if cap(sb.cand) < n {
		sb.cand = make([]int, 0, n)
	}
	cand := sb.cand[:0]
	for _, i := range ps.order {
		if mark[i] {
			cand = append(cand, i)
		}
	}
	sb.cand = cand
	active, repairs := greedyInsert(pr, scr, cand)
	ph.SetInt("candidates", int64(len(cand)))
	ph.Add(obs.KeyBoundaryRepairs, int64(repairs))
	ph.Add(obs.KeyAdmitted, int64(len(active)))
	ph.Add(obs.KeyRejected, tileRejected.Load()+int64(repairs))
	ph.End()
	return finishSchedule(a.Name(), active, dst), nil
}

// finishUnsharded is the single-tile path: a full-budget greedy
// insertion over the global pick order, bit-identical to Greedy's
// activation set (only the algorithm label differs).
func (a Sharded) finishUnsharded(pr *Problem, scr *Scratch, order []int, sp obs.Span, dst []int) Schedule {
	ph := sp.Child("tile_merge")
	active, rejected := greedyInsert(pr, scr, order)
	ph.SetInt("candidates", int64(len(order)))
	ph.Add(obs.KeyTiles, 1)
	ph.Add(obs.KeyAdmitted, int64(len(active)))
	ph.Add(obs.KeyRejected, int64(rejected))
	ph.End()
	return finishSchedule(a.Name(), active, dst)
}

// greedyInsert is Greedy's insertion loop over an explicit candidate
// order: full γ_ε budget, same Informed checks, same accumulator. It
// is shared by the single-tile path (order = all links) and the merge
// pass (order = tile winners), which is what makes both of them exact
// restrictions of the unsharded greedy. On tail-bounded (sparse)
// fields the loop runs through prunedInsert, which admits and rejects
// the same set in O(stored degree) per candidate instead of
// Θ(|active|).
func greedyInsert(pr *Problem, scr *Scratch, order []int) (active []int, rejected int) {
	acc := scr.noiseAccum(pr)
	active = scr.activeBuf(pr.N())
	if acc.hasTail {
		active, rejected = prunedInsert(pr, scr, acc, active, order)
		scr.active = active
		return active, rejected
	}
	for _, i := range order {
		if !pr.Params.Informed(acc.Load(i)) {
			rejected++
			continue
		}
		ok := true
		for _, j := range active {
			if !pr.Params.Informed(acc.Load(j) + acc.Contribution(i, j)) {
				ok = false
				break
			}
		}
		if !ok {
			rejected++
			continue
		}
		acc.AddLink(i)
		active = append(active, i)
	}
	scr.active = active
	return active, rejected
}

// prunedInsert is greedyInsert's fast path for tail-bounded (sparse)
// fields. The plain loop pays Θ(|active|) per candidate, and near
// budget saturation almost every candidate is rejected by *some*
// active receiver, so the scan degenerates to Θ(n·|active|) — the
// wall that dominates unsharded solves past n ≈ 10⁴. This path
// decides each candidate in O(stored degree of its sender) using the
// structure of the conservative load model.
//
// For an active receiver j with no stored factor from candidate i,
// the plain check Load(j) + Contribution(i,j) ≤ γ_ε expands to
//
//	m_j + TailBound(j)·(actPow + P_i) ≤ γ_ε,
//	m_j = load_j − TailBound(j)·nearPow_j,
//
// and, once j is active, m_j only grows as further links join: a
// stored factor dominates the tail charge it displaces (f ≥ tail·P
// for every stored pair, by the truncation-radius construction), and
// unstored joins leave m_j untouched. A running maximum M over active
// receivers' m_j therefore answers every far check at once. With the
// per-receiver tail spread over [tmin, tmax] (analytically the bounds
// coincide at cutoff/pmax; only pow() rounding separates them), the
// candidate is safe to accept on the far side when even the tmax form
// fits the budget, and safe to reject when even the tmin form
// overflows — for the arg-max receiver a stored factor from i could
// only raise its exact check above the far form. Between the two
// (a band ~10⁻⁹ of the budget wide, versus a decision granularity of
// one whole tail charge) the plain scan decides.
//
// Stored active neighbors — the O(degree) near field — are checked
// with exactly the plain loop's expression, so the admitted set is
// identical to plain greedyInsert's on every input; the shards=1 ≡
// Greedy differential tests pin that equivalence.
func prunedInsert(pr *Problem, scr *Scratch, acc *Accum, active []int, order []int) ([]int, int) {
	rejected := 0
	isActive := boolsIn(&scr.insAct, pr.N())
	for _, j := range active {
		isActive[j] = true // pre-seeded active sets (none today) stay correct
	}
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for _, t := range acc.tail {
		tmin = math.Min(tmin, t)
		tmax = math.Max(tmax, t)
	}
	m := func(j int) float64 { return acc.load[j] - acc.tail[j]*acc.nearPow[j] }
	M := math.Inf(-1)
	for _, j := range active {
		M = math.Max(M, m(j))
	}
	for _, i := range order {
		if !pr.Params.Informed(acc.Load(i)) {
			rejected++
			continue
		}
		ok := true
		if len(active) > 0 {
			aPrime := acc.actPow + acc.field.PowerOf(i)
			margin := 1e-9 * (acc.gammaEps + math.Abs(M) + tmax*aPrime)
			if !pr.Params.Informed(M + tmin*aPrime - margin) {
				// Even the weakest tail charge overflows the most loaded
				// receiver: every variant of its exact check fails too.
				ok = false
			} else if pr.Params.Informed(M + tmax*aPrime + margin) {
				// Far field clears the budget everywhere; only stored
				// active neighbors can still object.
				acc.field.ForEachAffected(i, func(j int, f float64) {
					if ok && isActive[j] && !pr.Params.Informed(acc.Load(j)+f) {
						ok = false
					}
				})
			} else {
				// Margin band: rounding could flip the bound tests, so
				// let the exact scan decide.
				for _, j := range active {
					if !pr.Params.Informed(acc.Load(j) + acc.Contribution(i, j)) {
						ok = false
						break
					}
				}
			}
		}
		if !ok {
			rejected++
			continue
		}
		acc.AddLink(i)
		isActive[i] = true
		active = append(active, i)
		if v := m(i); v > M {
			M = v
		}
		acc.field.ForEachAffected(i, func(j int, _ float64) {
			if isActive[j] {
				if v := m(j); v > M {
					M = v
				}
			}
		})
	}
	return active, rejected
}

// tileScratch checks a worker-private Scratch out of the owning
// Prepared's pool (a fresh one for a standalone scratch) and returns
// it with its release.
func tileScratch(scr *Scratch) (*Scratch, func()) {
	if scr.pp != nil {
		pp := scr.pp
		ws := pp.getScratch()
		return ws, func() { pp.putScratch(ws) }
	}
	return new(Scratch), func() {}
}

// shardBufs is the Scratch-resident workspace of the sharded solver:
// the receiver→tile map, the per-tile CSR over the global pick order,
// the shared admission arena workers write disjoint ranges of, and the
// merge pass buffers. All buffers are resized, never reallocated once
// warm.
type shardBufs struct {
	tileOf    []int32 // link → compact tile id
	cellTile  []int32 // grid cell → compact tile id (-1 empty)
	count     []int32 // per-cell then per-tile cursor scratch
	tileStart []int32 // CSR starts into tileOrder/admitted, len tiles+1
	tileOrder []int32 // links grouped by tile, each group in pick order
	admitted  []int32 // per-tile admissions at the tile's CSR offsets
	admCount  []int32 // per-tile admission counts
	mark      []bool  // merge candidate membership
	cand      []int   // merge candidates in global pick order
}

// shardState returns the scratch shard workspace, allocated on first
// use (keeps the common non-sharded Scratch small).
func (s *Scratch) shardState() *shardBufs {
	if s.shard == nil {
		s.shard = &shardBufs{}
	}
	return s.shard
}

// int32sIn is intsIn for int32 buffers.
func int32sIn(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// partition assigns every link to the grid cell containing its
// receiver, compacts occupied cells into dense tile ids, and buckets
// the global pick order into per-tile CSR runs. Receivers (not
// senders) key the partition because feasibility is a per-receiver
// budget: a tile then owns every budget its members check, and the
// tile solve touches no state outside its member set. Returns the
// number of non-empty tiles.
func (sb *shardBufs) partition(pr *Problem, scr *Scratch, k int, order []int) int {
	n := pr.N()
	recvs := scr.receiversOf(pr)
	box := geom.BoundingBox(recvs)
	w, h := box.Width(), box.Height()
	side := math.Sqrt(w * h / float64(k))
	if !(side > 0) {
		side = math.Max(w, h) / float64(k) // collinear receivers: 1-D split
	}
	if !(side > 0) {
		side = 1 // all receivers coincide: a single cell either way
	}
	// The natural grid for side = √(w·h/k) has (⌊√k⌋+1)² ≤ 4k+4 cells
	// on a square box; a cap of exactly k would make FitCellGrid double
	// the side until the cell count collapses (2 tiles where k≈5 fit),
	// so cap at the enclosing grid instead and let empty-cell compaction
	// settle the effective count near the request.
	grid := geom.FitCellGrid(box, side, 4*k+4)
	cells := grid.Cells()

	sb.tileOf = int32sIn(&sb.tileOf, n)
	sb.cellTile = int32sIn(&sb.cellTile, cells)
	sb.count = int32sIn(&sb.count, cells)
	clear(sb.count)
	for i, p := range recvs {
		x, y := grid.CellXY(p)
		c := int32(grid.CellIndex(x, y))
		sb.tileOf[i] = c
		sb.count[c]++
	}
	tiles := 0
	for c, cnt := range sb.count {
		if cnt > 0 {
			sb.cellTile[c] = int32(tiles)
			tiles++
		} else {
			sb.cellTile[c] = -1
		}
	}
	if tiles <= 1 {
		return tiles
	}
	for i := range sb.tileOf {
		sb.tileOf[i] = sb.cellTile[sb.tileOf[i]]
	}

	sb.tileStart = int32sIn(&sb.tileStart, tiles+1)
	clear(sb.tileStart)
	for _, t := range sb.tileOf {
		sb.tileStart[t+1]++
	}
	for t := 0; t < tiles; t++ {
		sb.tileStart[t+1] += sb.tileStart[t]
	}
	sb.tileOrder = int32sIn(&sb.tileOrder, n)
	sb.count = int32sIn(&sb.count, tiles)
	clear(sb.count)
	for _, i := range order {
		t := sb.tileOf[i]
		sb.tileOrder[sb.tileStart[t]+sb.count[t]] = int32(i)
		sb.count[t]++
	}
	sb.admCount = int32sIn(&sb.admCount, tiles)
	clear(sb.admCount)
	return tiles
}

// tileAccum is the tile-local feasibility accumulator: Accum's
// conservative load model restricted to one tile's receivers. It
// indexes by global link id but initializes and reads only current-
// tile members, so beginning a tile costs O(tile) instead of O(n) and
// a dense AddLink walks the member list instead of the whole row.
// Cross-tile active senders never contribute — that is exactly the
// blind spot the reserved budget covers and the merge pass repairs.
//
// The sparse far-field bookkeeping mirrors Accum: actPow totals the
// power of active *tile* senders, nearPow[j] the share of it already
// stored on j (or belonging to j itself), and Load charges the
// remainder through the tail bound — the same conservative tail the
// unsharded accumulator uses, scoped to the tile's active set.
type tileAccum struct {
	field   InterferenceField
	dense   *DenseField
	tileOf  []int32
	tile    int32
	members []int32
	load    []float64
	nearPow []float64
	tail    []float64
	actPow  float64
	hasTail bool
}

// tileAccum returns the scratch tile accumulator bound to pr's field
// and the given receiver→tile map.
func (s *Scratch) tileAccum(pr *Problem, tileOf []int32) *tileAccum {
	a := &s.tacc
	f := pr.field
	n := f.N()
	a.field = f
	a.dense, _ = f.(*DenseField)
	a.tileOf = tileOf
	a.load = floatsIn(&a.load, n)
	a.hasTail = false
	if a.dense == nil {
		for j := 0; j < n; j++ {
			if f.TailBound(j) > 0 {
				a.hasTail = true
				break
			}
		}
	}
	if a.hasTail {
		a.nearPow = floatsIn(&a.nearPow, n)
		a.tail = floatsIn(&a.tail, n)
		for j := 0; j < n; j++ {
			a.tail[j] = f.TailBound(j)
		}
	} else {
		a.nearPow, a.tail = nil, nil
	}
	return a
}

// begin resets the accumulator for one tile: members' loads start at
// their noise terms, everything else is left stale (never read).
func (a *tileAccum) begin(tile int32, members []int32) {
	a.tile, a.members, a.actPow = tile, members, 0
	for _, m := range members {
		a.load[m] = a.field.NoiseTerm(int(m))
		if a.hasTail {
			a.nearPow[m] = 0
		}
	}
}

// AddLink folds tile member i into the tile's active set.
func (a *tileAccum) AddLink(i int) {
	if a.dense != nil {
		row := a.dense.row(i)
		for _, m := range a.members {
			a.load[m] += row[m] // row[i] is 0; adding it is exact
		}
		return
	}
	if !a.hasTail {
		a.field.ForEachAffected(i, func(j int, f float64) {
			if a.tileOf[j] == a.tile {
				a.load[j] += f
			}
		})
		return
	}
	pi := a.field.PowerOf(i)
	a.field.ForEachAffected(i, func(j int, f float64) {
		if a.tileOf[j] == a.tile {
			a.load[j] += f
			a.nearPow[j] += pi
		}
	})
	a.nearPow[i] += pi // a link never far-interferes with its own receiver
	a.actPow += pi
}

// Load returns tile member j's conservative load under the tile's
// active set (see Accum.Load).
func (a *tileAccum) Load(j int) float64 {
	if !a.hasTail {
		return a.load[j]
	}
	far := a.actPow - a.nearPow[j]
	if far <= 0 {
		return a.load[j]
	}
	return a.load[j] + a.tail[j]*far
}

// Contribution is Accum.Contribution for tile members.
func (a *tileAccum) Contribution(i, j int) float64 {
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

func init() {
	mustRegister(Sharded{})
}
