package sched

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
)

// legacyTileAccum is the tile-local accumulator greedy-sharded's tile
// pass ran through before it shared Accum (via restrict): Accum's
// conservative load model restricted to one tile's receivers, indexed
// by global link id. It is kept here only as the reference
// TestShardedTilePassMatchesLegacy compares against.
type legacyTileAccum struct {
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

func newLegacyTileAccum(pr *Problem, tileOf []int32) *legacyTileAccum {
	a := &legacyTileAccum{}
	f := pr.field
	n := f.N()
	a.field = f
	a.dense, _ = f.(*DenseField)
	a.tileOf = tileOf
	a.load = make([]float64, n)
	if a.dense == nil {
		for j := 0; j < n; j++ {
			if f.TailBound(j) > 0 {
				a.hasTail = true
				break
			}
		}
	}
	if a.hasTail {
		a.nearPow = make([]float64, n)
		a.tail = make([]float64, n)
		for j := 0; j < n; j++ {
			a.tail[j] = f.TailBound(j)
		}
	}
	return a
}

func (a *legacyTileAccum) begin(tile int32, members []int32) {
	a.tile, a.members, a.actPow = tile, members, 0
	for _, m := range members {
		a.load[m] = a.field.NoiseTerm(int(m))
		if a.hasTail {
			a.nearPow[m] = 0
		}
	}
}

func (a *legacyTileAccum) AddLink(i int) {
	if a.dense != nil {
		row := a.dense.row(i)
		for _, m := range a.members {
			a.load[m] += row[m]
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
	a.nearPow[i] += pi
	a.actPow += pi
}

func (a *legacyTileAccum) Load(j int) float64 {
	if !a.hasTail {
		return a.load[j]
	}
	far := a.actPow - a.nearPow[j]
	if far <= 0 {
		return a.load[j]
	}
	return a.load[j] + a.tail[j]*far
}

func (a *legacyTileAccum) Contribution(i, j int) float64 {
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

// legacyTilePass is the former tile loop, run serially over a
// partition's CSR runs (a tile's outcome depends only on its own
// members and order): each tile's admissions and the rejected total.
func legacyTilePass(pr *Problem, tileOf, tileStart []int32, tileOrder []int, budget float64) ([][]int, int) {
	ta := newLegacyTileAccum(pr, tileOf)
	tiles := len(tileStart) - 1
	out := make([][]int, tiles)
	rejected := 0
	for t := 0; t < tiles; t++ {
		members := make([]int32, 0, tileStart[t+1]-tileStart[t])
		for _, m := range tileOrder[tileStart[t]:tileStart[t+1]] {
			members = append(members, int32(m))
		}
		ta.begin(int32(t), members)
		var adm []int
		for _, m := range members {
			i := int(m)
			if !pr.Params.InformedBudget(ta.Load(i), budget) {
				rejected++
				continue
			}
			ok := true
			for _, j := range adm {
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
			adm = append(adm, i)
		}
		out[t] = adm
	}
	return out, rejected
}

// legacyMerge is the former merge pass: the tile winners, in the
// global pick order (the former private sort), through the plain
// full-budget greedy loop. It returns the schedule and the repairs.
func legacyMerge(pr *Problem, admitted [][]int) ([]int, int) {
	n := pr.N()
	order := make([]int, n)
	k1, k2 := make([]float64, n), make([]float64, n)
	for i := range order {
		order[i] = i
		k1[i], k2[i] = -pr.Links.Rate(i), pr.Links.Length(i)
	}
	sort.Stable(&pickSorter{order: order, k1: k1, k2: k2})
	mark := make([]bool, n)
	for _, adm := range admitted {
		for _, i := range adm {
			mark[i] = true
		}
	}
	acc := NewAccum(pr)
	var active []int
	repairs := 0
	for _, i := range order {
		if !mark[i] {
			continue
		}
		if !pr.Params.Informed(acc.Load(i)) {
			repairs++
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
			repairs++
			continue
		}
		acc.AddLink(i)
		active = append(active, i)
	}
	slices.Sort(active)
	return active, repairs
}

// TestShardedTilePassMatchesLegacy pins greedy-sharded's tile pass —
// the worker's Accum restricted to each tile and run through insert —
// to the former tileAccum loop: each tile's admissions, the tile pass's
// rejected total, and the merged schedule must be equal, on a dense and
// two sparse fields, a uniform and a noisy clustered layout, shards
// {2, 4, 9, 25, 64} × reserve {1e-9, 0.25, 0.9}, at GOMAXPROCS 1 and
// 2. It also checks that Accum's tail bounds are a plain scan of every
// TailBound.
func TestShardedTilePassMatchesLegacy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 600
	uniform := network.PaperConfig(n)
	uniform.Region = 500 * math.Sqrt(n/300.0)
	clustered := uniform
	clustered.Clusters, clustered.ClusterSpread = 3, 80
	noisy := radio.DefaultParams()
	noisy.N0 = 1e-7 // noise terms must survive restrict
	for _, layout := range []struct {
		name string
		cfg  network.GenConfig
		p    radio.Params
	}{{"uniform", uniform, radio.DefaultParams()}, {"clustered-noisy", clustered, noisy}} {
		ls, err := network.Generate(layout.cfg, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []struct {
			name string
			opts []Option
		}{
			{"dense", nil},
			{"sparse", []Option{WithSparseField(SparseOptions{})}},
			// A coarse cutoff makes tail charges bind, so a stale
			// nearPow or actPow would change admissions.
			{"sparse-coarse", []Option{WithSparseField(SparseOptions{Cutoff: radio.DefaultParams().GammaEps() / 100})}},
		} {
			pr := MustNewProblem(ls, layout.p, field.opts...)
			prep := NewPrepared(pr)
			if field.name != "dense" {
				acc := NewAccum(pr)
				tmin, tmax := math.Inf(1), math.Inf(-1)
				for j := 0; j < n; j++ {
					tmin = math.Min(tmin, pr.field.TailBound(j))
					tmax = math.Max(tmax, pr.field.TailBound(j))
				}
				if !acc.hasTail || acc.tmin != tmin || acc.tmax != tmax {
					t.Fatalf("%s/%s: Accum tail bounds [%v, %v] (hasTail %v), scan [%v, %v]",
						layout.name, field.name, acc.tmin, acc.tmax, acc.hasTail, tmin, tmax)
				}
			}
			var rejected, repairs int64
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for _, shards := range []int{2, 4, 9, 25, 64} {
					for _, reserve := range []float64{1e-9, 0.25, 0.9} {
						name := fmt.Sprintf("%s/%s/procs=%d/shards=%d/reserve=%v", layout.name, field.name, procs, shards, reserve)
						rej, rep := checkTilePass(t, name, prep, Sharded{Shards: shards, Reserve: reserve})
						rejected += rej
						repairs += rep
					}
				}
			}
			if rejected == 0 || repairs == 0 {
				t.Fatalf("%s/%s: %d tile rejections and %d repairs over the grid, want both > 0",
					layout.name, field.name, rejected, repairs)
			}
		}
	}
}

// checkTilePass solves one configuration and compares it with the
// legacy tile and merge passes, returning the tile pass's rejections
// and the merge pass's repairs.
func checkTilePass(t *testing.T, name string, prep *Prepared, a Sharded) (rejected, repairs int64) {
	t.Helper()
	pr := prep.Problem()
	scr := prep.getScratch()
	defer prep.putScratch(scr)
	s, st := tracedSolve(t, func(ctx context.Context) (Schedule, error) {
		return a.solve(ctx, pr, scr, nil)
	})
	tiles := int(st.Counter(obs.KeyTiles))
	if tiles < 2 {
		t.Fatalf("%s: %d tiles, want a tiled solve", name, tiles)
	}
	sb := scr.shard
	if len(sb.tileStart) != tiles+1 {
		t.Fatalf("%s: %d CSR starts for %d tiles", name, len(sb.tileStart), tiles)
	}
	want, wantRejected := legacyTilePass(pr, sb.tileOf, sb.tileStart, sb.tileOrder, pr.GammaEps()*(1-a.reserveFrac()))
	for tile, w := range want {
		lo := sb.tileStart[tile]
		if got := sb.admitted[lo : lo+sb.admCount[tile]]; !slices.Equal(got, w) {
			t.Fatalf("%s: tile %d admitted %v, legacy loop %v", name, tile, got, w)
		}
	}
	repairs = st.Counter(obs.KeyBoundaryRepairs)
	if rejected = st.Counter(obs.KeyRejected) - repairs; rejected != int64(wantRejected) {
		t.Fatalf("%s: tile pass rejected %d, legacy loop %d", name, rejected, wantRejected)
	}
	merged, wantRepairs := legacyMerge(pr, want)
	if !slices.Equal(s.Active, merged) {
		t.Fatalf("%s: merged schedule %v\nlegacy merge %v", name, s.Active, merged)
	}
	if repairs != int64(wantRepairs) {
		t.Fatalf("%s: %d boundary repairs, legacy merge %d", name, repairs, wantRepairs)
	}
	return rejected, repairs
}
