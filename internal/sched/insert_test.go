package sched

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
)

// handleScratch checks a scratch out of a one-shot Prepared on pr, as
// every solve's scratch is, and returns it to the pool when the test
// ends.
func handleScratch(t testing.TB, pr *Problem) *Scratch {
	t.Helper()
	pp := NewPrepared(pr)
	scr := pp.getScratch()
	t.Cleanup(func() { pp.putScratch(scr) })
	return scr
}

// tailBoundedField is a named problem whose field carries a tail bound,
// so greedyInsert takes its pruned path on it.
type tailBoundedField struct {
	name string
	pr   *Problem
}

// tailBoundedFields are the sparse fields the pruned insertion loop is
// pinned on: the conformance table's sparse instances, the load
// benchmark's solve-scale shape, a clustered set, one with spread tail
// bounds, and a noisy one.
func tailBoundedFields(t testing.TB) []tailBoundedField {
	t.Helper()
	var out []tailBoundedField
	for _, inst := range conformanceInstances(t, 42, 24, 250) {
		if strings.HasPrefix(inst.name, "sparse") {
			out = append(out, tailBoundedField{inst.name, MustNewProblem(inst.ls, radio.DefaultParams(), inst.opts...)})
		}
	}
	gen := func(cfg network.GenConfig, seed uint64) *network.LinkSet {
		ls, err := network.Generate(cfg, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	const scaleN = 2500
	scale := network.PaperConfig(scaleN)
	scale.Region = 20000 * math.Sqrt(scaleN/20000.0)
	scaleParams := radio.DefaultParams()
	scaleParams.Alpha = 4.5
	out = append(out, tailBoundedField{"solve-scale-2500", MustNewProblem(gen(scale, 1), scaleParams,
		WithSparseField(SparseOptions{Cutoff: 1e-7}))})

	clustered := network.PaperConfig(600)
	clustered.Region = 500 * math.Sqrt(2)
	clustered.Clusters, clustered.ClusterSpread = 3, 60
	out = append(out, tailBoundedField{"clustered-600", MustNewProblem(gen(clustered, 7), radio.DefaultParams(),
		WithSparseField(SparseOptions{}))})

	// Halving every other receiver's tail bound keeps each stored
	// factor above its tail charge, the one property prunedInsert
	// relies on, but spreads [tmin, tmax] so far apart that the band
	// between its safe-accept and safe-reject tests is wide and the
	// exact scan decides often. (The field stops being conservative,
	// which the equivalence does not need.) The field's cached tail
	// extremes follow the edit, as accumulators read them in place.
	spread := MustNewProblem(gen(network.PaperConfig(600), 9), radio.DefaultParams(),
		WithSparseField(SparseOptions{Cutoff: radio.DefaultParams().GammaEps() / 100}))
	sf := spread.field.(*SparseField)
	for j := 1; j < len(sf.tailCap); j += 2 {
		sf.tailCap[j] /= 2
	}
	sf.tailMin, sf.tailMax = slices.Min(sf.tailCap), slices.Max(sf.tailCap)
	out = append(out, tailBoundedField{"spread-tails-600", spread})

	noisy := radio.DefaultParams()
	noisy.N0 = 1e-7
	out = append(out, tailBoundedField{"noise-300", MustNewProblem(gen(network.PaperConfig(300), 3), noisy,
		WithSparseField(SparseOptions{}))})
	return out
}

// plainFits is Accum.fits as it stood before it checked a witness
// first, scanned an ascending copy and read resident rows in place:
// i's own load, then every active receiver's load plus i's
// contribution, in the order given. It is the reference the production
// admission paths are pinned to.
func plainFits(p radio.Params, a *Accum, i int, active []int, budget float64) bool {
	if !p.InformedBudget(a.Load(i), budget) {
		return false
	}
	for _, j := range active {
		if !p.InformedBudget(a.Load(j)+a.Contribution(i, j), budget) {
			return false
		}
	}
	return true
}

// plainInsert is the greedy insertion loop over plainFits, from a's
// empty active set.
func plainInsert(p radio.Params, a *Accum, order []int, budget float64) (active []int, rejected int) {
	for _, i := range order {
		if !plainFits(p, a, i, active, budget) {
			rejected++
			continue
		}
		a.AddLink(i)
		active = append(active, i)
	}
	return active, rejected
}

// insertField names a problem whose greedy insertion is pinned to
// plainInsert. build returns the problem for one run: a dense field's
// residency changes as runs fill rows, so a fresh or partly resident
// field is rebuilt for each. pruned says whether the field carries a
// tail bound, so that greedyInsert must take prunedInsert on it.
type insertField struct {
	name   string
	build  func() *Problem
	pruned bool
}

// denseResidencyFields are n=2000 paper-density dense fields over one
// link set: fresh (the admission test reads every factor through the
// scalar kernel), partly resident (every third sender row filled) and
// fully resident (every read in place).
func denseResidencyFields(t testing.TB) []insertField {
	t.Helper()
	const n = 2000
	cfg := network.PaperConfig(n)
	cfg.Region = 500 * math.Sqrt(n/300.0)
	ls, err := network.Generate(cfg, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	filled := func(fill func(i int) bool) *Problem {
		pr := MustNewProblem(ls, radio.DefaultParams())
		for i := 0; i < n; i++ {
			if fill(i) {
				pr.field.(*DenseField).row(i)
			}
		}
		return pr
	}
	resident := filled(func(int) bool { return true }) // nothing left to fill: shared
	return []insertField{
		{"dense-2000-fresh", func() *Problem { return filled(func(int) bool { return false }) }, false},
		{"dense-2000-partly", func() *Problem { return filled(func(i int) bool { return i%3 == 0 }) }, false},
		{"dense-2000-resident", func() *Problem { return resident }, false},
	}
}

// TestGreedyInsertMatchesPlainLoop pins the production admission
// paths to plainInsert, a copy of the loop they replaced: greedyInsert
// (prunedInsert on tail-bounded fields) and insert itself (witness
// first, ascending scan, resident rows read in place). Over the sparse
// fields, each of which must carry a tail bound so that greedyInsert
// provably runs prunedInsert on it, and the fresh, partly and fully
// resident dense fields, which must not; and over Greedy's own pick
// order, a Mask and a Weights selection's (with the scoped accumulator
// Greedy gives a strict subset) and greedy-sharded's tile pass (four
// tiles against the reserved budget), each must admit the same senders
// in the same order and reject the same number. Greedy and
// greedy-sharded both run these paths, so comparing them with each
// other cannot catch a bug; this test compares them with the plain
// loop.
func TestGreedyInsertMatchesPlainLoop(t *testing.T) {
	var fields []insertField
	for _, f := range tailBoundedFields(t) {
		pr := f.pr
		fields = append(fields, insertField{f.name, func() *Problem { return pr }, true})
	}
	fields = append(fields, denseResidencyFields(t)...)
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			n := f.build().N()
			mask, weights := make([]bool, n), make([]float64, n)
			for i := range mask {
				mask[i] = i%3 != 0
				weights[i] = float64(i*7919%13) - 2 // ties, and some ≤ 0 (excluded)
			}
			for _, sel := range []struct {
				name string
				sel  Selection
			}{{"greedy", Selection{}}, {"mask", Selection{Mask: mask}}, {"weights", Selection{Weights: weights}}} {
				pr := f.build()
				scr := handleScratch(t, pr)
				order := slices.Clone(greedyOrder(pr, scr, sel.sel))
				ref := NewAccum(pr)
				want, wantRejected := plainInsert(pr.Params, ref, order, ref.gammaEps)
				if len(want) == 0 {
					t.Fatalf("%s: plain loop admitted nothing", sel.name)
				}
				for _, path := range []string{"greedyInsert", "insert"} {
					pr := f.build()
					var got []int
					var gotRejected int
					if path == "insert" {
						acc := NewAccum(pr)
						got, gotRejected, _ = insert(pr.Params, acc, order, acc.gammaEps, nil)
					} else {
						acc := scr.noiseAccum(pr)
						if len(order) < n {
							acc = scr.scopedAccum(pr, order)
						}
						if acc.hasTail != f.pruned {
							t.Fatalf("%s: field carries a tail bound: %v, want %v", sel.name, acc.hasTail, f.pruned)
						}
						got, gotRejected, _ = greedyInsert(pr, scr, acc, order)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s admitted %v\nplain loop admitted %v", sel.name, path, got, want)
					}
					if gotRejected != wantRejected {
						t.Fatalf("%s/%s rejected %d, plain loop %d", sel.name, path, gotRejected, wantRejected)
					}
				}
			}
			assertTilePassMatchesPlainLoop(t, f.build())
		})
	}
}

// assertTilePassMatchesPlainLoop partitions Greedy's order into four
// tiles and runs each through insert on a restricted accumulator, as a
// greedy-sharded worker does, against plainInsert on its own.
func assertTilePassMatchesPlainLoop(t *testing.T, pr *Problem) {
	t.Helper()
	scr := handleScratch(t, pr)
	order := slices.Clone(greedyOrder(pr, scr, Selection{}))
	var sb shardBufs
	tiles := sb.partition(pr, scr, 4, order)
	if tiles < 2 {
		t.Fatalf("partition made %d tiles", tiles)
	}
	budget := pr.GammaEps() * (1 - Sharded{}.reserveFrac())
	acc, ref := scr.zeroAccum(pr), NewAccum(pr)
	admitted := 0
	for tile := 0; tile < tiles; tile++ {
		members := sb.tileOrder[sb.tileStart[tile]:sb.tileStart[tile+1]]
		ref.restrict(members)
		want, wantRejected := plainInsert(pr.Params, ref, members, budget)
		acc.restrict(members)
		got, gotRejected, _ := insert(pr.Params, acc, members, budget, nil)
		if !slices.Equal(got, want) || gotRejected != wantRejected {
			t.Fatalf("tile %d: insert admitted %v (rejected %d)\nplain loop admitted %v (rejected %d)",
				tile, got, gotRejected, want, wantRejected)
		}
		admitted += len(want)
	}
	if admitted == 0 {
		t.Fatal("tile pass admitted nothing")
	}
}
