package sched

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
)

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

// TestGreedyInsertMatchesPlainLoop pins greedyInsert's pruned path on
// tail-bounded fields to the plain insert loop: from fresh noise
// accumulators, over Greedy's own pick order and over a Mask and a
// Weights selection's, both must admit the same senders in the same
// order and reject the same number. Greedy and greedy-sharded both run
// greedyInsert, so comparing them with each other cannot catch a
// pruning bug; this test compares the pruned loop with the plain one.
func TestGreedyInsertMatchesPlainLoop(t *testing.T) {
	for _, f := range tailBoundedFields(t) {
		t.Run(f.name, func(t *testing.T) {
			pr := f.pr
			n := pr.N()
			mask, weights := make([]bool, n), make([]float64, n)
			for i := range mask {
				mask[i] = i%3 != 0
				weights[i] = float64(i*7919%13) - 2 // ties, and some ≤ 0 (excluded)
			}
			var scr Scratch
			for _, sel := range []struct {
				name string
				sel  Selection
			}{{"greedy", Selection{}}, {"mask", Selection{Mask: mask}}, {"weights", Selection{Weights: weights}}} {
				order := slices.Clone(greedyOrder(pr, &scr, sel.sel))
				acc := scr.noiseAccum(pr)
				if !acc.hasTail {
					t.Fatalf("%s: field carries no tail bound", sel.name)
				}
				got, gotRejected := greedyInsert(pr, &scr, acc, order)
				ref := NewAccum(pr)
				want, wantRejected := insert(pr.Params, ref, order, ref.gammaEps, nil)
				if len(want) == 0 {
					t.Fatalf("%s: plain loop admitted nothing", sel.name)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: pruned loop admitted %v\nplain loop admitted %v", sel.name, got, want)
				}
				if gotRejected != wantRejected {
					t.Fatalf("%s: pruned loop rejected %d, plain loop %d", sel.name, gotRejected, wantRejected)
				}
			}
		})
	}
}
