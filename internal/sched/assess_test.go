package sched

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// The three-pass verification Assess replaced, kept verbatim as the
// differential oracle: Verify, SuccessProbabilities and ExpectedFailures
// each walked every active receiver's load on their own.

func legacyVerify(pr *Problem, s Schedule) []Violation {
	var out []Violation
	budget := pr.GammaEps()
	for _, j := range s.Active {
		if f := scheduleLoad(pr, s, j); !pr.Params.Informed(f) {
			out = append(out, Violation{Link: j, Factor: f, Budget: budget})
		}
	}
	return out
}

func legacySuccessProbabilities(pr *Problem, s Schedule) []float64 {
	out := make([]float64, len(s.Active))
	for k, j := range s.Active {
		out[k] = prExp(scheduleLoad(pr, s, j))
	}
	return out
}

func legacyExpectedFailures(pr *Problem, s Schedule) float64 {
	var sum mathx.Accumulator
	for _, p := range legacySuccessProbabilities(pr, s) {
		sum.Add(1 - p)
	}
	return sum.Sum()
}

// assertAssessBitIdentical compares Assess and its four views against
// the legacy passes bit for bit, and returns the violation count.
func assertAssessBitIdentical(t *testing.T, label string, pr *Problem, s Schedule) int {
	t.Helper()
	got := Assess(pr, s)
	want := legacyVerify(pr, s)
	if (got.Violations == nil) != (want == nil) || len(got.Violations) != len(want) {
		t.Fatalf("%s: %d violations (nil=%v), legacy %d (nil=%v)", label,
			len(got.Violations), got.Violations == nil, len(want), want == nil)
	}
	for i, v := range want {
		g := got.Violations[i]
		if g.Link != v.Link || math.Float64bits(g.Factor) != math.Float64bits(v.Factor) ||
			math.Float64bits(g.Budget) != math.Float64bits(v.Budget) {
			t.Fatalf("%s: violation %d = %+v, legacy %+v", label, i, g, v)
		}
	}
	wantProbs := legacySuccessProbabilities(pr, s)
	if got.SuccessProb == nil || len(got.SuccessProb) != len(wantProbs) {
		t.Fatalf("%s: %d success probabilities (nil=%v), legacy %d", label,
			len(got.SuccessProb), got.SuccessProb == nil, len(wantProbs))
	}
	for k, p := range wantProbs {
		if math.Float64bits(got.SuccessProb[k]) != math.Float64bits(p) {
			t.Fatalf("%s: success_prob[%d] = %v, legacy %v", label, k, got.SuccessProb[k], p)
		}
	}
	wantEF := legacyExpectedFailures(pr, s)
	if math.Float64bits(got.ExpectedFailures) != math.Float64bits(wantEF) {
		t.Fatalf("%s: expected failures %v, legacy %v", label, got.ExpectedFailures, wantEF)
	}
	if got.Feasible() != (len(want) == 0) || Feasible(pr, s) != (len(want) == 0) {
		t.Fatalf("%s: Feasible disagrees with legacy Verify (%d violations)", label, len(want))
	}
	if len(Verify(pr, s)) != len(want) || len(SuccessProbabilities(pr, s)) != len(wantProbs) ||
		math.Float64bits(ExpectedFailures(pr, s)) != math.Float64bits(wantEF) {
		t.Fatalf("%s: a view of Assess disagrees with the legacy pass", label)
	}
	return len(want)
}

// TestAssessMatchesLegacyThreePass is the verify-once differential
// gate: over dense (fresh, and with every other row resident) and
// sparse fields — with noise, heterogeneous powers and log-uniform
// lengths on some draws — every registered algorithm's schedule,
// random (mostly infeasible) subsets, each subset reversed with one
// link repeated (an Active neither ascending nor duplicate-free, which
// the sender-major dense walk must sum in the same order) and the
// empty schedule assess bit-identically to the three separate passes.
func TestAssessMatchesLegacyThreePass(t *testing.T) {
	violations := 0
	for seed := uint64(1); seed <= 10; seed++ {
		dense := quickProblem(seed)
		partly := MustNewProblem(dense.Links, dense.Params)
		for i := 0; i < partly.N(); i += 2 {
			partly.field.(*DenseField).row(i)
		}
		backends := []struct {
			name string
			pr   *Problem
		}{
			{"dense", dense},
			{"dense-partly", partly},
			{"sparse", MustNewProblem(dense.Links, dense.Params, WithSparseField(SparseOptions{}))},
			{"sparse-5e-3", MustNewProblem(dense.Links, dense.Params, WithSparseField(SparseOptions{Cutoff: 5e-3}))},
		}
		for _, b := range backends {
			n := b.pr.N()
			for _, name := range Names() {
				if name == "exact" && n > 20 {
					continue // exhaustive search; small instances only
				}
				a, _ := Lookup(name)
				violations += assertAssessBitIdentical(t, b.name+"/"+name, b.pr, a.Schedule(b.pr))
			}
			src := rng.Stream(seed, "assess-subsets", 0)
			for k := 0; k < 8; k++ {
				density := src.Float64()
				var idx []int
				for i := 0; i < n; i++ {
					if src.Float64() < density {
						idx = append(idx, i)
					}
				}
				violations += assertAssessBitIdentical(t, b.name+"/random", b.pr, NewSchedule("random", idx))
				if len(idx) > 0 {
					unsorted := append(slices.Clone(idx), idx[len(idx)/2])
					slices.Reverse(unsorted)
					assertAssessBitIdentical(t, b.name+"/unsorted", b.pr, Schedule{Active: unsorted, Algorithm: "unsorted"})
				}
			}
			assertAssessBitIdentical(t, b.name+"/empty", b.pr, Schedule{})
		}
	}
	if violations == 0 {
		t.Fatal("no infeasible schedule exercised: violations went uncompared")
	}
}
