package sched

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
)

func genLinkSet(t testing.TB, n int, seed uint64, region float64) *network.LinkSet {
	t.Helper()
	cfg := network.PaperConfig(n)
	cfg.Region = region
	ls, err := network.Generate(cfg, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// TestSparseStoredFactorsExact pins the sparse contract: every stored
// factor is bit-identical to the dense one (both backends run the
// identical radio.FieldKernel operation sequence), and every truncated
// off-diagonal pair really is covered by the per-unit-power tail bound.
func TestSparseStoredFactorsExact(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ls := genLinkSet(t, 200, seed, 500)
		p := radio.DefaultParams()
		dense := MustNewProblem(ls, p)
		sparse := MustNewProblem(ls, p, WithSparseField(SparseOptions{}))
		sf := sparse.Field().(*SparseField)
		if sf.StoredPairs() == 0 {
			t.Fatalf("seed %d: sparse field stored nothing", seed)
		}
		stored := 0
		for j := 0; j < ls.Len(); j++ {
			for i := 0; i < ls.Len(); i++ {
				fs, fd := sparse.Factor(i, j), dense.Factor(i, j)
				switch {
				case fs != 0:
					stored++
					if fs != fd {
						t.Fatalf("seed %d: stored factor (%d,%d) = %v, dense %v", seed, i, j, fs, fd)
					}
				case i != j:
					if cap := sf.TailBound(j) * sf.PowerOf(i); fd > cap {
						t.Fatalf("seed %d: truncated factor (%d,%d) = %v exceeds tail cap %v", seed, i, j, fd, cap)
					}
				}
			}
		}
		if stored != sf.StoredPairs() {
			t.Errorf("seed %d: StoredPairs() = %d, counted %d", seed, sf.StoredPairs(), stored)
		}
		if n := ls.Len(); sf.StoredPairs() >= n*n-n {
			t.Errorf("seed %d: sparse field stored the full matrix (%d pairs) — no truncation happened", seed, sf.StoredPairs())
		}
	}
}

// TestSparseNeverOverAdmits is the differential safety proof: any
// schedule an algorithm produces on the sparse (truncated) problem must
// verify feasible under the exact dense factors — truncation may only
// lose throughput, never admit an infeasible set. Swept across seeds
// and cutoffs up to very aggressive truncation.
func TestSparseNeverOverAdmits(t *testing.T) {
	p := radio.DefaultParams()
	algos := []Algorithm{Greedy{}, RLE{}, DLS{Seed: 1}, LDP{}, Exact{MaxN: 60}}
	for seed := uint64(1); seed <= 5; seed++ {
		ls := genLinkSet(t, 40, seed, 150)
		dense := MustNewProblem(ls, p)
		for _, cutoff := range []float64{0, 1e-4, 1e-3, 5e-3} {
			sparse := MustNewProblem(ls, p, WithSparseField(SparseOptions{Cutoff: cutoff}))
			for _, a := range algos {
				if _, isExact := a.(Exact); isExact && ls.Len() > 24 {
					continue
				}
				s := a.Schedule(sparse)
				if v := Verify(sparse, s); len(v) != 0 {
					t.Errorf("seed %d cutoff %v: %s schedule fails its own sparse verify: %v", seed, cutoff, a.Name(), v[0])
				}
				if v := Verify(dense, s); len(v) != 0 {
					t.Errorf("seed %d cutoff %v: %s sparse schedule infeasible under dense factors: %v", seed, cutoff, a.Name(), v[0])
				}
			}
		}
	}
}

// TestSparseFullCoverageMatchesDense: with a cutoff small enough that
// the truncation radius covers the whole deployment, the sparse field
// stores every pair and the algorithms reproduce the dense schedules
// exactly — the accumulator's far-field term cancels bit-for-bit.
func TestSparseFullCoverageMatchesDense(t *testing.T) {
	p := radio.DefaultParams()
	for seed := uint64(1); seed <= 3; seed++ {
		ls := genLinkSet(t, 150, seed, 400)
		dense := MustNewProblem(ls, p)
		sparse := MustNewProblem(ls, p, WithSparseField(SparseOptions{Cutoff: 1e-12}))
		n := ls.Len()
		if sf := sparse.Field().(*SparseField); sf.StoredPairs() != n*n-n {
			t.Fatalf("seed %d: cutoff 1e-12 should store all %d pairs, got %d", seed, n*n-n, sf.StoredPairs())
		}
		for _, a := range []Algorithm{Greedy{}, RLE{}, DLS{Seed: 1}} {
			ds, ss := a.Schedule(dense), a.Schedule(sparse)
			if len(ds.Active) != len(ss.Active) {
				t.Fatalf("seed %d: %s dense %d links, sparse-full %d", seed, a.Name(), len(ds.Active), len(ss.Active))
			}
			for k := range ds.Active {
				if ds.Active[k] != ss.Active[k] {
					t.Fatalf("seed %d: %s schedules diverge at %d: %v vs %v", seed, a.Name(), k, ds.Active, ss.Active)
				}
			}
		}
	}
}

// TestSparseThroughputGapBounded quantifies the cost of truncation at
// the default cutoff: per-receiver load inflation is at most
// cutoff·|active| (each truncated active sender is charged ≤ cutoff of
// budget), so the throughput lost against the dense run stays small.
func TestSparseThroughputGapBounded(t *testing.T) {
	p := radio.DefaultParams()
	for seed := uint64(1); seed <= 3; seed++ {
		ls := genLinkSet(t, 300, seed, 500)
		dense := MustNewProblem(ls, p)
		sparse := MustNewProblem(ls, p, WithSparseField(SparseOptions{}))
		for _, a := range []Algorithm{Greedy{}, RLE{}} {
			dt := a.Schedule(dense).Throughput(dense)
			st := a.Schedule(sparse).Throughput(sparse)
			if st > dt+1e-9 {
				t.Errorf("seed %d: %s sparse throughput %v exceeds dense %v — truncation must be conservative", seed, a.Name(), st, dt)
			}
			if st < 0.9*dt {
				t.Errorf("seed %d: %s sparse throughput %v lost more than 10%% of dense %v at the default cutoff", seed, a.Name(), st, dt)
			}
		}
		// The analytic form of the bound: for the sparse Greedy schedule,
		// each receiver's sparse-view load exceeds its dense-view load by
		// at most cutoff·|active|.
		s := (Greedy{}).Schedule(sparse)
		cutoff := DefaultSparseCutoffFrac * p.GammaEps()
		slack := cutoff*float64(len(s.Active)) + 1e-12
		for _, j := range s.Active {
			dl := dense.NoiseTerm(j) + dense.InterferenceOn(j, s.Active)
			sl := sparse.NoiseTerm(j) + sparse.InterferenceOn(j, s.Active)
			if sl < dl-1e-12 {
				t.Errorf("seed %d: receiver %d sparse load %v below dense %v — not conservative", seed, j, sl, dl)
			}
			if sl > dl+slack {
				t.Errorf("seed %d: receiver %d sparse load %v exceeds dense %v by more than the tail budget %v", seed, j, sl, dl, slack)
			}
		}
	}
}

// TestAccumIncrementalMatchesRecompute drives a random add/remove
// sequence and checks the incremental loads against a from-scratch
// recomputation through the field, on both backends.
func TestAccumIncrementalMatchesRecompute(t *testing.T) {
	ls := genLinkSet(t, 120, 7, 300)
	p := radio.DefaultParams()
	for _, opt := range []Option{WithDenseField(), WithSparseField(SparseOptions{})} {
		pr := MustNewProblem(ls, p, opt)
		acc := NewAccum(pr)
		src := rng.Stream(99, "accum-test", 0)
		var active []int
		inSet := make([]bool, pr.N())
		for step := 0; step < 400; step++ {
			i := int(src.Uint64() % uint64(pr.N()))
			if inSet[i] {
				acc.RemoveLink(i)
				inSet[i] = false
				for k, v := range active {
					if v == i {
						active = append(active[:k], active[k+1:]...)
						break
					}
				}
			} else {
				acc.AddLink(i)
				inSet[i] = true
				active = append(active, i)
			}
			// Spot-check a few receivers every step, all at the end.
			stride := 17
			if step == 399 {
				stride = 1
			}
			for j := step % stride; j < pr.N(); j += stride {
				want := pr.NoiseTerm(j) + pr.InterferenceOn(j, active)
				if got := acc.Load(j); math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s step %d: Load(%d) = %v, recompute %v", pr.FieldName(), step, j, got, want)
				}
				if hr := acc.Headroom(j); math.Abs(hr-(pr.GammaEps()-acc.Load(j))) > 1e-12 {
					t.Fatalf("%s: Headroom(%d) inconsistent with Load", pr.FieldName(), j)
				}
			}
		}
	}
}

// TestSparseWorkerCountBitIdentical proves the sender-sharded sparse
// build produces the same CSR arrays — offsets, ranks, and factor bits
// — at any worker count: shards fill disjoint sender ranges into
// private arenas, and the merge is a pure copy.
func TestSparseWorkerCountBitIdentical(t *testing.T) {
	ls := genLinkSet(t, 400, 13, 600)
	p := radio.DefaultParams()
	ref, err := newSparseField(context.Background(), ls, p, SparseOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 16} {
		sf, err := newSparseField(context.Background(), ls, p, SparseOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if sf.pairs != ref.pairs {
			t.Fatalf("workers=%d: %d pairs, serial %d", workers, sf.pairs, ref.pairs)
		}
		for i := 0; i <= sf.n; i++ {
			if sf.colStart[i] != ref.colStart[i] {
				t.Fatalf("workers=%d: colStart[%d] = %d, serial %d", workers, i, sf.colStart[i], ref.colStart[i])
			}
		}
		for k := range ref.colIdx {
			if sf.colIdx[k] != ref.colIdx[k] || sf.colF[k] != ref.colF[k] {
				t.Fatalf("workers=%d: entry %d = (%d, %x), serial (%d, %x)", workers, k,
					sf.colIdx[k], math.Float64bits(sf.colF[k]), ref.colIdx[k], math.Float64bits(ref.colF[k]))
			}
		}
	}
}

// TestHeadroomAllLinksUnusable pins the degenerate-extrema guard: when
// every link's noise term alone exhausts its budget, headroom must
// return the untouched budget with unit spread (not 0/∞ garbage from
// the empty min/max), and every algorithm must schedule the empty set
// without panicking.
func TestHeadroomAllLinksUnusable(t *testing.T) {
	ls := genLinkSet(t, 30, 3, 200)
	p := radio.DefaultParams()
	p.N0 = 1 // noise factor N0·d^α ≥ 125 ≫ γ_ε/2 for every link
	pr := MustNewProblem(ls, p)

	budget, spread, usable := pr.headroomIn(make([]bool, pr.N()))
	if budget != pr.GammaEps() || spread != 1 {
		t.Errorf("headroom all-unusable: budget %v spread %v, want %v and 1", budget, spread, pr.GammaEps())
	}
	for j, u := range usable {
		if u {
			t.Fatalf("link %d marked usable with noise %v", j, pr.NoiseTerm(j))
		}
	}
	dBudget, dSpread, dUsable := pr.detHeadroomIn(make([]bool, pr.N()))
	if dBudget != 1 || dSpread != 1 {
		t.Errorf("detHeadroom all-unusable: budget %v spread %v, want 1 and 1", dBudget, dSpread)
	}
	for j, u := range dUsable {
		if u {
			t.Fatalf("link %d det-usable with noise %v", j, pr.detNoise(j))
		}
	}
	for _, a := range []Algorithm{LDP{}, RLE{}, DLS{Seed: 1}, ApproxLogN{}, ApproxDiversity{}, Greedy{}} {
		if s := a.Schedule(pr); s.Len() != 0 {
			t.Errorf("%s scheduled %d noise-drowned links", a.Name(), s.Len())
		}
	}
}

// TestSparseBuildBeatsDenseAtScale is the construction-cost smoke the
// sparse backend must keep winning: at n = 8000 under the paper
// parameters (α = 3, density-preserving region), building the sparse
// field is faster than a dense field with every sender row filled. A
// dense build alone is O(n) and fills rows as solves read them, so the
// dense side here is build plus a fill of all n rows — the n² work a
// dense field ends up paying once every row is read, and the cost the
// sparse build exists to scale past. Min-of-3 on each side absorbs
// scheduler noise.
func TestSparseBuildBeatsDenseAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke")
	}
	const n = 8000
	ls := genLinkSet(t, n, 42, 500*math.Sqrt(n/300.0))
	p := radio.DefaultParams()
	timeBuild := func(build func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < 3; r++ {
			start := time.Now()
			build()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	dense := timeBuild(func() { fillAllRows(MustNewProblem(ls, p)) })
	sparse := timeBuild(func() { MustNewProblem(ls, p, WithSparseField(SparseOptions{})) })
	t.Logf("n=%d build: dense with every row filled %v, sparse %v", n, dense, sparse)
	if sparse >= dense {
		t.Errorf("sparse build %v is not faster than filling every dense row (%v) at n=%d", sparse, dense, n)
	}
}

// TestSparseScalesPastDenseMatrix is the headline scale test: an
// instance where the dense matrix would be 3.2 GB (20000² float64)
// schedules and verifies on the sparse backend with a few hundred
// thousand stored pairs. α is raised to 4.5 (fast far-field decay) and
// the region widened to keep per-receiver neighborhoods small — the
// regime a sparse field exists for.
func TestSparseScalesPastDenseMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	const n = 20000
	cfg := network.GenConfig{N: n, Region: 20000, MinLinkLen: 5, MaxLinkLen: 20, Rate: 1}
	ls, err := network.Generate(cfg, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := radio.DefaultParams()
	p.Alpha = 4.5
	pr, err := NewProblem(ls, p, WithSparseField(SparseOptions{Cutoff: 1e-7}))
	if err != nil {
		t.Fatal(err)
	}
	sf := pr.Field().(*SparseField)
	if pairs := sf.StoredPairs(); pairs == 0 || pairs > n*n/100 {
		t.Fatalf("stored pairs %d: want a small positive fraction of the %d dense entries", pairs, n*n)
	}
	s := (RLE{}).Schedule(pr)
	if s.Len() < n/100 {
		t.Fatalf("RLE scheduled only %d of %d links", s.Len(), n)
	}
	// Sparse Verify is conservative: a clean pass certifies feasibility
	// under the exact factors too.
	if v := Verify(pr, s); len(v) != 0 {
		t.Fatalf("RLE schedule infeasible at scale: %d violations, first %v", len(v), v[0])
	}
	t.Logf("n=%d: %d stored pairs (%.3f%% of dense), RLE scheduled %d links",
		n, sf.StoredPairs(), 100*float64(sf.StoredPairs())/float64(n)/float64(n), s.Len())
}
