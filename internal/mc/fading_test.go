package mc

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
)

// legacySimulate is Simulate as it ran before radio.RowOutcome: an m×m
// gains table per worker filled with one exponential per pair, every
// slot of a coherence block re-deciding its receivers from the table,
// and per-slot lists of failed links. It is kept here only as the
// reference TestSimulateMatchesExactLoop compares against.
func legacySimulate(pr *sched.Problem, s sched.Schedule, cfg Config) Result {
	slots := cfg.Slots
	if slots == 0 {
		slots = DefaultSlots
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := s.Len()
	res := Result{
		PerLinkFailures: make([]int64, m),
		Expected:        sched.ExpectedFailures(pr, s),
		Slots:           slots,
	}
	if m == 0 || slots == 0 {
		for i := 0; i < slots; i++ {
			res.Failures.Add(0)
		}
		return res
	}
	mean := make([][]float64, m)
	for j := 0; j < m; j++ {
		mean[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			mean[j][i] = pr.Params.MeanGainP(pr.PowerOf(s.Active[i]),
				pr.Links.Dist(s.Active[i], s.Active[j]))
		}
	}
	params := pr.Params
	gammaTh := params.GammaTh
	coherence := cfg.CoherenceSlots
	if coherence <= 0 {
		coherence = 1
	}
	type slotOut struct {
		failed    int
		linksDown []int32
	}
	outs := make([]slotOut, slots)
	var wg sync.WaitGroup
	blocks := (slots + coherence - 1) / coherence
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gains := make([]float64, m*m)
			for block := range next {
				src := rng.Stream(cfg.Seed, "mc-slot", uint64(cfg.BlockOffset+block))
				for j := 0; j < m; j++ {
					for i := 0; i < m; i++ {
						gains[j*m+i] = src.Exp(mean[j][i])
					}
				}
				lo := block * coherence
				hi := min(lo+coherence, slots)
				for slot := lo; slot < hi; slot++ {
					out := &outs[slot]
					for j := 0; j < m; j++ {
						den := params.N0
						row := gains[j*m : (j+1)*m]
						for i, g := range row {
							if i != j {
								den += g
							}
						}
						failed := false
						if den > 0 {
							failed = row[j]/den < gammaTh
						}
						if failed {
							out.failed++
							out.linksDown = append(out.linksDown, int32(j))
						}
					}
				}
			}
		}()
	}
	for block := 0; block < blocks; block++ {
		next <- block
	}
	close(next)
	wg.Wait()
	for slot := range outs {
		res.Failures.Add(float64(outs[slot].failed))
		for _, j := range outs[slot].linksDown {
			res.PerLinkFailures[j]++
		}
	}
	return res
}

// paperDensityProblem draws n links at the paper's density (300 per
// 500×500) under ε. noise adds N0 > 0 (about a 1% outage term for a
// 10-unit link); power gives every third link a 0.5–4× power override.
func paperDensityProblem(t testing.TB, n int, seed uint64, eps float64, noise, power bool) *sched.Problem {
	t.Helper()
	cfg := network.PaperConfig(n)
	cfg.Region = 500 * math.Sqrt(float64(n)/300)
	ls, err := network.Generate(cfg, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if power {
		links := ls.Links()
		src := rng.New(seed)
		for i := range links {
			if i%3 == 0 {
				links[i].Power = 0.5 + 3.5*src.Float64()
			}
		}
		ls = network.MustNewLinkSet(links)
	}
	p := radio.DefaultParams()
	p.Eps = eps
	if noise {
		p.N0 = 1e-5
	}
	return sched.MustNewProblem(ls, p)
}

// TestSimulateMatchesExactLoop: Simulate's Results are deeply equal to
// the exact loop's (ExactRows aside, which the old loop did not count)
// over paper-density n ∈ {100, 600, 2000}, the RLE, LDP, ApproxLogN,
// ApproxDiversity and all-links schedules, ε ∈ {0.005, 0.01, 0.05,
// 0.3}, and variants rotating N0 > 0, per-link power, coherence 0 and
// 3, 1, 2 and 4 workers, and non-zero block offsets. The deterministic
// model's schedules pack receivers near γ_th, so those cells force
// fallbacks; the test fails unless some do.
func TestSimulateMatchesExactLoop(t *testing.T) {
	type variant struct {
		coherence, workers, offset int
		noise, power               bool
	}
	variants := []variant{
		{0, 1, 0, false, false},
		{3, 2, 0, false, false},
		{0, 4, 7, false, true},
		{3, 1, 5, true, false},
		{0, 2, 0, true, true},
		{3, 4, 11, false, false},
	}
	algs := []sched.Algorithm{sched.RLE{}, sched.LDP{}, sched.ApproxLogN{}, sched.ApproxDiversity{}}
	var rows, exact int64
	for ni, n := range []int{100, 600, 2000} {
		slots := map[int]int{100: 30, 600: 12, 2000: 6}[n]
		for ei, eps := range []float64{0.005, 0.01, 0.05, 0.3} {
			v := variants[(ni*4+ei)%len(variants)]
			pr := paperDensityProblem(t, n, uint64(10+ni), eps, v.noise, v.power)
			var schedules []sched.Schedule
			for _, a := range algs {
				schedules = append(schedules, a.Schedule(pr))
			}
			// The all-links schedule ignores ε: run it once per n at
			// n = 2000 (its m×m reference table is 32 MB per worker).
			if n < 2000 || ei == 0 {
				schedules = append(schedules, fullSchedule(pr))
			}
			for _, s := range schedules {
				cfg := Config{Slots: slots, Seed: uint64(100 + ei), Workers: v.workers,
					CoherenceSlots: v.coherence, BlockOffset: v.offset}
				if s.Len() == n && n == 2000 {
					cfg.Slots, cfg.Workers = 3, 1
				}
				name := fmt.Sprintf("n=%d/eps=%g/%s/m=%d/%+v", n, eps, s.Algorithm, s.Len(), v)
				got, err := Simulate(pr, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := legacySimulate(pr, s, cfg)
				want.ExactRows = got.ExactRows
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Simulate diverged from the exact loop:\n got %+v\nwant %+v", name, got, want)
				}
				blocks := (cfg.Slots + max(cfg.CoherenceSlots, 1) - 1) / max(cfg.CoherenceSlots, 1)
				rows += int64(blocks * s.Len())
				exact += got.ExactRows
			}
		}
	}
	t.Logf("%d of %d block rows replayed exactly (%.2f%%)", exact, rows, 100*float64(exact)/float64(rows))
	if exact == 0 {
		t.Fatal("no row reached the exact replay: the fallback is untested")
	}
}

// TestAdaptiveCountsExactRows: SimulateAdaptive's batches add their
// exact-replay counts, so the total equals one long run's.
func TestAdaptiveCountsExactRows(t *testing.T) {
	pr := denseProblem(t, 80, 8)
	s := (sched.ApproxDiversity{}).Schedule(pr)
	adaptive, err := SimulateAdaptive(pr, s, AdaptiveConfig{TargetCI: 1e-12, BatchSlots: 60, MaxSlots: 240, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Simulate(pr, s, Config{Slots: 240, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.ExactRows != long.ExactRows || long.ExactRows == 0 {
		t.Errorf("exact rows: adaptive %d, one long run %d (want equal and non-zero)", adaptive.ExactRows, long.ExactRows)
	}
}

// BenchmarkSimulateWarm is the load benchmark's solve_mc shape: the RLE
// schedule of an n=2000 paper-density set at ε = 0.05, 200 slots, one
// worker, a fixed seed per op (so active and exact_rows/op are per-op
// constants the bench gate compares exactly).
func BenchmarkSimulateWarm(b *testing.B) {
	pr := paperDensityProblem(b, 2000, 1, 0.05, false, false)
	s := (sched.RLE{}).Schedule(pr)
	var exact int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(pr, s, Config{Slots: 200, Seed: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		exact += res.ExactRows
	}
	b.ReportMetric(float64(s.Len()), "active")
	b.ReportMetric(float64(exact)/float64(b.N), "exact_rows/op")
}
