package fadingrls_test

// One benchmark per figure/table of the paper's evaluation (§V) plus
// the repository's ablation tables. Each bench iteration regenerates
// the corresponding table at a reduced statistical budget (the full
// budget is the cmd/experiments default); reported custom metrics carry
// the headline numbers so `go test -bench` output doubles as a compact
// reproduction record:
//
//   - Fig 5 benches report failures/slot for the worst fading-aware
//     algorithm and the best baseline at the densest sweep point;
//   - Fig 6 benches report the RLE and LDP throughput at N=500 (6a)
//     and α=4.5 (6b);
//   - the ratio bench reports the worst observed OPT/RLE.

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	fadingrls "repro"
	"repro/internal/obs"
)

// benchSeed seeds every table benchmark. It is a constant, not b.N, so
// each iteration — and each run, whatever iteration count it settles
// on — measures the same instances and reports the same figures.
const benchSeed = 1

// benchOpts is the reduced per-iteration budget: 6 instances × 50
// slots keeps an iteration in the hundreds of milliseconds while
// preserving every qualitative shape.
func benchOpts() fadingrls.ExperimentOptions {
	return fadingrls.ExperimentOptions{Seed: benchSeed, Instances: 6, Slots: 50}
}

func runSpec(b *testing.B, id string) *fadingrls.ResultTable {
	b.Helper()
	spec, ok := fadingrls.Experiments()[id]
	if !ok {
		b.Fatalf("spec %q missing", id)
	}
	tab, err := fadingrls.RunExperiment(spec, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

func BenchmarkFig5a(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		tab = runSpec(b, "fig5a")
	}
	last := len(tab.X) - 1
	b.ReportMetric(maxMean(tab, last, "ldp", "rle"), "aware-fails/slot")
	b.ReportMetric(minMean(tab, last, "approxlogn", "approxdiversity"), "baseline-fails/slot")
}

func BenchmarkFig5b(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		tab = runSpec(b, "fig5b")
	}
	// α = 2.5 (index 0) is the harshest point for the baselines.
	b.ReportMetric(maxMean(tab, 0, "ldp", "rle"), "aware-fails/slot")
	b.ReportMetric(minMean(tab, 0, "approxlogn", "approxdiversity"), "baseline-fails/slot")
}

func BenchmarkFig5aAnalytic(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		tab = runSpec(b, "fig5a-analytic")
	}
	last := len(tab.X) - 1
	b.ReportMetric(minMean(tab, last, "approxlogn", "approxdiversity"), "baseline-Efails/slot")
}

func BenchmarkFig6a(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		tab = runSpec(b, "fig6a")
	}
	last := len(tab.X) - 1
	b.ReportMetric(tab.Cell("rle", last).Mean(), "rle-throughput@500")
	b.ReportMetric(tab.Cell("ldp", last).Mean(), "ldp-throughput@500")
}

func BenchmarkFig6b(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		tab = runSpec(b, "fig6b")
	}
	last := len(tab.X) - 1
	b.ReportMetric(tab.Cell("rle", last).Mean(), "rle-throughput@a4.5")
	b.ReportMetric(tab.Cell("ldp", last).Mean(), "ldp-throughput@a4.5")
}

func BenchmarkTableARatios(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = fadingrls.RunRatioTable(fadingrls.ExperimentOptions{Seed: benchSeed, Instances: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for i := range tab.X {
		if m := tab.Cell("OPT/rle", i).Max(); m > worst {
			worst = m
		}
	}
	b.ReportMetric(worst, "worst-OPT/RLE")
}

func BenchmarkTableBThm31(b *testing.B) {
	b.ReportAllocs()
	var rows []fadingrls.Thm31Row
	for i := 0; i < b.N; i++ {
		rows = fadingrls.RunThm31Table(benchSeed, 20000)
	}
	worst := 0.0
	for _, r := range rows {
		if d := r.Deviations(); d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst, "worst-sigma-dev")
}

func BenchmarkTableCAblationClasses(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		tab = runSpec(b, "ablation-classes")
	}
	last := len(tab.X) - 1
	b.ReportMetric(tab.Cell("ldp", last).Mean(), "nested@500")
	b.ReportMetric(tab.Cell("ldp-banded", last).Mean(), "banded@500")
}

func BenchmarkTableCAblationC2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSpec(b, "ablation-c2")
	}
}

func BenchmarkTableDAblationDLS(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		tab = runSpec(b, "ablation-dls")
	}
	last := len(tab.X) - 1
	b.ReportMetric(tab.Cell("dls-48r", last).Mean(), "dls48@500")
}

func BenchmarkTableEMultislot(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = fadingrls.RunMultislotTable(fadingrls.ExperimentOptions{Seed: benchSeed, Instances: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(tab.X) - 1
	b.ReportMetric(tab.Cell("rle", last).Mean(), "rle-slots@500")
	b.ReportMetric(tab.Cell("ldp", last).Mean(), "ldp-slots@500")
}

func BenchmarkTableFTraffic(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = fadingrls.RunTrafficTable(fadingrls.ExperimentOptions{Seed: benchSeed, Instances: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(tab.X) - 1
	b.ReportMetric(tab.Cell("rle", last).Mean(), "rle-goodput@0.2")
	b.ReportMetric(tab.Cell("greedy", last).Mean(), "greedy-goodput@0.2")
}

func BenchmarkTableGStaleness(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = fadingrls.RunStalenessTable(fadingrls.ExperimentOptions{Seed: benchSeed, Instances: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(tab.X) - 1
	b.ReportMetric(tab.Cell("stale-rle", last).Mean(), "stale-Efails@250")
	b.ReportMetric(tab.Cell("fresh-rle", last).Mean(), "fresh-Efails@250")
}

func BenchmarkTableHDiversity(b *testing.B) {
	b.ReportAllocs()
	var tab *fadingrls.ResultTable
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = fadingrls.RunDiversityTable(fadingrls.ExperimentOptions{Seed: benchSeed, Instances: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(tab.X) - 1
	b.ReportMetric(tab.Cell("ldp", last).Mean(), "ldp@6oct")
	b.ReportMetric(tab.Cell("gL", last).Mean(), "gL@6oct")
}

// benchLinks generates an instance at the paper's deployment density
// (300 links per 500×500): the region scales with √n so per-receiver
// interference neighborhoods stay constant and backend costs compare
// like-for-like across sizes.
func benchLinks(b *testing.B, n int) *fadingrls.LinkSet {
	b.Helper()
	cfg := fadingrls.PaperConfig(n)
	cfg.Region = 500 * math.Sqrt(float64(n)/300)
	ls, err := fadingrls.Generate(cfg, 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	return ls
}

var fieldBackends = []struct {
	name string
	opt  func() fadingrls.ProblemOption
}{
	{"dense", fadingrls.WithDenseField},
	{"sparse", func() fadingrls.ProblemOption {
		return fadingrls.WithSparseField(fadingrls.SparseOptions{})
	}},
}

// BenchmarkNewProblem measures interference-field construction alone:
// the dense backend hoists O(n) kernel inputs and fills factor rows
// only as solves read them, the sparse one is output-sensitive in the
// number of stored near-field pairs.
func BenchmarkNewProblem(b *testing.B) {
	b.ReportAllocs()
	p := fadingrls.DefaultParams()
	for _, n := range []int{300, 1000, 5000} {
		ls := benchLinks(b, n)
		for _, bk := range fieldBackends {
			b.Run(fmt.Sprintf("%s/n=%d", bk.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := fadingrls.NewProblem(ls, p, bk.opt()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFieldBackends measures the end-to-end pipeline each backend
// feeds — construction, a Greedy schedule, and verification — and
// reports the scheduled link count so the sparse backend's throughput
// cost is visible next to its speed. Both path-loss regimes are
// covered: at the paper's α = 3 the far field decays too slowly for
// truncation to bite (the truncation radius spans the deployment, and
// the tail charge displaces marginal links from budget-saturated
// receivers), so dense wins; at α = 4.5 the near field is genuinely
// local and sparse is the backend that scales.
func BenchmarkFieldBackends(b *testing.B) {
	b.ReportAllocs()
	for _, alpha := range []float64{3, 4.5} {
		p := fadingrls.DefaultParams()
		p.Alpha = alpha
		for _, n := range []int{300, 1000, 5000} {
			ls := benchLinks(b, n)
			for _, bk := range fieldBackends {
				b.Run(fmt.Sprintf("%s/a%g/n=%d", bk.name, alpha, n), func(b *testing.B) {
					b.ReportAllocs()
					var links int
					for i := 0; i < b.N; i++ {
						pr, err := fadingrls.NewProblem(ls, p, bk.opt())
						if err != nil {
							b.Fatal(err)
						}
						s := fadingrls.Greedy{}.Schedule(pr)
						if v := fadingrls.Verify(pr, s); len(v) != 0 {
							b.Fatalf("infeasible schedule: %v", v[0])
						}
						links = s.Len()
					}
					b.ReportMetric(float64(links), "links")
				})
			}
		}
	}
}

// BenchmarkSolveColdBuild is the no-reuse baseline at n=2000 dense:
// every iteration builds a fresh field and fills every factor row the
// RLE solve reads — what a caller who rebuilds the Problem per query
// pays.
func BenchmarkSolveColdBuild(b *testing.B) {
	b.ReportAllocs()
	ls := benchLinks(b, 2000)
	p := fadingrls.DefaultParams()
	var links int
	for i := 0; i < b.N; i++ {
		pr, err := fadingrls.NewProblem(ls, p)
		if err != nil {
			b.Fatal(err)
		}
		links = fadingrls.RLE{}.Schedule(pr).Len()
	}
	b.ReportMetric(float64(links), "links")
}

// BenchmarkSolveWarmPrepared is the same instance and solver through a
// Prepared handle: the field is built once outside the loop and each
// iteration reuses pooled scratch plus a recycled output buffer. The
// acceptance bar for the prepared-problem work is ≥2× over
// BenchmarkSolveColdBuild; allocs/op documents the steady-state
// zero-allocation property.
func BenchmarkSolveWarmPrepared(b *testing.B) {
	b.ReportAllocs()
	ls := benchLinks(b, 2000)
	prep, err := fadingrls.Prepare(ls, fadingrls.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var buf []int
	var links int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := prep.ScheduleInto(ctx, fadingrls.RLE{}, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = s.Active[:0]
		links = s.Len()
	}
	b.ReportMetric(float64(links), "links")
}

// BenchmarkSolveWarmGreedy is the re-solve the paper's setting repeats:
// one n=2000 topology at paper density with every dense row resident,
// scheduled by Greedy under each ε of a fixed list through Derive'd
// handles — one pass over the list per op. It reports the admission
// test's factor reads per op, a constant of the pass that benchcmp
// compares exactly, counted in one traced pass before the timer, and
// the links that pass admits.
func BenchmarkSolveWarmGreedy(b *testing.B) {
	b.ReportAllocs()
	ls := benchLinks(b, 2000)
	base, err := fadingrls.Prepare(ls, fadingrls.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	field := base.Problem().Field()
	for i := 0; i < field.N(); i++ {
		field.ForEachAffected(i, func(int, float64) {}) // fills row i
	}
	var preps []*fadingrls.Prepared
	for _, eps := range []float64{0.005, 0.01, 0.02, 0.05} {
		p := fadingrls.DefaultParams()
		p.Eps = eps
		pp, err := base.Derive(p)
		if err != nil {
			b.Fatal(err)
		}
		preps = append(preps, pp)
	}
	ctx := context.Background()
	var reads, links int64
	for _, pp := range preps {
		st, err := obs.TraceSolve(ctx, obs.Span{}, func(ctx context.Context, _ *obs.Trace) error {
			s, err := pp.ScheduleInto(ctx, fadingrls.Greedy{}, nil)
			links += int64(s.Len())
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		reads += st.Counter(obs.KeyFactorReads)
	}
	bufs := make([][]int, len(preps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, pp := range preps {
			s, err := pp.ScheduleInto(ctx, fadingrls.Greedy{}, bufs[k])
			if err != nil {
				b.Fatal(err)
			}
			bufs[k] = s.Active[:0]
		}
	}
	b.ReportMetric(float64(reads), "admission_reads/op")
	b.ReportMetric(float64(links), "links")
}

// BenchmarkSolveWarmTraced is BenchmarkSolveWarmPrepared under the full
// per-request tracing harness schedd runs: every iteration takes a
// pooled request trace from obs, opens the solve span, solves in the
// solve's own pooled trace (obs.TraceSolve: stats folded, phase spans
// copied under the solve span), finishes the request trace, and offers
// it to a flight recorder (which samples a few and recycles the rest).
// The ns/op delta against BenchmarkSolveWarmPrepared is the
// span-overhead acceptance gate: ≤5% at n=2000.
func BenchmarkSolveWarmTraced(b *testing.B) {
	b.ReportAllocs()
	ls := benchLinks(b, 2000)
	prep, err := fadingrls.Prepare(ls, fadingrls.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rec := obs.NewRecorder(obs.RecorderConfig{Capacity: 8, SampleEvery: 64})
	var buf []int
	var links int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace := obs.NewTrace("beefbeefbeefbeef", "POST /v1/solve")
		ctx := obs.ContextWithSpan(context.Background(), trace.Root())
		solveSp := obs.SpanFrom(ctx).Child("solve")
		var s fadingrls.Schedule
		_, err := obs.TraceSolve(ctx, solveSp, func(ctx context.Context, _ *obs.Trace) error {
			var err error
			s, err = prep.ScheduleInto(ctx, fadingrls.RLE{}, buf)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		solveSp.End()
		trace.Finish(200)
		rec.Record(trace)
		buf = s.Active[:0]
		links = s.Len()
	}
	b.ReportMetric(float64(links), "links")
}

// benchScalePrepared builds the sparse prepared instance the sharded
// scale benches solve: α = 4.5 with a 1e-7 cutoff at the 20000-links-
// per-20000² density of the repository's sparse scale tests, so the
// near field is genuinely local and the stored-pair count grows
// linearly in n rather than quadratically.
func benchScalePrepared(b *testing.B, n int) *fadingrls.Prepared {
	b.Helper()
	cfg := fadingrls.PaperConfig(n)
	cfg.Region = 20000 * math.Sqrt(float64(n)/20000)
	ls, err := fadingrls.Generate(cfg, 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	p := fadingrls.DefaultParams()
	p.Alpha = 4.5
	pr, err := fadingrls.NewProblem(ls, p, fadingrls.WithSparseField(fadingrls.SparseOptions{Cutoff: 1e-7}))
	if err != nil {
		b.Fatal(err)
	}
	return fadingrls.NewPrepared(pr)
}

// BenchmarkShardedVsGreedy is the tile-sharding record: the same
// prepared sparse instance solved by unsharded greedy and by the
// tile-parallel path (auto shard count). Both run the pruned insertion
// loop, so at this density unsharded greedy is the faster solve; what
// sharding buys is schedule quality, which the links metric records
// (the global pick order saturates a few receivers and starves, the
// per-tile orders keep admitting). No script gates the ns/op ratio.
func BenchmarkShardedVsGreedy(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		prep := benchScalePrepared(b, n)
		for _, algo := range []fadingrls.Algorithm{fadingrls.Greedy{}, fadingrls.Sharded{}} {
			b.Run(fmt.Sprintf("%s/n=%d", algo.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				ctx := context.Background()
				var buf []int
				var links int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := prep.ScheduleInto(ctx, algo, buf)
					if err != nil {
						b.Fatal(err)
					}
					buf = s.Active[:0]
					links = s.Len()
				}
				b.ReportMetric(float64(links), "links")
			})
		}
	}
}

// BenchmarkSharded100k is the n=100000 end-to-end scale record: one
// iteration pays the sparse field build (reported as build-sec) and
// then solves with the auto-sharded tile path, verifying the merged
// schedule. This is the instance whose dense matrix would be 80 GB.
func BenchmarkSharded100k(b *testing.B) {
	b.ReportAllocs()
	const n = 100000
	cfg := fadingrls.PaperConfig(n)
	cfg.Region = 20000 * math.Sqrt(float64(n)/20000)
	ls, err := fadingrls.Generate(cfg, 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	p := fadingrls.DefaultParams()
	p.Alpha = 4.5
	var buildSec float64
	var links int
	var verified *fadingrls.Problem
	var last fadingrls.Schedule
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		pr, err := fadingrls.NewProblem(ls, p, fadingrls.WithSparseField(fadingrls.SparseOptions{Cutoff: 1e-7}))
		if err != nil {
			b.Fatal(err)
		}
		buildSec = time.Since(t0).Seconds()
		last = fadingrls.NewPrepared(pr).Schedule(fadingrls.Sharded{})
		links = last.Len()
		verified = pr
	}
	// Verify outside the timed region: the independent recheck walks
	// |A|² factor pairs and would otherwise dwarf the solve it audits.
	b.StopTimer()
	if v := fadingrls.Verify(verified, last); len(v) != 0 {
		b.Fatalf("infeasible schedule at n=%d: %v", n, v[0])
	}
	b.ReportMetric(buildSec, "build-sec")
	b.ReportMetric(float64(links), "links")
}

func maxMean(tab *fadingrls.ResultTable, xi int, series ...string) float64 {
	out := tab.Cell(series[0], xi).Mean()
	for _, s := range series[1:] {
		if m := tab.Cell(s, xi).Mean(); m > out {
			out = m
		}
	}
	return out
}

func minMean(tab *fadingrls.ResultTable, xi int, series ...string) float64 {
	out := tab.Cell(series[0], xi).Mean()
	for _, s := range series[1:] {
		if m := tab.Cell(s, xi).Mean(); m < out {
			out = m
		}
	}
	return out
}
