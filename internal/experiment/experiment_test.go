package experiment

import (
	"math"
	"strings"
	"testing"
)

// quickOpts keeps test runtimes low; the full defaults run in the
// bench harness and cmd/experiments.
func quickOpts() Options {
	return Options{Seed: 1, Instances: 5, Slots: 40}
}

func TestTableAddRenderCSV(t *testing.T) {
	tab := NewTable("demo", "x", "y", []float64{1, 2}, []string{"a", "b"})
	tab.Add("a", 0, 1)
	tab.Add("a", 0, 3)
	tab.Add("b", 1, 5)
	if got := tab.Cell("a", 0).Mean(); got != 2 {
		t.Errorf("cell mean = %v, want 2", got)
	}
	var txt strings.Builder
	if err := tab.Render(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, tok := range []string{"demo", "x", "a", "b", "2"} {
		if !strings.Contains(out, tok) {
			t.Errorf("render missing %q in:\n%s", tok, out)
		}
	}
	var csv strings.Builder
	if err := tab.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 1+2*2 {
		t.Errorf("CSV has %d lines, want 5:\n%s", lines, csv.String())
	}
	if !strings.HasPrefix(csv.String(), "x,series,mean,ci95,n\n") {
		t.Error("CSV header wrong")
	}
}

func TestTableAddUnknownSeriesPanics(t *testing.T) {
	tab := NewTable("demo", "x", "y", []float64{1}, []string{"a"})
	defer func() {
		if recover() == nil {
			t.Error("Add to unknown series did not panic")
		}
	}()
	tab.Add("nope", 0, 1)
}

func TestSpecsRegistryComplete(t *testing.T) {
	specs := Specs()
	for _, id := range []string{"fig5a", "fig5b", "fig5a-analytic", "fig6a", "fig6b",
		"ablation-classes", "ablation-c2", "ablation-dls"} {
		if _, ok := specs[id]; !ok {
			t.Errorf("spec %q missing", id)
		}
	}
	for id, s := range specs {
		if s.ID != id {
			t.Errorf("spec key %q has ID %q", id, s.ID)
		}
		if len(s.Xs) == 0 || len(s.Algorithms) == 0 || s.Configure == nil || s.Metric == nil {
			t.Errorf("spec %q incomplete", id)
		}
	}
}

// TestRunDeterministic: a table's CSV — mean, ci95 and n of every
// cell — is byte-identical at any worker count, for Spec sweeps (a
// pure metric and a Monte-Carlo one) and for custom tables alike.
func TestRunDeterministic(t *testing.T) {
	fig6a := Fig6a()
	fig6a.Xs = []float64{100, 200} // trim for speed
	fig5a := Fig5a()
	fig5a.Xs = []float64{100, 300}
	for _, tc := range []struct {
		name string
		run  func(Options) (*Table, error)
	}{
		{"fig6a", func(o Options) (*Table, error) { return Run(fig6a, o) }},
		{"fig5a", func(o Options) (*Table, error) { return Run(fig5a, o) }},
		{"staleness", StalenessTable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4} {
				opts := quickOpts()
				opts.Workers = workers
				tab, err := tc.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				var csv strings.Builder
				if err := tab.RenderCSV(&csv); err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					want = csv.String()
				} else if got := csv.String(); got != want {
					t.Errorf("workers=%d CSV differs from workers=1:\n%s\nwant:\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestFig5Shape asserts the paper's headline qualitative result on a
// reduced-budget run: fading-aware algorithms suffer (near-)zero failed
// transmissions while both deterministic baselines fail measurably,
// increasingly with N.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-shape test skipped in -short mode")
	}
	spec := Fig5a()
	spec.Xs = []float64{100, 300}
	tab, err := Run(spec, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, aware := range []string{"ldp", "rle"} {
		for i := range tab.X {
			if m := tab.Cell(aware, i).Mean(); m > 0.2 {
				t.Errorf("%s fails %v times/slot at N=%v, want ≈0", aware, m, tab.X[i])
			}
		}
	}
	for _, base := range []string{"approxlogn", "approxdiversity"} {
		small := tab.Cell(base, 0).Mean()
		large := tab.Cell(base, len(tab.X)-1).Mean()
		if large <= 0 {
			t.Errorf("%s shows no failures at N=300 — fading susceptibility missing", base)
		}
		if large < small {
			t.Logf("note: %s failures not increasing (N=100: %v, N=300: %v) — acceptable noise at quick budget", base, small, large)
		}
	}
	// Baselines must fail more than the fading-aware algorithms at the
	// dense end.
	worstAware := math.Max(tab.Cell("ldp", 1).Mean(), tab.Cell("rle", 1).Mean())
	bestBase := math.Min(tab.Cell("approxlogn", 1).Mean(), tab.Cell("approxdiversity", 1).Mean())
	if bestBase <= worstAware {
		t.Errorf("baselines (%v) do not fail more than fading-aware (%v)", bestBase, worstAware)
	}
}

// TestFig6Shape asserts throughput RLE > LDP and growth in N — the
// paper's Fig. 6(a) shape.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-shape test skipped in -short mode")
	}
	spec := Fig6a()
	spec.Xs = []float64{100, 500}
	tab, err := Run(spec, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.X {
		rle, ldp := tab.Cell("rle", i).Mean(), tab.Cell("ldp", i).Mean()
		if rle <= ldp {
			t.Errorf("N=%v: RLE %v not above LDP %v", tab.X[i], rle, ldp)
		}
	}
	if tab.Cell("rle", 1).Mean() <= tab.Cell("rle", 0).Mean() {
		t.Errorf("RLE throughput not increasing with N: %v → %v",
			tab.Cell("rle", 0).Mean(), tab.Cell("rle", 1).Mean())
	}
}

// TestFig6bAlphaShape asserts throughput grows with α (Fig. 6(b)).
func TestFig6bAlphaShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-shape test skipped in -short mode")
	}
	spec := Fig6b()
	spec.Xs = []float64{2.5, 4.5}
	tab, err := Run(spec, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"ldp", "rle"} {
		lo, hi := tab.Cell(s, 0).Mean(), tab.Cell(s, 1).Mean()
		if hi <= lo {
			t.Errorf("%s throughput not increasing in alpha: %v → %v", s, lo, hi)
		}
	}
}

func TestMetricExpectedVsMCAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	// On the same sweep the analytic expectation and the Monte-Carlo
	// measurement must land close for the overpacking baseline.
	mcSpec := Fig5a()
	mcSpec.Xs = []float64{200}
	mcTab, err := Run(mcSpec, Options{Seed: 3, Instances: 8, Slots: 400})
	if err != nil {
		t.Fatal(err)
	}
	exSpec := Fig5aExpected()
	exSpec.Xs = []float64{200}
	exTab, err := Run(exSpec, Options{Seed: 3, Instances: 8})
	if err != nil {
		t.Fatal(err)
	}
	mcV := mcTab.Cell("approxdiversity", 0)
	exV := exTab.Cell("approxdiversity", 0)
	tol := 4*(mcV.CI95()+exV.CI95()) + 0.05
	if math.Abs(mcV.Mean()-exV.Mean()) > tol {
		t.Errorf("MC %v vs analytic %v beyond tolerance %v", mcV.Mean(), exV.Mean(), tol)
	}
}

func TestRatioTable(t *testing.T) {
	tab, err := RatioTable(Options{Seed: 2, Instances: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tab.Order {
		for i := range tab.X {
			cell := tab.Cell(s, i)
			if cell.N() == 0 {
				t.Errorf("series %s x=%v empty", s, tab.X[i])
				continue
			}
			if cell.Min() < 1-1e-9 {
				t.Errorf("series %s x=%v has ratio %v < 1 — OPT beaten?", s, tab.X[i], cell.Min())
			}
			if cell.Max() > 50 {
				t.Errorf("series %s x=%v has absurd ratio %v", s, tab.X[i], cell.Max())
			}
		}
	}
}

func TestThm31TableWithinSigma(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	rows := Thm31Table(7, 20000)
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	for _, r := range rows {
		if r.ClosedForm <= 0 || r.ClosedForm > 1 {
			t.Errorf("closed form %v out of (0,1]", r.ClosedForm)
		}
		if r.Deviations() > 5 {
			t.Errorf("α=%v m=%d: empirical %v vs closed %v — %.1fσ off",
				r.Alpha, r.Interferers, r.Empirical, r.ClosedForm, r.Deviations())
		}
	}
}

func TestRunPropagatesConfigError(t *testing.T) {
	spec := Fig6a()
	spec.Xs = []float64{-5} // invalid N
	if _, err := Run(spec, quickOpts()); err == nil {
		t.Error("invalid sweep value did not error")
	}
}
