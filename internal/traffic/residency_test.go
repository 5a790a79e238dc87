package traffic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

// densityPrepared is the load benchmark's traffic instance, n links at
// the paper's density (300 per 500×500), on a freshly built dense
// field: no factor row is resident yet.
func densityPrepared(t testing.TB, n int, seed uint64) *sched.Prepared {
	t.Helper()
	cfg := network.PaperConfig(n)
	cfg.Region = 500 * math.Sqrt(float64(n)/300)
	ls, err := network.Generate(cfg, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := sched.Prepare(ls, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// denseField returns pp's dense field.
func denseField(t testing.TB, pp *sched.Prepared) *sched.DenseField {
	t.Helper()
	d, ok := pp.Problem().Field().(*sched.DenseField)
	if !ok {
		t.Fatal("field is not dense")
	}
	return d
}

// residentMatch runs cfg at seeds 1..runs, in order, on one fresh
// n=2000 density field and on one with every row resident, fails t
// unless each pair of Results is deeply equal, and returns the rows
// the fresh field holds afterwards.
func residentMatch(t *testing.T, cfg Config, runs int) int {
	t.Helper()
	fresh, full := densityPrepared(t, 2000, 51), densityPrepared(t, 2000, 51)
	d := denseField(t, full)
	for i := 0; i < d.N(); i++ {
		d.ForEachAffected(i, func(int, float64) {}) // an unscoped walk fills the row
	}
	for s := 1; s <= runs; s++ {
		cfg.Seed = uint64(s)
		got, want := mustRun(t, fresh, cfg), mustRun(t, full, cfg)
		if got.Delivered == 0 {
			t.Fatalf("seed %d: nothing delivered", s)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: run on a fresh field diverged from a fully resident one:\n got %+v\nwant %+v", s, got, want)
		}
	}
	return denseField(t, fresh).ResidentRows()
}

// TestLightTrafficFillsNoRows: the BenchmarkEngineLight shape (n=2000
// at paper density, max-weight over Bernoulli 0.01, 200 slots) rents
// every row it reads, and its charges expire before any epoch's reach
// n, so 40 runs on one fresh field — four epochs of n scoped solves —
// leave no row resident (charges that never expired filled 675 rows
// by then), and every Result equals the same run's on a fully resident
// field.
func TestLightTrafficFillsNoRows(t *testing.T) {
	if rows := residentMatch(t, Config{Slots: 200, Arrivals: Bernoulli{P: 0.01}, Policy: PolicyMaxWeight}, 40); rows != 0 {
		t.Fatalf("light runs filled %d rows, want 0", rows)
	}
}

// TestMidTrafficMatchesResidentField: at Bernoulli 0.03 (the
// BenchmarkEngineMid shape, about 72% of the links listed per slot)
// scoped walks charge rows past n within one run, so rows do fill
// mid-run — and the Result still equals the fully resident field's.
func TestMidTrafficMatchesResidentField(t *testing.T) {
	if rows := residentMatch(t, Config{Slots: 200, Arrivals: Bernoulli{P: 0.03}, Policy: PolicyMaxWeight}, 1); rows == 0 {
		t.Fatal("no row filled: the rent-to-fill path is untested")
	}
}
