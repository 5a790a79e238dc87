package traffic

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// TestTransmitMatchesExactLoop is the traffic half of the fading
// kernel's differential gate: engine Results through RowOutcome equal,
// field for field, runs through legacyTransmit, the exact draw — every
// policy × Bernoulli {0.01, 0.2, 1} on a dense quadrant-listed and a
// sparse scale-class set.
func TestTransmitMatchesExactLoop(t *testing.T) {
	sets := []struct {
		name string
		pp   *sched.Prepared
	}{
		{"dense-quadrant", quadrantPrepared(t, 600, 1)},
		{"sparse-scale", scalePrepared(t, 160, 1)},
	}
	var rows, exact int64
	for _, set := range sets {
		for _, pol := range []Policy{PolicyBacklog, PolicyMaxQueue, PolicyMaxWeight} {
			for _, rate := range []float64{0.01, 0.2, 1} {
				name := fmt.Sprintf("%s/%s/p=%v", set.name, pol, rate)
				cfg := Config{Slots: 30, Arrivals: Bernoulli{P: rate}, Policy: pol, Seed: 4}
				ref, err := New(set.pp, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref.fade = func(slot int) { ref.success = legacyTransmit(ref.pr, ref.active, cfg.Seed, slot, false) }
				want := ref.Run(context.Background())
				eng, err := New(set.pp, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := eng.Run(context.Background())
				if got.Attempts == 0 {
					t.Fatalf("%s: no transmission attempted", name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: run diverged from the exact draw:\n got %+v\nwant %+v", name, got, want)
				}
				rows += got.Attempts
				exact += eng.exactRows
			}
		}
	}
	t.Logf("%d of %d receiver rows replayed exactly (%.2f%%)", exact, rows, 100*float64(exact)/float64(rows))
	if exact == 0 {
		t.Fatal("no row reached the exact replay: the fallback is untested")
	}
}

// TestTrafficRunSpanCountsExactRows: the traffic_run span records the
// engine's exact-replay count next to candidates, its bracket_misses
// (rows whose bracketed means fell back to exact ones, a superset of
// the replays), and rows_filled, the rows the fresh field gained.
func TestTrafficRunSpanCountsExactRows(t *testing.T) {
	pp := quadrantPrepared(t, 600, 2)
	tr := obs.NewTraceCap("0123456789abcdef", "POST /v1/traffic", 64)
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	eng, err := New(pp, Config{Slots: 40, Arrivals: Bernoulli{P: 1}, Policy: PolicyMaxQueue, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(ctx)
	tr.Finish(200)
	if eng.exactRows == 0 {
		t.Fatal("no row replayed exactly: the span check is vacuous")
	}
	if eng.bracketMisses < eng.exactRows {
		t.Fatalf("%d bracket misses, fewer than the %d exact replays they include", eng.bracketMisses, eng.exactRows)
	}
	rows := int64(pp.Problem().Field().(*sched.DenseField).ResidentRows())
	if rows == 0 {
		t.Fatal("a saturated run on a fresh field filled no rows")
	}
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "traffic_run" {
			for key, want := range map[string]int64{"exact_rows": eng.exactRows, "bracket_misses": eng.bracketMisses, "rows_filled": rows} {
				if got := sp.Attrs[key]; got != want {
					t.Fatalf("traffic_run %s = %v, want %d", key, got, want)
				}
			}
			return
		}
	}
	t.Fatal("no traffic_run span")
}
