package traffic

import (
	"context"
	"testing"
)

// TestEngineSlotZeroAllocs is the steady-state allocation gate
// (mirrored in scripts/check.sh): once the queues and scratch are
// warm, one engine slot — arrivals, weighted prepared solve, fading
// draw, delivery accounting, diagnostics — must not allocate at
// n ≥ 1000. Two shapes: saturated (bounded queues at their caps) and
// light (the load benchmark's traffic: Bernoulli 0.01, maxweight,
// unbounded queues, a few links selected per slot). The light run
// warms longer so that every link's queue ring has grown. TraceWriter
// and Metrics stay nil (both are documented to cost
// allocations/atomics).
func TestEngineSlotZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	pp := paperPrepared(t, 1000, 51)
	for _, tc := range []struct {
		name string
		warm int
		cfg  Config
	}{
		{"saturated", 300, Config{Arrivals: Bernoulli{P: 0.05}, QueueCap: 4, Policy: PolicyMaxQueue}},
		{"light", 3000, Config{Arrivals: Bernoulli{P: 0.01}, Policy: PolicyMaxWeight}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Slots, cfg.Seed = 1<<30, 1
			eng, err := New(pp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			// Warm: fill the queues, grow every ring, populate the
			// scratch pool and the reservoir.
			for i := 0; i < tc.warm; i++ {
				if err := eng.Step(ctx); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := eng.Step(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state slot allocates %v per step, want 0", allocs)
			}
			if eng.Slot() < tc.warm {
				t.Fatal("engine did not advance")
			}
		})
	}
}
