package mc

import (
	"fmt"

	"repro/internal/sched"
)

// AdaptiveConfig drives SimulateAdaptive.
type AdaptiveConfig struct {
	// TargetCI stops the simulation once the 95% confidence half-width
	// of the mean failures-per-slot estimate falls to or below this
	// value. Must be positive.
	TargetCI float64
	// BatchSlots is the number of slots per batch (0 = 200). Precision
	// is checked between batches.
	BatchSlots int
	// MaxSlots caps the total effort (0 = 100·BatchSlots).
	MaxSlots int
	// Seed and Workers as in Config.
	Seed    uint64
	Workers int
	// CoherenceSlots as in Config; batches are aligned to coherence
	// blocks so the block structure is preserved across batches.
	CoherenceSlots int
}

// SimulateAdaptive runs Monte-Carlo batches until the failure
// estimate's 95% CI half-width reaches TargetCI or MaxSlots is spent.
// The realization sequence is identical to one long Simulate run with
// the same seed: batch b covers blocks [b·blocksPerBatch, …), so the
// stopping rule changes only how much of the sequence is consumed,
// never its contents.
//
// Adaptive stopping makes dense schedules (high variance) get the
// slots they need while near-deterministic ones (LDP/RLE at ε = 0.01)
// finish after one batch — in figure sweeps this is a large constant-
// factor saving at equal precision.
func SimulateAdaptive(pr *sched.Problem, s sched.Schedule, cfg AdaptiveConfig) (Result, error) {
	if !(cfg.TargetCI > 0) {
		return Result{}, fmt.Errorf("mc: TargetCI = %v, need > 0", cfg.TargetCI)
	}
	batch := cfg.BatchSlots
	if batch == 0 {
		batch = 200
	}
	if batch < 0 {
		return Result{}, fmt.Errorf("mc: negative batch size %d", batch)
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = 100 * batch
	}
	coherence := cfg.CoherenceSlots
	if coherence <= 0 {
		coherence = 1
	}
	// Align the batch to whole coherence blocks.
	if rem := batch % coherence; rem != 0 {
		batch += coherence - rem
	}

	// The mean gains and the analytic expectation are built once; each
	// batch runs over them from its own block offset.
	f := newFading(pr, s)
	total := Result{
		PerLinkFailures: make([]int64, s.Len()),
		Expected:        f.expected,
	}
	for total.Slots < maxSlots {
		res := f.run(batch, Config{
			Seed:           cfg.Seed,
			Workers:        cfg.Workers,
			CoherenceSlots: cfg.CoherenceSlots,
			BlockOffset:    total.Slots / coherence,
		})
		total.Failures.Merge(res.Failures)
		for k, c := range res.PerLinkFailures {
			total.PerLinkFailures[k] += c
		}
		total.Slots += res.Slots
		total.ExactRows += res.ExactRows
		if ci := total.Failures.CI95(); ci <= cfg.TargetCI {
			break
		}
	}
	return total, nil
}
