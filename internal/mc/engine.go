package mc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Config drives one simulation run.
type Config struct {
	// Slots is the number of fading realizations. Zero means
	// DefaultSlots.
	Slots int
	// Seed feeds the per-slot streams.
	Seed uint64
	// Workers bounds the worker pool; zero means GOMAXPROCS.
	Workers int
	// CoherenceSlots models block fading: channel coefficients are
	// redrawn every CoherenceSlots slots and held constant within a
	// block, so consecutive failures correlate (a deep fade persists
	// through the block). 0 or 1 is the paper's i.i.d.-per-slot model.
	// Statistics per slot are unchanged in expectation; only temporal
	// correlation — and hence the variance of per-slot failure counts —
	// grows with the block length.
	CoherenceSlots int
	// BlockOffset shifts the coherence-block indices used to derive
	// per-block streams, so consecutive runs with offsets 0, k, 2k, …
	// extend one logical realization sequence instead of replaying it.
	// SimulateAdaptive uses this; leave zero for standalone runs.
	BlockOffset int
}

// DefaultSlots is the per-schedule realization count used by the
// figure harness.
const DefaultSlots = 100

// Result summarizes a simulation run of one schedule.
type Result struct {
	// Failures summarizes the per-slot count of failed transmissions.
	Failures stats.Summary
	// PerLinkFailures[k] counts the slots in which the k-th scheduled
	// link (indexed like Schedule.Active) failed.
	PerLinkFailures []int64
	// Expected is the Theorem 3.1 analytic expectation of failures per
	// slot — the cross-check for Failures.Mean().
	Expected float64
	// Slots echoes the realization count.
	Slots int
	// ExactRows counts the (coherence block, receiver) rows whose
	// outcome radio.RowOutcome could not certify from its bracket and
	// replayed exactly — the rows that paid one exponential per pair.
	ExactRows int64
}

// FailureRate returns the mean fraction of scheduled links that failed
// per slot (0 for an empty schedule).
func (r Result) FailureRate() float64 {
	if len(r.PerLinkFailures) == 0 {
		return 0
	}
	return r.Failures.Mean() / float64(len(r.PerLinkFailures))
}

// Simulate draws cfg.Slots Rayleigh realizations of the schedule and
// counts failed transmissions per slot.
//
// Coherence block b (one slot under i.i.d. fading) draws from
// rng.Stream(cfg.Seed, "mc-slot", cfg.BlockOffset+b): one 64-bit value
// per (active sender, active receiver) pair in ascending
// receiver-then-sender order, the value rng.Source.Exp would turn into
// that pair's exponential. radio.RowOutcome decides each receiver once
// per block, evaluating exponentials only for the signals and for the
// rows its bracket leaves undecided, so the outcomes equal those of
// the exact draws. Results are reproducible and independent of the
// worker count.
func Simulate(pr *sched.Problem, s sched.Schedule, cfg Config) (Result, error) {
	slots := cfg.Slots
	if slots == 0 {
		slots = DefaultSlots
	}
	if slots < 0 {
		return Result{}, fmt.Errorf("mc: negative slot count %d", slots)
	}
	return newFading(pr, s).run(slots, cfg), nil
}

// fading is a schedule's Monte-Carlo setup, built once per schedule:
// the mean gains over its active set and the analytic expectation.
type fading struct {
	m int
	// mean[j*m+i] = P_i · d_{active[i],active[j]}^{−α}: sender i's mean
	// received power at receiver j, honoring per-link power overrides.
	mean        []float64
	n0, gammaTh float64
	// expected reads through the problem's interference field: exact
	// on the dense backend, a (slightly pessimistic) upper bound on a
	// truncated one. The mean gains come from geometry, so the
	// empirical counts are exact under any backend — on a sparse field
	// the Expected/empirical gap includes the tail-bound charge on top
	// of sampling noise.
	expected float64
}

func newFading(pr *sched.Problem, s sched.Schedule) *fading {
	m := s.Len()
	f := &fading{
		m:        m,
		mean:     make([]float64, m*m),
		n0:       pr.Params.N0,
		gammaTh:  pr.Params.GammaTh,
		expected: sched.ExpectedFailures(pr, s),
	}
	for j, rj := range s.Active {
		for i, si := range s.Active {
			f.mean[j*m+i] = pr.Params.MeanGainP(pr.PowerOf(si), pr.Links.Dist(si, rj))
		}
	}
	return f
}

// run simulates slots slots under cfg's seed, worker count, coherence
// and block offset (cfg.Slots is ignored).
func (f *fading) run(slots int, cfg Config) Result {
	m := f.m
	res := Result{
		PerLinkFailures: make([]int64, m),
		Expected:        f.expected,
		Slots:           slots,
	}
	if m == 0 || slots == 0 {
		for i := 0; i < slots; i++ {
			res.Failures.Add(0)
		}
		return res
	}
	coherence := max(cfg.CoherenceSlots, 1)
	// Work is dealt in coherence blocks: a block's draws come from the
	// block's own stream and decide all its slots at once, keeping
	// results independent of the worker count.
	blocks := (slots + coherence - 1) / coherence
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, blocks)

	// failed[b] is block b's failed-link count (the same in each of
	// its slots); each worker tallies per-link failed slots and exact
	// rows in its own locals, folded below in worker order (integer
	// sums, so the order cannot matter).
	failed := make([]int, blocks)
	type tally struct {
		down  []int64
		exact int64
	}
	tallies := make([]tally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			t.down = make([]int64, m)
			var src rng.Source
			for {
				block := int(next.Add(1) - 1)
				if block >= blocks {
					return
				}
				rng.StreamInto(&src, cfg.Seed, "mc-slot", uint64(cfg.BlockOffset+block))
				inBlock := int64(min(coherence, slots-block*coherence))
				for j := 0; j < m; j++ {
					v, sig, den := radio.RowOutcome(&src, f.mean[j*m:(j+1)*m], j, f.n0, f.gammaTh)
					if v == radio.RowUndecided {
						t.exact++
						if den > 0 && sig/den < f.gammaTh {
							v = radio.RowFailure
						}
					}
					if v == radio.RowFailure {
						failed[block]++
						t.down[j] += inBlock
					}
				}
			}
		}(&tallies[w])
	}
	wg.Wait()

	for slot := 0; slot < slots; slot++ {
		res.Failures.Add(float64(failed[slot/coherence]))
	}
	for _, t := range tallies {
		for j, c := range t.down {
			res.PerLinkFailures[j] += c
		}
		res.ExactRows += t.exact
	}
	return res
}
