package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mc"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

// Options control the cost/precision trade of a run. The zero value
// yields the defaults used by EXPERIMENTS.md.
type Options struct {
	// Seed anchors all randomness: instances and channel realizations.
	Seed uint64
	// Instances is the number of independent deployments per x-value.
	// Zero means 20.
	Instances int
	// Slots is the number of fading realizations per schedule for
	// Monte-Carlo metrics. Zero means mc.DefaultSlots.
	Slots int
	// Workers bounds the parallel fan-out; zero means GOMAXPROCS.
	Workers int
	// FieldOptions selects the interference backend for every Problem
	// the sweep builds (nil = dense default); lets large-n sweeps run
	// on the sparse field.
	FieldOptions []sched.Option
}

func (o Options) withDefaults() Options {
	if o.Instances == 0 {
		o.Instances = 20
	}
	if o.Slots == 0 {
		o.Slots = mc.DefaultSlots
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// pairIndex numbers an (x, instance) pair; jobs seed their deployments
// and channel draws from it.
func pairIndex(xi, rep int) uint64 {
	return uint64(xi)*1_000_003 + uint64(rep)
}

// runCustom is the fan-out skeleton every table shares: one job per
// (x, instance) pair over opts.Workers goroutines. Each job appends
// its (series, y) observations to its own slot, at index
// xi*Instances+rep; once the pool drains, the slots fold into table in
// index order and the first error in that order is returned. Cell
// sums therefore accumulate in the same order at any worker count, so
// every table equals its one-worker run bit for bit.
func runCustom(table *Table, xs []float64, opts Options, job func(xi, rep int, add func(series string, y float64)) error) (*Table, error) {
	type observation struct {
		series string
		y      float64
	}
	type slot struct {
		obs []observation
		err error
	}
	slots := make([]slot, len(xs)*max(opts.Instances, 0))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				sl := &slots[k]
				sl.err = job(k/opts.Instances, k%opts.Instances, func(series string, y float64) {
					sl.obs = append(sl.obs, observation{series, y})
				})
			}
		}()
	}
	for k := range slots {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	for k, sl := range slots {
		if sl.err != nil {
			return nil, sl.err
		}
		for _, o := range sl.obs {
			table.Add(o.series, k/opts.Instances, o.y)
		}
	}
	return table, nil
}

// Metric evaluates one schedule on one instance into the y-value of a
// figure. mcSeed/slots parameterize Monte-Carlo metrics; pure metrics
// ignore them.
type Metric func(pr *sched.Problem, s sched.Schedule, mcSeed uint64, slots int) (float64, error)

// MetricMCFailures counts failed transmissions per slot by simulation
// (the paper's Fig. 5 measurement).
func MetricMCFailures(pr *sched.Problem, s sched.Schedule, mcSeed uint64, slots int) (float64, error) {
	res, err := mc.Simulate(pr, s, mc.Config{Slots: slots, Seed: mcSeed, Workers: 1})
	if err != nil {
		return 0, err
	}
	return res.Failures.Mean(), nil
}

// MetricExpectedFailures is the analytic Theorem 3.1 expectation — the
// cross-check series for Fig. 5.
func MetricExpectedFailures(pr *sched.Problem, s sched.Schedule, _ uint64, _ int) (float64, error) {
	return sched.ExpectedFailures(pr, s), nil
}

// MetricThroughput is Σλ over the schedule (the paper's Fig. 6 y-axis;
// with unit rates it equals the number of scheduled links).
func MetricThroughput(pr *sched.Problem, s sched.Schedule, _ uint64, _ int) (float64, error) {
	return s.Throughput(pr), nil
}

// Spec declares one figure/table: a sweep over x, a fixed algorithm
// list, instance/radio configuration as a function of x, and a metric.
type Spec struct {
	// ID is the experiment identifier ("fig5a", "ratio", ...).
	ID string
	// Title, XLabel, YLabel feed the rendered table header.
	Title, XLabel, YLabel string
	// Xs are the swept values.
	Xs []float64
	// Algorithms are the series.
	Algorithms []sched.Algorithm
	// Configure maps an x-value to the deployment and radio parameters.
	Configure func(x float64) (network.GenConfig, radio.Params)
	// Metric produces the y-value.
	Metric Metric
}

// Run executes the spec: Instances independent deployments per
// x-value, every algorithm on each, metrics folded into a Table.
// Every (x, instance) pair derives its deployment from (Seed,
// "deploy", pairIndex) and its channel realizations from a seed mixed
// from the same pair index, and runCustom folds the pairs in index
// order, so the table is reproducible at any worker count.
func Run(spec Spec, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := make([]string, len(spec.Algorithms))
	for i, a := range spec.Algorithms {
		names[i] = a.Name()
	}
	table := NewTable(spec.Title, spec.XLabel, spec.YLabel, spec.Xs, names)
	return runCustom(table, spec.Xs, opts, func(xi, rep int, add func(series string, y float64)) error {
		x := spec.Xs[xi]
		cfg, params := spec.Configure(x)
		pairIdx := pairIndex(xi, rep)
		ls, err := network.Generate(cfg, opts.Seed, pairIdx)
		if err != nil {
			return fmt.Errorf("experiment %s x=%v rep=%d: %w", spec.ID, x, rep, err)
		}
		// One prepared handle per deployment: the interference field is
		// built once and every algorithm in the series solves through
		// pooled scratch on top of it.
		prep, err := sched.Prepare(ls, params, opts.FieldOptions...)
		if err != nil {
			return fmt.Errorf("experiment %s x=%v rep=%d: %w", spec.ID, x, rep, err)
		}
		pr := prep.Problem()
		for ai, a := range spec.Algorithms {
			y, err := spec.Metric(pr, prep.Schedule(a), opts.Seed^(pairIdx*2654435761+uint64(ai)), opts.Slots)
			if err != nil {
				return fmt.Errorf("experiment %s x=%v rep=%d algo=%s: %w", spec.ID, x, rep, a.Name(), err)
			}
			add(names[ai], y)
		}
		return nil
	})
}
