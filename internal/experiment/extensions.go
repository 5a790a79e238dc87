package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// MultislotTable measures the complete-scheduling extension (paper §VII
// future work): the number of slots each one-slot algorithm needs to
// drain every link once, per instance size.
func MultislotTable(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	ns := []float64{100, 200, 300, 400, 500}
	algos := []sched.Algorithm{sched.LDP{}, sched.RLE{}, sched.Greedy{}}
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name()
	}
	table := NewTable(
		"Table E: slots to drain every link once (complete scheduling, alpha=3)",
		"links N", "slots needed", ns, names)
	return runCustom(table, ns, opts, func(xi, rep int, add func(series string, y float64)) error {
		ls, err := network.Generate(network.PaperConfig(int(ns[xi])), opts.Seed, pairIndex(xi, rep))
		if err != nil {
			return err
		}
		pr, err := sched.NewProblem(ls, radio.DefaultParams())
		if err != nil {
			return err
		}
		for ai, a := range algos {
			plan, err := traffic.BuildPlan(pr, a)
			if err != nil {
				return err
			}
			if err := plan.Validate(pr); err != nil {
				return fmt.Errorf("multislot %s: %w", a.Name(), err)
			}
			add(names[ai], float64(plan.NumSlots()))
		}
		return nil
	})
}

// trafficPolicies are the engine's queue-aware slot policies, in
// series order for the traffic tables.
var trafficPolicies = []traffic.Policy{traffic.PolicyBacklog, traffic.PolicyMaxQueue, traffic.PolicyMaxWeight}

// TrafficTable measures system-level goodput under queued Bernoulli
// traffic with live fading: delivered packets per slot for each
// engine policy at a fixed load. One prepared field per instance
// serves all policies.
func TrafficTable(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	loads := []float64{0.02, 0.05, 0.1, 0.2}
	names := make([]string, len(trafficPolicies))
	for i, p := range trafficPolicies {
		names[i] = string(p)
	}
	table := NewTable(
		"Table F: traffic goodput vs offered load (N=120, 300 slots, alpha=3)",
		"arrival prob", "delivered packets per slot", loads, names)
	return runCustom(table, loads, opts, func(xi, rep int, add func(series string, y float64)) error {
		ls, err := network.Generate(network.PaperConfig(120), opts.Seed, pairIndex(xi, rep))
		if err != nil {
			return err
		}
		prep, err := sched.Prepare(ls, radio.DefaultParams())
		if err != nil {
			return err
		}
		for pi, pol := range trafficPolicies {
			eng, err := traffic.New(prep, traffic.Config{
				Slots:    300,
				Arrivals: traffic.Bernoulli{P: loads[xi]},
				Policy:   pol,
				Seed:     opts.Seed ^ pairIndex(xi, rep),
			})
			if err != nil {
				return err
			}
			res := eng.Run(context.Background())
			add(names[pi], res.PerSlotDelivered.Mean())
		}
		return nil
	})
}

// StabilityTable sweeps the stability region (paper-adjacent:
// Ásgeirsson/Halldórsson/Mitra's queue-stability semantics): backlog
// drift in packets/slot versus offered Bernoulli load, for the
// unweighted backlog policy against the queue-length-weighted
// policies. Drift ≈ 0 means the queues are stable at that load; the λ
// where each curve lifts off is that policy's stability boundary.
func StabilityTable(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4}
	names := make([]string, len(trafficPolicies))
	for i, p := range trafficPolicies {
		names[i] = string(p)
	}
	table := NewTable(
		"Table I: backlog drift vs offered load (stability region, N=120, 400 slots, alpha=3)",
		"arrival prob", "backlog drift (packets/slot)", loads, names)
	return runCustom(table, loads, opts, func(xi, rep int, add func(series string, y float64)) error {
		ls, err := network.Generate(network.PaperConfig(120), opts.Seed, pairIndex(xi, rep))
		if err != nil {
			return err
		}
		prep, err := sched.Prepare(ls, radio.DefaultParams())
		if err != nil {
			return err
		}
		for pi, pol := range trafficPolicies {
			eng, err := traffic.New(prep, traffic.Config{
				Slots:       400,
				Arrivals:    traffic.Bernoulli{P: loads[xi]},
				Policy:      pol,
				DriftWindow: 200,
				Seed:        opts.Seed ^ pairIndex(xi, rep),
			})
			if err != nil {
				return err
			}
			res := eng.Run(context.Background())
			add(names[pi], res.Drift)
		}
		return nil
	})
}

// DiversityTable probes the O(g(L)) approximation claim directly
// (Table H): link lengths drawn log-uniform over a growing number of
// octaves drive the length diversity g(L) up, and the table tracks
// LDP's throughput against RLE and Greedy (whose guarantees do not
// depend on g). The x-axis is the number of length octaves
// ([5, 5·2^k]); a "gL" series records the realized diversity.
func DiversityTable(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	octaves := []float64{1, 2, 4, 6}
	algos := []sched.Algorithm{sched.LDP{}, sched.RLE{}, sched.Greedy{}}
	names := make([]string, 0, len(algos)+1)
	for _, a := range algos {
		names = append(names, a.Name())
	}
	names = append(names, "gL")
	table := NewTable(
		"Table H: throughput vs length diversity (log-uniform lengths over k octaves, N=300)",
		"length octaves k", "throughput (gL series: realized g(L))", octaves, names)
	return runCustom(table, octaves, opts, func(xi, rep int, add func(series string, y float64)) error {
		cfg := network.PaperConfig(300)
		cfg.MaxLinkLen = cfg.MinLinkLen * math.Pow(2, octaves[xi])
		cfg.LogUniformLen = true
		ls, err := network.Generate(cfg, opts.Seed, pairIndex(xi, rep))
		if err != nil {
			return err
		}
		pr, err := sched.NewProblem(ls, radio.DefaultParams())
		if err != nil {
			return err
		}
		for ai, a := range algos {
			add(names[ai], a.Schedule(pr).Throughput(pr))
		}
		add("gL", float64(ls.Diversity()))
		return nil
	})
}

// StalenessTable measures schedule decay under mobility (Table G): a
// schedule computed at epoch 0 is held while every link moves under
// the random-waypoint model, and its analytic expected failures per
// slot are evaluated on the displaced geometry. x is the staleness in
// slots; rescheduling resets the curve to ≈0 (the fresh-rle series).
func StalenessTable(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	stal := []float64{0, 25, 50, 100, 250}
	algos := []sched.Algorithm{sched.RLE{}, sched.LDP{}, sched.Greedy{}}
	names := make([]string, 0, len(algos)+1)
	for _, a := range algos {
		names = append(names, "stale-"+a.Name())
	}
	names = append(names, "fresh-rle")
	table := NewTable(
		"Table G: stale-schedule expected failures under mobility (N=200, speed U[1,10]/slot)",
		"staleness (slots)", "expected failed transmissions per slot", stal, names)
	return runCustom(table, stal, opts, func(xi, rep int, add func(series string, y float64)) error {
		ls, err := network.Generate(network.PaperConfig(200), opts.Seed, pairIndex(xi, rep))
		if err != nil {
			return err
		}
		params := radio.DefaultParams()
		prep, err := sched.Prepare(ls, params)
		if err != nil {
			return err
		}
		schedules := make([]sched.Schedule, len(algos))
		for ai, a := range algos {
			schedules[ai] = prep.Schedule(a)
		}
		tr, err := mobility.NewTrace(ls, mobility.Config{
			Region: 500, SpeedMin: 1, SpeedMax: 10,
			Seed: opts.Seed ^ pairIndex(xi, rep),
		})
		if err != nil {
			return err
		}
		tr.Advance(int(stal[xi]))
		snap, err := tr.Snapshot()
		if err != nil {
			return err
		}
		// The displaced geometry gets a field of its own: the dense
		// build is O(n) with rows filled on first read, and its factors
		// equal a rebound field's bit for bit.
		displaced, err := sched.Prepare(snap, params)
		if err != nil {
			return err
		}
		pr := displaced.Problem()
		for ai := range algos {
			add(names[ai], sched.ExpectedFailures(pr, schedules[ai]))
		}
		add("fresh-rle", sched.ExpectedFailures(pr, displaced.Schedule(sched.RLE{})))
		return nil
	})
}
