// Command fadingsched generates or loads a Fading-R-LS instance, runs
// one or more scheduling algorithms on it, verifies the results against
// the Corollary 3.1 feasibility condition, and optionally measures
// failed transmissions by Monte-Carlo simulation.
//
// Examples:
//
//	fadingsched -n 300 -seed 42 -algo rle,ldp -slots 200
//	fadingsched -n 50 -save instance.json
//	fadingsched -load instance.json -algo all -alpha 3.5
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	fadingrls "repro"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fadingsched:", err)
		os.Exit(1)
	}
}

// run executes the CLI with explicit args and output so tests can
// drive it end to end.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fadingsched", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 300, "number of links to generate")
		seed   = fs.Uint64("seed", 42, "deployment seed")
		index  = fs.Uint64("index", 0, "deployment index (varies the instance for a fixed seed)")
		region = fs.Float64("region", 500, "deployment square side")
		minLen = fs.Float64("minlen", 5, "minimum link length")
		maxLen = fs.Float64("maxlen", 20, "maximum link length")
		rate   = fs.Float64("rate", 1, "link data rate (uniform)")
		rateHi = fs.Float64("ratemax", 0, "upper rate bound for heterogeneous rates (0 = uniform)")

		alpha = fs.Float64("alpha", 3, "path-loss exponent α")
		gamma = fs.Float64("gamma", 1, "decoding threshold γ_th")
		eps   = fs.Float64("eps", 0.01, "acceptable error probability ε")

		algos = fs.String("algo", "ldp,rle", "comma-separated algorithms, or 'all'")
		slots = fs.Int("slots", 0, "Monte-Carlo slots for failure measurement (0 = skip)")

		field  = fs.String("field", "dense", "interference backend: dense (exact n×n matrix) or sparse (truncated near field, scales past the matrix)")
		cutoff = fs.Float64("cutoff", 0, "sparse backend truncation cutoff (smallest stored factor; 0 = default fraction of gamma_eps)")

		load = fs.String("load", "", "load instance JSON instead of generating")
		save = fs.String("save", "", "save the instance JSON and exit")

		verbose  = fs.Bool("v", false, "log solve progress (start, duration) to the output stream")
		trace    = fs.Bool("trace", false, "print each solve's phase timings and algorithm counters")
		traceOut = fs.String("trace-out", "", "write the run's span trace as Chrome trace_event JSON to this file (load in chrome://tracing or Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := obs.Discard()
	if *verbose {
		logger = obs.NewLogger(out, obs.LogConfig{})
	}

	var (
		ls  *fadingrls.LinkSet
		err error
	)
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		if ls, err = fadingrls.ReadLinkSet(f); err != nil {
			return err
		}
	} else {
		cfg := fadingrls.GenConfig{
			N: *n, Region: *region,
			MinLinkLen: *minLen, MaxLinkLen: *maxLen,
			Rate: *rate, RateMax: *rateHi,
		}
		ls, err = fadingrls.Generate(cfg, *seed, *index)
		if err != nil {
			return err
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ls.Write(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved %d links to %s\n", ls.Len(), *save)
		return nil
	}

	params := fadingrls.DefaultParams()
	params.Alpha = *alpha
	params.GammaTh = *gamma
	params.Eps = *eps
	fieldOpt, err := fadingrls.FieldOption(*field, *cutoff)
	if err != nil {
		return err
	}
	// With -trace-out the whole run records into one span trace — the
	// field build and each solve (phase spans included) — exported as a
	// trace_event file at the end.
	runCtx := context.Background()
	var spanTrace *obs.Trace
	if *traceOut != "" {
		spanTrace = obs.NewTraceCap(obs.NewTraceID(), "fadingsched", 1<<14)
		runCtx = obs.ContextWithSpan(runCtx, spanTrace.Root())
	}
	pr, err := fadingrls.NewProblemContext(runCtx, ls, params, fieldOpt)
	if err != nil {
		return err
	}
	delta, _ := ls.MinLength()
	fmt.Fprintf(out, "instance: %d links, lengths [%.3g, %.3g], g(L) = %d\n",
		ls.Len(), delta, ls.MaxLength(), ls.Diversity())
	fmt.Fprintf(out, "model: alpha=%g gamma_th=%g eps=%g (gamma_eps=%.5g) field=%s\n\n",
		params.Alpha, params.GammaTh, params.Eps, params.GammaEps(), pr.FieldName())

	names := strings.Split(*algos, ",")
	if *algos == "all" {
		names = fadingrls.Algorithms()
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "exact" && ls.Len() > 24 {
			fmt.Fprintf(out, "%-16s skipped (exact solver caps at 24 links)\n", name)
			continue
		}
		solveSp := obs.SpanFrom(runCtx).Child("solve")
		logger.Info("solve start", slog.String("algorithm", name), slog.Int("links", ls.Len()))
		solveStart := time.Now()
		var s fadingrls.Schedule
		var stats *fadingrls.SolveStats
		if *trace || solveSp.Enabled() {
			// The solve's stats feed -trace's printed phase table, and its
			// phase spans land under solveSp in the -trace-out file.
			s, stats, err = fadingrls.SolveTraced(obs.ContextWithSpan(runCtx, solveSp), name, pr)
		} else {
			s, err = fadingrls.SolveContext(runCtx, name, pr)
		}
		solveSp.End()
		if err != nil {
			return err
		}
		logger.Info("solve done", slog.String("algorithm", name),
			slog.Int("scheduled", s.Len()), obs.DurationSeconds("duration", time.Since(solveStart)))
		assessed := fadingrls.Assess(pr, s)
		viol := assessed.Violations
		fmt.Fprintf(out, "%-16s links=%-4d throughput=%-8.4g feasible=%-5v expected-failures/slot=%.4g\n",
			name, s.Len(), s.Throughput(pr), assessed.Feasible(), assessed.ExpectedFailures)
		for k, v := range viol {
			if k == 5 {
				fmt.Fprintf(out, "%-16s   … %d more violations\n", "", len(viol)-k)
				break
			}
			fmt.Fprintf(out, "%-16s   violation: %v\n", "", v)
		}
		if *trace {
			printTrace(out, stats)
		}
		if *slots > 0 {
			mcSp := obs.SpanFrom(runCtx).Child("mc_simulate")
			if mcSp.Enabled() {
				mcSp.SetStr("algorithm", name)
				mcSp.SetInt("slots", int64(*slots))
			}
			res, err := fadingrls.Simulate(pr, s, fadingrls.SimConfig{Slots: *slots, Seed: *seed})
			if mcSp.Enabled() {
				mcSp.SetInt("exact_rows", res.ExactRows)
			}
			mcSp.End()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-16s   simulated %d slots: failures/slot = %v (rate %.4g)\n",
				"", *slots, res.Failures.String(), res.FailureRate())
		}
	}
	if spanTrace != nil {
		if err := writeTraceFile(spanTrace, *traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote span trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}
	return nil
}

// writeTraceFile finishes the run trace and exports it as Chrome
// trace_event JSON.
func writeTraceFile(t *obs.Trace, path string) error {
	t.Finish(0)
	snap := t.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteTraceEvent(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// printTrace renders one solve's phase timings and counters under the
// result line, phases in execution order, counters alphabetically.
func printTrace(out io.Writer, st *fadingrls.SolveStats) {
	if st == nil {
		return
	}
	for _, ph := range st.Phases {
		fmt.Fprintf(out, "%-16s   phase %-12s %.6fs\n", "", ph.Name, ph.Seconds)
	}
	keys := make([]string, 0, len(st.Counters))
	for k := range st.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%-16s   counter %-18s %d\n", "", k, st.Counters[k])
	}
}
