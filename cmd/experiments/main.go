// Command experiments regenerates the paper's figures and the
// repository's ablation tables. Each figure renders as an aligned text
// table (mean ± 95% CI per cell) and optionally as CSV files for
// external plotting.
//
// Examples:
//
//	experiments -fig all
//	experiments -fig fig5a -instances 50 -slots 200
//	experiments -fig fig6b -csv out/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	fadingrls "repro"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experiment is one runnable id. run is nil for thm31, which prints
// its own table (printThm31) instead of a ResultTable.
type experiment struct {
	id  string
	run func(fadingrls.ExperimentOptions) (*fadingrls.ResultTable, error)
}

// catalog lists every runnable experiment in `-fig all` order: the
// spec sweeps sorted by id, then the custom tables.
func catalog() []experiment {
	specs := fadingrls.Experiments()
	ids := make([]string, 0, len(specs))
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]experiment, 0, len(ids)+7)
	for _, id := range ids {
		spec := specs[id]
		out = append(out, experiment{id, func(o fadingrls.ExperimentOptions) (*fadingrls.ResultTable, error) {
			return fadingrls.RunExperiment(spec, o)
		}})
	}
	return append(out,
		experiment{"ratio", fadingrls.RunRatioTable},
		experiment{"thm31", nil},
		experiment{"multislot", fadingrls.RunMultislotTable},
		experiment{"traffic", fadingrls.RunTrafficTable},
		experiment{"stability", fadingrls.RunStabilityTable},
		experiment{"staleness", fadingrls.RunStalenessTable},
		experiment{"diversity", fadingrls.RunDiversityTable},
	)
}

// run executes the CLI with explicit args and output so tests can
// drive it end to end.
func run(args []string, out io.Writer) error {
	all := catalog()
	known := make([]string, len(all))
	for i, e := range all {
		known[i] = e.id
	}
	have := strings.Join(known, ", ")
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "comma-separated experiment ids, or 'all' ("+have+")")
		seed      = fs.Uint64("seed", 2017, "base seed (2017 reproduces EXPERIMENTS.md)")
		instances = fs.Int("instances", 20, "independent deployments per sweep point")
		slots     = fs.Int("slots", 100, "Monte-Carlo slots per schedule")
		csvDir    = fs.String("csv", "", "also write <id>.csv files into this directory")
		chart     = fs.Bool("plot", false, "also draw each table as an ASCII chart")
		trials    = fs.Int("trials", 0, "Monte-Carlo trials per thm31 row (0 = 100000)")
		field     = fs.String("field", "dense", "interference backend for every sweep problem: dense or sparse")
		cutoff    = fs.Float64("cutoff", 0, "sparse backend truncation cutoff (0 = default)")
		verbose   = fs.Bool("v", false, "log per-experiment progress (start, duration) to the output stream")
		traceOut  = fs.String("trace-out", "", "write a span trace of the run (one span per experiment) as Chrome trace_event JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := obs.Discard()
	if *verbose {
		logger = obs.NewLogger(out, obs.LogConfig{})
	}

	fieldOpt, err := fadingrls.FieldOption(*field, *cutoff)
	if err != nil {
		return err
	}
	opts := fadingrls.ExperimentOptions{
		Seed: *seed, Instances: *instances, Slots: *slots,
		FieldOptions: []fadingrls.ProblemOption{fieldOpt},
	}
	todo := all
	if *fig != "all" {
		todo = nil
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(all, func(e experiment) bool { return e.id == id })
			if i < 0 {
				return fmt.Errorf("unknown experiment %q (have %s)", id, have)
			}
			todo = append(todo, all[i])
		}
	}

	ec := emitConfig{
		csvDir: *csvDir, chart: *chart,
		seed: *seed, instances: *instances, slots: *slots,
		field: *field, cutoff: *cutoff,
		log: logger,
	}
	var spanTrace *obs.Trace
	if *traceOut != "" {
		spanTrace = obs.NewTraceCap(obs.NewTraceID(), "experiments", 1<<12)
	}
	for _, e := range todo {
		id := e.id
		logger.Info("experiment start", slog.String("id", id),
			slog.Int("instances", *instances), slog.Int("slots", *slots))
		start := time.Now()
		var expSp obs.Span
		if spanTrace != nil {
			expSp = spanTrace.Root().Child("experiment")
			expSp.SetStr("id", id)
		}
		if e.run == nil {
			printThm31(out, fadingrls.RunThm31Table(*seed, *trials))
		} else {
			tab, err := e.run(opts)
			if err != nil {
				return err
			}
			if err := emit(out, tab, id, ec); err != nil {
				return err
			}
		}
		expSp.End()
		logger.Info("experiment done", slog.String("id", id),
			obs.DurationSeconds("duration", time.Since(start)))
	}
	if spanTrace != nil {
		spanTrace.Finish(0)
		snap := spanTrace.Snapshot()
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := snap.WriteTraceEvent(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote span trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}
	return nil
}

// emitConfig carries the run parameters emit records into each
// experiment's manifest, plus the progress logger.
type emitConfig struct {
	csvDir    string
	chart     bool
	seed      uint64
	instances int
	slots     int
	field     string
	cutoff    float64
	log       *slog.Logger
}

// manifest is the JSON provenance record written next to each CSV: the
// exact knobs that produced the file, so a results directory is
// self-describing long after the shell history is gone.
type manifest struct {
	ID          string    `json:"id"`
	Title       string    `json:"title"`
	Seed        uint64    `json:"seed"`
	Instances   int       `json:"instances"`
	Slots       int       `json:"slots"`
	Field       string    `json:"field"`
	Cutoff      float64   `json:"cutoff,omitempty"`
	Series      []string  `json:"series"`
	Xs          []float64 `json:"xs"`
	GeneratedAt string    `json:"generated_at"`
}

func emit(out io.Writer, tab *fadingrls.ResultTable, id string, cfg emitConfig) error {
	if err := tab.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if cfg.chart {
		if err := tab.RenderChart(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if cfg.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
		return err
	}
	csvPath := filepath.Join(cfg.csvDir, id+".csv")
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tab.RenderCSV(f); err != nil {
		return err
	}
	m := manifest{
		ID: id, Title: tab.Title,
		Seed: cfg.seed, Instances: cfg.instances, Slots: cfg.slots,
		Field: cfg.field, Cutoff: cfg.cutoff,
		Series: tab.Order, Xs: tab.X,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	encoded, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	manifestPath := filepath.Join(cfg.csvDir, id+".manifest.json")
	if err := os.WriteFile(manifestPath, append(encoded, '\n'), 0o644); err != nil {
		return err
	}
	cfg.log.Info("results written", slog.String("csv", csvPath), slog.String("manifest", manifestPath))
	return nil
}

func printThm31(out io.Writer, rows []fadingrls.Thm31Row) {
	fmt.Fprintln(out, "Table B: Theorem 3.1 closed form vs Monte-Carlo")
	fmt.Fprintln(out, "-----------------------------------------------")
	fmt.Fprintf(out, "%-8s%-14s%-14s%-14s%-10s\n", "alpha", "interferers", "closed-form", "empirical", "sigmas")
	for _, r := range rows {
		fmt.Fprintf(out, "%-8.3g%-14d%-14.6f%-14.6f%-10.2f\n",
			r.Alpha, r.Interferers, r.ClosedForm, r.Empirical, r.Deviations())
	}
	fmt.Fprintln(out)
}
