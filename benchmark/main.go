// Command benchmark is schedd's load benchmark. For each workload it
// builds cmd/schedd, starts it with tracing off, drives it over
// loopback HTTP from one closed-loop client for a fixed window, sends
// a check set one request at a time, and then replays the check set
// in-process through the layers' public functions: every answer must
// match the replay bit for bit, and the replay's spans give the
// per-layer self times.
//
//	go run . -seed 1 -o out.json -trace-out spans.json   # all workloads, every metric
//	go run . -workload solve-warm -seed 2 -seconds 35 -trace 0
//
// The last line of standard output is one JSON object per workload:
// {"correct", "attempted", "failed", "metrics"}, holding the
// end-to-end metrics with -trace 0 and the per-layer metrics with
// -trace 1. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all, reporting every metric)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; develop at 1, re-check claims at 2")
	fs.IntVar(&o.seconds, "seconds", 35, "measured window per workload, in seconds")
	fs.IntVar(&o.trace, "trace", -1, "0: report end-to-end metrics; 1: report per-layer metrics (default: all workloads report both)")
	fs.StringVar(&o.out, "o", "", "write the full report (every metric with its unit and sample count) as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the replay's spans as Chrome trace_event JSON to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, o, fullSizes, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	traceOut string
}

// run executes the selected workloads and returns the exit code: 0 when
// every workload ran and every check passed.
func run(ctx context.Context, o options, sz sizes, stdout, stderr io.Writer) int {
	// The replay must see schedd's CPU count: greedy-sharded sizes its
	// tiles from GOMAXPROCS.
	runtime.GOMAXPROCS(procs)
	ws := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []workload{w}
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	dir, err := os.MkdirTemp("", "schedbench")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin, err := buildSchedd(ctx, dir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var reports []*report
	var spans []chromeEvent
	code := 0
	for i, w := range ws {
		rep, tr, err := runWorkload(ctx, bin, w, o, sz, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		reports = append(reports, rep)
		if tr != nil {
			spans = append(spans, tr.chrome("replay: "+w.name, i+1)...)
		}
		printReport(stderr, rep)
		line, err := json.Marshal(rep.result(o.trace))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Correct {
			code = 1
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, map[string]any{"seed": o.seed, "seconds": o.seconds, "go": runtime.Version(), "workloads": reports}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if o.traceOut != "" {
		if err := writeJSON(o.traceOut, map[string]any{"displayTimeUnit": "ms", "traceEvents": spans}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// writeJSON writes v as indented JSON. The span trace it writes with
// -trace-out is Chrome trace_event JSON, one process per workload,
// loadable in Perfetto and chrome://tracing like schedd's
// /debug/requests/{id}.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything one workload run measured.
type report struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the one-line summary printed per workload: the
// end-to-end metrics (trace 0), the per-layer ones (trace 1), or every
// metric the run measured (trace -1).
func (r *report) result(trace int) map[string]any {
	names := map[int][]string{0: endToEnd, 1: perLayer}[trace]
	if names == nil {
		for name := range r.Metrics {
			names = append(names, name)
		}
	}
	ms := make(map[string]any, len(names))
	for _, name := range names {
		m := r.Metrics[name]
		ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "   %-34s %14.6g %s%s\n", name, m.Value, m.Unit, n)
	}
}
