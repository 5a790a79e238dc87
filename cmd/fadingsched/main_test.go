package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, out.String())
	}
	return out.String()
}

func TestDefaultRun(t *testing.T) {
	out := runCLI(t, "-n", "60", "-seed", "3")
	for _, tok := range []string{"instance: 60 links", "ldp", "rle", "feasible=true"} {
		if !strings.Contains(out, tok) {
			t.Errorf("output missing %q:\n%s", tok, out)
		}
	}
}

func TestAllAlgorithms(t *testing.T) {
	out := runCLI(t, "-n", "40", "-algo", "all", "-slots", "20")
	for _, tok := range []string{"approxdiversity", "approxlogn", "dls", "dlsproto", "greedy", "simulated 20 slots"} {
		if !strings.Contains(out, tok) {
			t.Errorf("output missing %q", tok)
		}
	}
	if !strings.Contains(out, "exact") || !strings.Contains(out, "skipped") {
		t.Error("exact not skipped at N=40")
	}
}

func TestExactRunsOnSmallInstance(t *testing.T) {
	out := runCLI(t, "-n", "10", "-algo", "exact")
	if !strings.Contains(out, "exact") || strings.Contains(out, "skipped") {
		t.Errorf("exact should run at N=10:\n%s", out)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inst.json")
	out := runCLI(t, "-n", "25", "-seed", "5", "-save", path)
	if !strings.Contains(out, "saved 25 links") {
		t.Fatalf("save output: %s", out)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	out = runCLI(t, "-load", path, "-algo", "rle")
	if !strings.Contains(out, "instance: 25 links") {
		t.Errorf("load output: %s", out)
	}
}

func TestCustomModelFlags(t *testing.T) {
	out := runCLI(t, "-n", "30", "-alpha", "4", "-eps", "0.05", "-gamma", "2")
	if !strings.Contains(out, "alpha=4 gamma_th=2 eps=0.05") {
		t.Errorf("model line wrong:\n%s", out)
	}
}

func TestTraceFlagPrintsPhasesAndCounters(t *testing.T) {
	out := runCLI(t, "-n", "30", "-seed", "5", "-algo", "rle", "-trace")
	for _, tok := range []string{"phase sort", "phase eliminate", "counter links", "counter picks", "counter scheduled"} {
		if !strings.Contains(out, tok) {
			t.Errorf("-trace output missing %q:\n%s", tok, out)
		}
	}
}

func TestVerboseFlagLogsSolves(t *testing.T) {
	out := runCLI(t, "-n", "30", "-seed", "5", "-algo", "ldp", "-v")
	for _, tok := range []string{"solve start", "solve done", "algorithm=ldp", "duration="} {
		if !strings.Contains(out, tok) {
			t.Errorf("-v output missing %q:\n%s", tok, out)
		}
	}
}

func TestViolationsReportedForBaseline(t *testing.T) {
	out := runCLI(t, "-n", "300", "-algo", "approxdiversity")
	if !strings.Contains(out, "feasible=false") || !strings.Contains(out, "violation:") {
		t.Errorf("baseline violations not reported:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-algo", "bogus", "-n", "5"}, &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-load", "/nonexistent/file.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-n", "0"}, &out); err == nil {
		t.Error("zero links accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestTraceOutRecordsMCExactRows: -trace-out's mc_simulate events carry
// the Monte-Carlo kernel's exact-replay count.
func TestTraceOutRecordsMCExactRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runCLI(t, "-n", "300", "-seed", "2", "-algo", "approxdiversity", "-slots", "20", "-trace-out", path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "mc_simulate" {
			if rows, ok := ev.Args["exact_rows"].(float64); !ok || rows <= 0 {
				t.Fatalf("mc_simulate exact_rows = %v, want a positive count for an overpacked schedule", ev.Args["exact_rows"])
			}
			return
		}
	}
	t.Fatal("trace has no mc_simulate event")
}
