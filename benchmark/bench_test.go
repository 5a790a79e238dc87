package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// toySizes runs every workload at n ≤ 300 with a check set of a few
// requests, so the whole benchmark finishes in seconds.
var toySizes = sizes{
	denseN: 300, scaleN: 300, scaleShards: 4, warmSets: 4,
	mcSlots: 20, scaleMCSlots: 2, trafficSlots: 20,
	checkEvents: 6, scaleEvents: 4, coldWarmup: 4, setups: 2,
	windowScale: 20,
}

// TestBenchmarkSmoke runs every workload at toy size with 1 s
// windows and checks the output format: every metric BENCHMARK.json
// names is reported with its unit, nothing failed, and every check-set
// answer matched the in-process replay bit for bit (correct).
func TestBenchmarkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives schedd")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, l := range []struct {
		name string
		spec []struct{ Name, Unit string }
		code []string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var names []string
		for _, m := range l.spec {
			names = append(names, m.Name)
		}
		if !slices.Equal(names, l.code) {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark reports %v", l.name, names, l.code)
		}
	}

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), options{seed: 1, seconds: 1, trace: -1}, toySizes, &stdout, &stderr)
	t.Logf("benchmark output:\n%s", stderr.String())
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("result line %d: %v", lines, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("result %d: correct=%v attempted=%d failed=%d", lines, res.Correct, res.Attempted, res.Failed)
		}
		if m := res.Metrics["error_rate"]; m.Value != 0 {
			t.Errorf("result %d: error_rate %v", lines, m.Value)
		}
		for _, want := range append(spec.EndToEnd, spec.PerLayer...) {
			got, ok := res.Metrics[want.Name]
			if !ok {
				t.Errorf("result %d: metric %s missing", lines, want.Name)
			} else if got.Unit != want.Unit {
				t.Errorf("result %d: metric %s in %q, BENCHMARK.json says %q", lines, want.Name, got.Unit, want.Unit)
			}
		}
	}
	if lines != len(workloads) {
		t.Errorf("%d result lines for %d workloads", lines, len(workloads))
	}
}

// TestResultKeys checks the one-line summary has exactly its four
// top-level keys, and only the metrics its trace mode names.
func TestResultKeys(t *testing.T) {
	rep := &report{Correct: true, Attempted: 3, Metrics: map[string]metric{
		"ops_per_s": {Value: 1, Unit: "1/s"}, "server.decode.ms": {Value: 2, Unit: "ms"},
	}}
	for trace, want := range map[int][]string{0: endToEnd, 1: perLayer} {
		res := rep.result(trace)
		if len(res) != 4 {
			t.Errorf("trace %d: %d top-level keys, want correct, attempted, failed, metrics", trace, len(res))
		}
		ms := res["metrics"].(map[string]any)
		if len(ms) != len(want) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(ms), len(want))
		}
	}
}
