package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
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

// quick keeps table runs fast in tests.
var quick = []string{"-instances", "2", "-slots", "10"}

func TestSingleFigure(t *testing.T) {
	out := runCLI(t, append([]string{"-fig", "fig6a"}, quick...)...)
	for _, tok := range []string{"Fig 6(a)", "ldp", "rle", "links N"} {
		if !strings.Contains(out, tok) {
			t.Errorf("output missing %q:\n%s", tok, out)
		}
	}
}

func TestMultipleFiguresCommaList(t *testing.T) {
	out := runCLI(t, append([]string{"-fig", "fig6a,ratio"}, quick...)...)
	if !strings.Contains(out, "Fig 6(a)") || !strings.Contains(out, "Table A") {
		t.Errorf("comma list did not run both:\n%s", out)
	}
}

func TestPlotFlag(t *testing.T) {
	out := runCLI(t, append([]string{"-fig", "fig6a", "-plot"}, quick...)...)
	if !strings.Contains(out, "█") && !strings.Contains(out, "·") && !strings.Contains(out, "*") {
		t.Errorf("-plot produced no chart:\n%s", out)
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	runCLI(t, append([]string{"-fig", "fig6a", "-csv", dir}, quick...)...)
	data, err := os.ReadFile(filepath.Join(dir, "fig6a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,series,mean,ci95,n\n") {
		t.Errorf("CSV header wrong: %q", string(data[:40]))
	}
}

func TestManifestWrittenNextToCSV(t *testing.T) {
	dir := t.TempDir()
	runCLI(t, append([]string{"-fig", "fig6a", "-csv", dir, "-seed", "7"}, quick...)...)
	data, err := os.ReadFile(filepath.Join(dir, "fig6a.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ID          string    `json:"id"`
		Title       string    `json:"title"`
		Seed        uint64    `json:"seed"`
		Instances   int       `json:"instances"`
		Slots       int       `json:"slots"`
		Field       string    `json:"field"`
		Series      []string  `json:"series"`
		Xs          []float64 `json:"xs"`
		GeneratedAt string    `json:"generated_at"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v\n%s", err, data)
	}
	if m.ID != "fig6a" || m.Seed != 7 || m.Instances != 2 || m.Slots != 10 || m.Field != "dense" {
		t.Errorf("manifest parameters wrong: %+v", m)
	}
	if !strings.Contains(m.Title, "Fig 6(a)") {
		t.Errorf("manifest title = %q", m.Title)
	}
	if len(m.Series) == 0 || len(m.Xs) == 0 || m.GeneratedAt == "" {
		t.Errorf("manifest incomplete: %+v", m)
	}
}

func TestVerboseProgressLogs(t *testing.T) {
	out := runCLI(t, append([]string{"-fig", "fig6a", "-v"}, quick...)...)
	for _, tok := range []string{"experiment start", "experiment done", "id=fig6a", "duration="} {
		if !strings.Contains(out, tok) {
			t.Errorf("-v output missing %q:\n%s", tok, out)
		}
	}
}

func TestCustomTables(t *testing.T) {
	out := runCLI(t, append([]string{"-fig", "multislot"}, quick...)...)
	if !strings.Contains(out, "Table E") {
		t.Errorf("multislot table missing:\n%s", out)
	}
	out = runCLI(t, append([]string{"-fig", "staleness"}, quick...)...)
	if !strings.Contains(out, "Table G") {
		t.Errorf("staleness table missing:\n%s", out)
	}
}

// TestUnknownFigureErrors: an unknown id fails, and the error names
// every runnable id, in `-fig all` order.
func TestUnknownFigureErrors(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-fig", "fig99"}, &out)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	_, have, ok := strings.Cut(err.Error(), "(have ")
	if !ok {
		t.Fatalf("error does not list the runnable ids: %v", err)
	}
	want := []string{"ablation-c2", "ablation-classes", "ablation-dls", "fig5a", "fig5a-analytic",
		"fig5b", "fig6a", "fig6b", "ratio", "thm31", "multislot", "traffic", "stability",
		"staleness", "diversity"}
	if got := strings.Split(strings.TrimSuffix(have, ")"), ", "); !slices.Equal(got, want) {
		t.Errorf("error lists %q, want %q", got, want)
	}
}

func TestThm31Table(t *testing.T) {
	out := runCLI(t, "-fig", "thm31", "-trials", "2000")
	if !strings.Contains(out, "Table B") || !strings.Contains(out, "closed-form") {
		t.Errorf("thm31 output wrong:\n%s", out)
	}
	if strings.Count(out, "\n") < 13 {
		t.Errorf("thm31 table too short:\n%s", out)
	}
}

func TestDiversityAndTrafficTables(t *testing.T) {
	out := runCLI(t, append([]string{"-fig", "diversity"}, quick...)...)
	if !strings.Contains(out, "Table H") {
		t.Errorf("diversity table missing:\n%s", out)
	}
	out = runCLI(t, append([]string{"-fig", "traffic"}, quick...)...)
	if !strings.Contains(out, "Table F") {
		t.Errorf("traffic table missing:\n%s", out)
	}
	out = runCLI(t, append([]string{"-fig", "stability"}, quick...)...)
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "maxqueue") {
		t.Errorf("stability table missing:\n%s", out)
	}
}
