package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/network"
)

// syncBuffer is an io.Writer safe to read while run() writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// TestServeSmoke is the `make serve-smoke` gate: boot schedd on
// ephemeral ports, solve one instance over real HTTP, hit the debug
// port, then cancel and require a clean drain.
func TestServeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, out)
	}()

	// Wait for both listeners to announce themselves.
	var apiAddr, debugAddr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil && strings.Contains(out.String(), "debug") {
			apiAddr = m[1]
			if dm := regexp.MustCompile(`debug \(pprof\) on (\S+)`).FindStringSubmatch(out.String()); dm != nil {
				debugAddr = dm[1]
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("schedd never announced listeners; output:\n%s", out.String())
		}
		select {
		case err := <-done:
			t.Fatalf("schedd exited early: %v\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}

	ls, err := network.Generate(network.PaperConfig(20), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(map[string]interface{}{
		"algorithm": "rle",
		"links":     ls.Links(),
		"mc_slots":  20,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/solve", apiAddr), "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("solve request failed: %v", err)
	}
	var solved struct {
		Feasible   bool  `json:"feasible"`
		Active     []int `json:"active"`
		Simulation *struct {
			Slots int `json:"slots"`
		} `json:"simulation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !solved.Feasible || solved.Simulation == nil {
		t.Fatalf("smoke solve wrong: status %d, %+v", resp.StatusCode, solved)
	}

	// The private port serves pprof; the API port's /metrics counted
	// the smoke request.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", debugAddr))
	if err != nil {
		t.Fatalf("debug pprof failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug pprof = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", apiAddr))
	if err != nil {
		t.Fatalf("metrics scrape failed: %v", err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^schedd_requests_total (\d+)$`).FindSubmatch(exposition)
	if m == nil || string(m[1]) == "0" {
		t.Errorf("metrics did not count the smoke request:\n%s", exposition)
	}

	// Clean shutdown on signal (ctx cancel stands in for SIGTERM).
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("schedd did not shut down within 10s")
	}
	if !strings.Contains(out.String(), "clean shutdown") {
		t.Errorf("missing clean-shutdown line:\n%s", out.String())
	}
}

// TestMetricsSmoke is the `make metrics-smoke` gate: boot schedd with
// JSON logs, drive one solve, and check the three observability
// surfaces agree — the Prometheus scrape moved, the response carried
// solver stats and a trace ID, and the access log carried the same
// trace ID.
func TestMetricsSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "", "-log-format", "json"}, out)
	}()

	var apiAddr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			apiAddr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("schedd never announced its listener; output:\n%s", out.String())
		}
		select {
		case err := <-done:
			t.Fatalf("schedd exited early: %v\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}

	ls, err := network.Generate(network.PaperConfig(12), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(map[string]interface{}{"algorithm": "ldp", "links": ls.Links()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/solve", apiAddr), "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("solve request failed: %v", err)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	var solved struct {
		Stats *struct {
			Algorithm string `json:"algorithm"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if traceID == "" {
		t.Error("solve response missing X-Trace-Id")
	}
	if solved.Stats == nil || solved.Stats.Algorithm != "ldp" {
		t.Errorf("solve response missing solver stats: %+v", solved.Stats)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", apiAddr))
	if err != nil {
		t.Fatalf("metrics scrape failed: %v", err)
	}
	scrape := make([]byte, 1<<20)
	n, _ := resp.Body.Read(scrape)
	resp.Body.Close()
	exposition := string(scrape[:n])
	for _, want := range []string{
		"# TYPE schedd_requests_total counter",
		`schedd_solves_total{algorithm="ldp"} 1`,
		"schedd_request_duration_seconds_count",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("scrape missing %q:\n%s", want, exposition)
		}
	}

	if !strings.Contains(out.String(), fmt.Sprintf("%q:%q", "trace_id", traceID)) {
		t.Errorf("access log missing trace_id %s:\n%s", traceID, out.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("schedd did not shut down within 10s")
	}
}

// TestTraceSmoke is the `make trace-smoke` gate: boot schedd, drive a
// traced n=2000 solve plus one streaming-session event, then read the
// flight recorder back — /debug/requests must list both traces with
// their field-build, solver, and session-event spans (each solve's
// phases nested under its solve span, carrying the solver's counters),
// and the per-trace endpoint must export nested Chrome trace_event
// JSON.
func TestTraceSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", ""}, out)
	}()

	var apiAddr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			apiAddr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("schedd never announced its listener; output:\n%s", out.String())
		}
		select {
		case err := <-done:
			t.Fatalf("schedd exited early: %v\n%s", err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}

	// A traced solve at n=2000: big enough that the dense field build
	// and every solver phase record real spans. The client supplies the
	// trace ID, so the recorder lookup below needs no header plumbing.
	const solveTrace = "c0ffee00c0ffee00"
	ls, err := network.Generate(network.PaperConfig(2000), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(map[string]interface{}{"algorithm": "rle", "links": ls.Links()})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("http://%s/v1/solve", apiAddr), bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", solveTrace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("solve request failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != solveTrace {
		t.Fatalf("middleware did not adopt inbound trace ID: got %q", got)
	}

	// One streaming-session event so the dispatch path records too:
	// register a small instance, stream a single retune, read the delta.
	sls, err := network.Generate(network.PaperConfig(16), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	sessBody, err := json.Marshal(map[string]interface{}{"algorithm": "greedy", "links": sls.Links()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(fmt.Sprintf("http://%s/v1/session", apiAddr), "application/json", bytes.NewReader(sessBody))
	if err != nil {
		t.Fatalf("session create failed: %v", err)
	}
	var sess struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sess.SessionID == "" {
		t.Fatalf("session create: status %d, id %q", resp.StatusCode, sess.SessionID)
	}
	pr, pw := io.Pipe()
	evReq, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("http://%s/v1/session/%s/events", apiAddr, sess.SessionID), pr)
	if err != nil {
		t.Fatal(err)
	}
	evReq.Header.Set("Content-Type", "application/x-ndjson")
	evResp, err := http.DefaultClient.Do(evReq)
	if err != nil {
		t.Fatalf("event stream failed: %v", err)
	}
	defer evResp.Body.Close()
	if evResp.StatusCode != http.StatusOK {
		t.Fatalf("event stream status %d", evResp.StatusCode)
	}
	if _, err := pw.Write([]byte(`{"type":"retune","eps":0.02}` + "\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(evResp.Body)
	if !sc.Scan() {
		t.Fatalf("no delta frame: %v", sc.Err())
	}
	pw.Close()
	// The stream's trace reaches the recorder when its handler returns,
	// which is before the response ends: read to EOF so the recorder
	// query below cannot race it.
	io.Copy(io.Discard, evResp.Body)

	// The recorder must have kept both traces with their span trees.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/requests?n=50", apiAddr))
	if err != nil {
		t.Fatalf("debug requests failed: %v", err)
	}
	var dbg struct {
		Recorder struct {
			Seen int64 `json:"seen"`
		} `json:"recorder"`
		Recent []struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
			Spans   []struct {
				ID     int32          `json:"id"`
				Parent int32          `json:"parent"`
				Name   string         `json:"name"`
				Attrs  map[string]any `json:"attrs"`
			} `json:"spans"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dbg.Recorder.Seen < 2 {
		t.Fatalf("recorder saw %d traces, want ≥2", dbg.Recorder.Seen)
	}
	// The dense field fills sender rows as the solver reads them, so
	// the build has no fill phase and the solve and session-event spans
	// report the resident rows — for RLE at n=2000, a small share.
	names := map[string]map[string]bool{}
	denseRows := map[string]map[string]float64{}
	for _, tr := range dbg.Recent {
		set := map[string]bool{}
		rows := map[string]float64{}
		for _, sp := range tr.Spans {
			set[sp.Name] = true
			if v, ok := sp.Attrs["dense_rows"].(float64); ok {
				rows[sp.Name] = v
			}
		}
		names[tr.TraceID] = set
		denseRows[tr.TraceID] = rows
	}
	solveSpans, ok := names[solveTrace]
	if !ok {
		t.Fatalf("solve trace %s not in recorder; have %v", solveTrace, names)
	}
	for _, want := range []string{"field_build", "solve"} {
		if !solveSpans[want] {
			t.Errorf("solve trace missing %q span; have %v", want, solveSpans)
		}
	}
	if solveSpans["dense_fill"] {
		t.Errorf("solve trace still records an eager dense_fill span; have %v", solveSpans)
	}
	if rows, ok := denseRows[solveTrace]["solve"]; !ok || rows < 1 || rows >= 2000 {
		t.Errorf("solve span dense_rows = %v (present %v), want in [1, 2000)", rows, ok)
	}
	sessionTraced := false
	for id, set := range names {
		if set["session_event"] {
			sessionTraced = true
			if _, ok := denseRows[id]["session_event"]; !ok {
				t.Errorf("session_event span in trace %s has no dense_rows attribute", id)
			}
		}
	}
	if !sessionTraced {
		t.Errorf("no retained trace carries a session_event span; have %v", names)
	}

	// Solver phases sit under their solve span and carry the solver's
	// counters: RLE's sort and eliminate in the solve trace, greedy's
	// sort and insert in the session-event trace.
	checked := 0
	for _, tr := range dbg.Recent {
		var wantPhases []string
		var wantCounters []string
		switch {
		case tr.TraceID == solveTrace:
			wantPhases, wantCounters = []string{"sort", "eliminate"}, []string{"picks", "rule1_eliminated", "rule2_eliminated"}
		case strings.HasSuffix(tr.Name, "/events"):
			wantPhases, wantCounters = []string{"sort", "insert"}, []string{"admitted", "rejected"}
		default:
			continue
		}
		checked++
		solveIDs := map[int32]bool{}
		for _, sp := range tr.Spans {
			if sp.Name == "solve" {
				solveIDs[sp.ID] = true
			}
		}
		counters := map[string]bool{}
		for _, want := range wantPhases {
			found := false
			for _, sp := range tr.Spans {
				if sp.Name == want && solveIDs[sp.Parent] {
					found = true
					for k := range sp.Attrs {
						counters[k] = true
					}
				}
			}
			if !found {
				t.Errorf("%s trace: no %q span under a solve span", tr.Name, want)
			}
		}
		for _, k := range wantCounters {
			if !counters[k] {
				t.Errorf("%s trace: solver phases carry no %q counter (have %v)", tr.Name, k, counters)
			}
		}
	}
	if checked != 2 {
		t.Errorf("found %d of the solve and session-event traces, want 2", checked)
	}

	// The per-trace export is Chrome trace_event JSON with the nested
	// complete events chrome://tracing renders.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/requests/%s", apiAddr, solveTrace))
	if err != nil {
		t.Fatalf("trace export failed: %v", err)
	}
	var export struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	complete := 0
	for _, ev := range export.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete < 4 {
		t.Errorf("trace export has %d complete events, want ≥4: %+v", complete, export.TraceEvents)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("schedd did not shut down within 10s")
	}
}

// TestRunRejectsBadFlags keeps the CLI surface honest.
func TestRunRejectsBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-definitely-not-a-flag"}, &syncBuffer{})
	if err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunFailsOnUnbindableAddress covers the startup error path.
func TestRunFailsOnUnbindableAddress(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "256.256.256.256:1"}, &syncBuffer{})
	if err == nil {
		t.Fatal("unbindable address accepted")
	}
}
