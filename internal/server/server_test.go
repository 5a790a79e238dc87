package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sched"
)

// Test-only algorithms exercising the deadline and drain paths
// deterministically. Registered once for the whole test binary; the
// happy-path sweep skips the "test-" prefix.

// slowAlgo never finishes on its own — the solve ends exactly when the
// request context does, making deadline tests timing-independent.
type slowAlgo struct{}

func (slowAlgo) Name() string { return "test-slow" }
func (slowAlgo) Schedule(pr *sched.Problem) sched.Schedule {
	panic("test-slow requires a context")
}
func (slowAlgo) ScheduleContext(ctx context.Context, pr *sched.Problem) (sched.Schedule, error) {
	<-ctx.Done()
	return sched.Schedule{}, ctx.Err()
}

// sleepAlgo takes a fixed wall-clock time and then succeeds — the
// in-flight load for the graceful-drain test.
type sleepAlgo struct{}

const sleepAlgoDelay = 300 * time.Millisecond

func (sleepAlgo) Name() string { return "test-sleep" }
func (sleepAlgo) Schedule(pr *sched.Problem) sched.Schedule {
	s, _ := sleepAlgo{}.ScheduleContext(context.Background(), pr)
	return s
}
func (sleepAlgo) ScheduleContext(ctx context.Context, pr *sched.Problem) (sched.Schedule, error) {
	select {
	case <-ctx.Done():
		return sched.Schedule{}, ctx.Err()
	case <-time.After(sleepAlgoDelay):
		return sched.NewSchedule("test-sleep", nil), nil
	}
}

func TestMain(m *testing.M) {
	if err := sched.Register(slowAlgo{}); err != nil {
		panic(err)
	}
	if err := sched.Register(sleepAlgo{}); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// paperLinks returns a valid deployment of n links.
func paperLinks(t testing.TB, n int, seed uint64) []network.Link {
	t.Helper()
	ls, err := network.Generate(network.PaperConfig(n), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ls.Links()
}

// postSolve marshals req and POSTs it to ts.
func postSolve(t testing.TB, ts *httptest.Server, req SolveRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t testing.TB, r io.ReadCloser) []byte {
	t.Helper()
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSolveHappyPathAllAlgorithms(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links := paperLinks(t, 10, 1)

	for _, name := range sched.Names() {
		if strings.HasPrefix(name, "test-") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			resp := postSolve(t, ts, SolveRequest{Algorithm: name, Links: links})
			body := readAll(t, resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("Content-Type"); got != "application/json" {
				t.Errorf("content type %q", got)
			}
			var out SolveResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("decoding %s: %v", body, err)
			}
			if out.Algorithm != name || out.N != len(links) || out.Field != "dense" {
				t.Errorf("echo fields wrong: %+v", out)
			}
			// The deterministic-SINR baselines overpack under fading by
			// design (the paper's Fig. 5 point), so only the fading-aware
			// algorithms must verify feasible.
			fadingAware := map[string]bool{"ldp": true, "ldp-banded": true, "rle": true,
				"greedy": true, "greedy-sharded": true, "exact": true, "dls": true}
			if fadingAware[name] && !out.Feasible {
				t.Errorf("%s returned infeasible schedule", name)
			}
			if len(out.SuccessProb) != len(out.Active) {
				t.Errorf("success_prob length %d != active length %d", len(out.SuccessProb), len(out.Active))
			}
			for i, p := range out.SuccessProb {
				if fadingAware[name] && (p < 0.98 || p > 1) {
					t.Errorf("success_prob[%d] = %v outside the ε-feasible range", i, p)
				}
			}
			for i := 1; i < len(out.Active); i++ {
				if out.Active[i] <= out.Active[i-1] {
					t.Errorf("active set not strictly ascending: %v", out.Active)
				}
			}
		})
	}
}

func TestSolveSparseFieldAndSimulation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postSolve(t, ts, SolveRequest{
		Algorithm: "rle", Links: paperLinks(t, 50, 2),
		Field: "sparse", MCSlots: 50, MCSeed: 7,
	})
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Field != "sparse" {
		t.Errorf("field = %q, want sparse", out.Field)
	}
	if out.Simulation == nil || out.Simulation.Slots != 50 {
		t.Errorf("simulation missing or wrong: %+v", out.Simulation)
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links, _ := json.Marshal(paperLinks(t, 3, 3))

	type badRequest struct {
		name, body string
		wantCode   int
		wantInBody string
	}
	// The decode rows hold for every JSON-body route, which share one
	// request preamble; /v1/solve runs them with its own rows below.
	decodeCases := []badRequest{
		{"malformed json", `{"links": [`, http.StatusBadRequest, "malformed"},
		{"wrong top-level type", `[1,2,3]`, http.StatusBadRequest, "malformed"},
		{"unknown field", `{"links":[],"bogus":1}`, http.StatusBadRequest, "bogus"},
		{"trailing data", fmt.Sprintf(`{"links":%s} extra`, links), http.StatusBadRequest, "trailing"},
	}
	check := func(t *testing.T, route string, tc badRequest) {
		resp, err := ts.Client().Post(ts.URL+route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp.Body)
		if resp.StatusCode != tc.wantCode {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("error envelope missing: %s", body)
		}
		if !strings.Contains(strings.ToLower(e.Error), tc.wantInBody) {
			t.Errorf("error %q does not mention %q", e.Error, tc.wantInBody)
		}
	}
	for _, route := range jsonRoutes[1:] {
		for _, tc := range decodeCases {
			t.Run(route[1:]+"/"+tc.name, func(t *testing.T) { check(t, route, tc) })
		}
	}

	cases := append(decodeCases, []badRequest{
		{"missing algorithm", fmt.Sprintf(`{"links":%s}`, links), http.StatusBadRequest, "missing algorithm"},
		{"unknown algorithm", fmt.Sprintf(`{"algorithm":"nope","links":%s}`, links), http.StatusBadRequest, "unknown algorithm"},
		{"bad alpha", fmt.Sprintf(`{"algorithm":"rle","alpha":1.5,"links":%s}`, links), http.StatusBadRequest, "alpha"},
		{"bad field backend", fmt.Sprintf(`{"algorithm":"rle","field":"magic","links":%s}`, links), http.StatusBadRequest, "magic"},
		{"negative timeout", fmt.Sprintf(`{"algorithm":"rle","timeout_ms":-5,"links":%s}`, links), http.StatusBadRequest, "timeout_ms"},
		{"negative mc slots", fmt.Sprintf(`{"algorithm":"rle","mc_slots":-1,"links":%s}`, links), http.StatusBadRequest, "mc_slots"},
		{"invalid links", `{"algorithm":"rle","links":[{"sender":{"X":0,"Y":0},"receiver":{"X":0,"Y":0},"rate":1}]}`, http.StatusBadRequest, "links"},
		{"duplicate sender", `{"algorithm":"rle","links":[{"sender":{"X":0,"Y":0},"receiver":{"X":1,"Y":0},"rate":1},{"sender":{"X":0,"Y":0},"receiver":{"X":2,"Y":0},"rate":1}]}`, http.StatusBadRequest, "links"},
	}...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, "/v1/solve", tc) })
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/v1/solve")
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp.Body)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
		}
	})
}

// jsonRoutes are the routes that decode a JSON request body.
var jsonRoutes = []string{"/v1/solve", "/v1/solve/batch", "/v1/session", "/v1/traffic"}

func TestOversizedBodyGets413(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 2048})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	big, err := json.Marshal(map[string]any{"links": paperLinks(t, 100, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range jsonRoutes {
		resp, err := ts.Client().Post(ts.URL+route, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp.Body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", route, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "2048") {
			t.Errorf("%s: 413 body should name the limit: %s", route, body)
		}
	}
}

func TestInstanceTooLargeGets400(t *testing.T) {
	srv := New(Config{MaxLinks: 5})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postSolve(t, ts, SolveRequest{Algorithm: "rle", Links: paperLinks(t, 6, 5)})
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "too large") {
		t.Fatalf("status %d body %s, want 400 naming the instance limit", resp.StatusCode, body)
	}
}

// TestSolverRefusalGets400 posts a valid instance the solver itself
// refuses (Exact's MaxN panic contract): the daemon must answer 400,
// not let the panic drop the connection — on /v1/solve and on session
// create alike, since both solve through the same refusal guard.
func TestSolverRefusalGets400(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	resp := postSolve(t, ts, SolveRequest{Algorithm: "exact", Links: paperLinks(t, 27, 9)})
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "refused") {
		t.Fatalf("status %d body %s, want 400 naming the refusal", resp.StatusCode, body)
	}
	resp = postSession(t, ts, SessionRequest{Algorithm: "exact", Links: paperLinks(t, 40, 9)})
	body = readAll(t, resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "refused") {
		t.Fatalf("session create: status %d body %s, want 400 naming the refusal", resp.StatusCode, body)
	}
	// The server must still be serving on the same connection pool.
	resp = postSolve(t, ts, SolveRequest{Algorithm: "rle", Links: paperLinks(t, 6, 5)})
	readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request got %d, want 200", resp.StatusCode)
	}
}

func TestDeadlineExceededGets504(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	start := time.Now()
	resp := postSolve(t, ts, SolveRequest{
		Algorithm: "test-slow", Links: paperLinks(t, 3, 6), TimeoutMS: 50,
	})
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline response took %v — cancellation did not propagate", elapsed)
	}
}

// TestDeadlineAbortsExactMidSolve drives the real branch-and-bound
// through the whole stack: the instance takes tens of milliseconds of
// search uncancelled (far more under -race), the request allows 5 ms,
// so the 504 proves the solver observed the context mid-solve.
func TestDeadlineAbortsExactMidSolve(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ls, err := network.Generate(network.GenConfig{N: 26, Region: 500, MinLinkLen: 5, MaxLinkLen: 20, Rate: 1}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp := postSolve(t, ts, SolveRequest{Algorithm: "exact", Links: ls.Links(), TimeoutMS: 5})
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

func TestCacheHitDeterminism(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	req := SolveRequest{
		Algorithm: "dls", Links: paperLinks(t, 40, 8), MCSlots: 30, MCSeed: 11,
	}

	first := postSolve(t, ts, req)
	firstBody := readAll(t, first.Body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first request failed: %s", firstBody)
	}
	if got := first.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}

	second := postSolve(t, ts, req)
	secondBody := readAll(t, second.Body)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second request failed: %s", secondBody)
	}
	if got := second.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", firstBody, secondBody)
	}

	// Any input that changes the problem must change the key.
	req.Eps = 0.05
	third := postSolve(t, ts, req)
	readAll(t, third.Body)
	if got := third.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("changed request served from cache (X-Cache = %q)", got)
	}

	m := srv.metrics
	if m.cacheHits.Value() != 1 || m.cacheMiss.Value() != 2 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/2", m.cacheHits.Value(), m.cacheMiss.Value())
	}
}

// TestConcurrentRequests hammers the full pipeline from many
// goroutines; run under -race (scripts/check.sh does) it doubles as
// the data-race test for the pool, cache, and metrics.
func TestConcurrentRequests(t *testing.T) {
	// A budget of a few bodies: 15 distinct answers churn it, so the
	// eviction path races the hit path too.
	const budget = 2 << 10
	srv := New(Config{Workers: 4, CacheBytes: budget})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	algos := []string{"ldp", "rle", "greedy", "dls", "approxlogn"}
	instances := [][]network.Link{paperLinks(t, 30, 10), paperLinks(t, 30, 11), paperLinks(t, 30, 12)}

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				req := SolveRequest{
					Algorithm: algos[(g+k)%len(algos)],
					Links:     instances[(g*7+k)%len(instances)],
				}
				body, err := json.Marshal(req)
				if err != nil {
					errs <- err
					return
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.metrics.InFlight(); got != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0", got)
	}
	if _, b := srv.cache.residency(); b > budget {
		t.Errorf("result cache holds %d bytes, over its %d-byte budget", b, budget)
	}
	if srv.metrics.cacheEvict.Value() == 0 {
		t.Error("15 distinct answers never overflowed a 2 KiB budget")
	}
}

// TestGracefulShutdownDrainsInFlight proves the drain sequence: a
// request is mid-solve when Shutdown begins, Shutdown waits, and the
// client still receives its 200.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	// Note: no deferred Close — the test shuts the inner http.Server
	// down itself through ts.Config.

	type result struct {
		code int
		body []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		body, _ := json.Marshal(SolveRequest{Algorithm: "test-sleep", Links: paperLinks(t, 3, 13)})
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resCh <- result{code: resp.StatusCode, body: b}
	}()

	// Wait until the request is actually in flight, then shut down.
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := ts.Config.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < sleepAlgoDelay/2 {
		t.Errorf("shutdown returned after %v — did not wait for the in-flight solve", elapsed)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", res.code, res.body)
	}
}

func TestAlgorithmsHealthzAndMetricsEndpoints(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Generate one solved request so the counters move.
	resp := postSolve(t, ts, SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 5, 14)})
	readAll(t, resp.Body)

	r, err := ts.Client().Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var algos struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.Unmarshal(readAll(t, r.Body), &algos); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ldp", "rle", "exact", "dls", "greedy"} {
		found := false
		for _, a := range algos.Algorithms {
			found = found || a == want
		}
		if !found {
			t.Errorf("algorithms endpoint missing %q: %v", want, algos.Algorithms)
		}
	}

	r, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r.Body)
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", r.StatusCode)
	}

	body, _ := scrape(t, ts)
	sample := func(series string) int64 {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\d+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("scrape missing %s\n%s", series, body)
		}
		n, _ := strconv.ParseInt(m[1], 10, 64)
		return n
	}
	if got := sample("schedd_requests_total"); got < 1 {
		t.Errorf("schedd_requests_total = %d, want ≥ 1", got)
	}
	// The /metrics request itself is still in flight while serving.
	if got := sample("schedd_in_flight"); got != 1 {
		t.Errorf("schedd_in_flight = %d while serving /metrics, want 1", got)
	}
	if got := sample("schedd_request_duration_seconds_count"); got < 1 {
		t.Errorf("schedd_request_duration_seconds_count = %d, want ≥ 1", got)
	}
}

func TestDebugHandlerServesPprofPrivately(t *testing.T) {
	srv := New(Config{})
	api := httptest.NewServer(srv)
	defer api.Close()
	debug := httptest.NewServer(srv.DebugHandler())
	defer debug.Close()

	r, err := debug.Client().Get(debug.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r.Body)
	if r.StatusCode != http.StatusOK {
		t.Errorf("pprof on debug handler = %d", r.StatusCode)
	}

	r, err = api.Client().Get(api.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r.Body)
	if r.StatusCode == http.StatusOK {
		t.Error("pprof reachable on the public API handler; it must stay private")
	}

	// /metrics is the one metrics surface: no expvar map on either side.
	for _, ts := range []*httptest.Server{api, debug} {
		r, err := ts.Client().Get(ts.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, r.Body)
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s/debug/vars = %d, want 404", ts.URL, r.StatusCode)
		}
	}
}
