package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, ts *httptest.Server) (string, *http.Response) {
	t.Helper()
	r, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, r.Body)
	return string(body), r
}

func TestMetricsEndpointExposition(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One miss then one hit so cache counters and the solves family move.
	req := SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 6, 3)}
	readAll(t, postSolve(t, ts, req).Body)
	readAll(t, postSolve(t, ts, req).Body)

	body, resp := scrape(t, ts)
	if got := resp.Header.Get("Content-Type"); got != obs.PrometheusContentType {
		t.Errorf("content type = %q, want %q", got, obs.PrometheusContentType)
	}

	for _, want := range []string{
		"# TYPE schedd_requests_total counter",
		"# TYPE schedd_request_duration_seconds histogram",
		"# TYPE schedd_in_flight gauge",
		`schedd_solves_total{algorithm="greedy"} 1`,
		"schedd_cache_hits_total 1",
		"schedd_cache_misses_total 1",
		"schedd_cache_evictions_total 0",
		"schedd_cache_entries 1",
		"# TYPE schedd_cache_bytes gauge",
		"schedd_pool_capacity ",
		"schedd_pool_in_use ",
		"schedd_pool_queued ",
		"schedd_goroutines ",
		"schedd_heap_bytes ",
		"schedd_gc_pause_seconds_total ",
		`schedd_request_duration_seconds_bucket{le="+Inf"}`,
		"schedd_request_duration_seconds_sum ",
		"schedd_request_duration_seconds_count ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q\n%s", want, body)
		}
	}

	// Bucket counts must be cumulative: nondecreasing in le order with
	// the +Inf bucket equal to _count.
	re := regexp.MustCompile(`(?m)^schedd_request_duration_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	var prev int64 = -1
	var inf int64
	for _, m := range re.FindAllStringSubmatch(body, -1) {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatalf("bucket value %q: %v", m[2], err)
		}
		if n < prev {
			t.Errorf("bucket le=%s count %d < previous %d (not cumulative)", m[1], n, prev)
		}
		prev = n
		if m[1] == "+Inf" {
			inf = n
		}
	}
	cre := regexp.MustCompile(`(?m)^schedd_request_duration_seconds_count (\d+)$`)
	cm := cre.FindStringSubmatch(body)
	if cm == nil {
		t.Fatal("no _count sample")
	}
	if count, _ := strconv.ParseInt(cm[1], 10, 64); count != inf {
		t.Errorf("_count %d != +Inf bucket %d", count, inf)
	}
}

func TestSolveResponseIncludesStats(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links := paperLinks(t, 8, 5)

	resp := postSolve(t, ts, SolveRequest{Algorithm: "rle", Links: links})
	firstTrace := resp.Header.Get("X-Trace-Id")
	if len(firstTrace) != 16 {
		t.Errorf("X-Trace-Id = %q, want 16 hex chars", firstTrace)
	}
	first := readAll(t, resp.Body)
	var out SolveResponse
	if err := json.Unmarshal(first, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats == nil {
		t.Fatal("response has no stats")
	}
	if out.Stats.Algorithm != "rle" {
		t.Errorf("stats.algorithm = %q", out.Stats.Algorithm)
	}
	if len(out.Stats.Phases) == 0 {
		t.Error("stats has no phases")
	}
	if got := out.Stats.Counter(obs.KeyLinks); got != int64(len(links)) {
		t.Errorf("stats links counter = %d, want %d", got, len(links))
	}
	if got := out.Stats.Counter(obs.KeyScheduled); got != int64(len(out.Active)) {
		t.Errorf("stats scheduled counter = %d, want %d", got, len(out.Active))
	}

	// A cache hit must replay the identical body (stats included) under
	// a fresh trace ID: correlation is the header's job, not the body's.
	resp = postSolve(t, ts, SolveRequest{Algorithm: "rle", Links: links})
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("second request missed the cache")
	}
	if tid := resp.Header.Get("X-Trace-Id"); tid == firstTrace {
		t.Error("trace ID reused across requests")
	}
	if second := readAll(t, resp.Body); !bytes.Equal(first, second) {
		t.Errorf("cached body differs from original:\n%s\n%s", first, second)
	}
}

func TestAccessLogCarriesTraceID(t *testing.T) {
	var mu sync.Mutex
	var logBuf bytes.Buffer
	srv := New(Config{Logger: obs.NewLogger(&syncWriter{mu: &mu, w: &logBuf}, obs.LogConfig{JSON: true})})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postSolve(t, ts, SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 5, 7)})
	readAll(t, resp.Body)
	traceID := resp.Header.Get("X-Trace-Id")

	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	var access map[string]interface{}
	for _, line := range strings.Split(strings.TrimSpace(logged), "\n") {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "request" {
			access = rec
		}
	}
	if access == nil {
		t.Fatalf("no access log record in:\n%s", logged)
	}
	if access["trace_id"] != traceID {
		t.Errorf("access log trace_id = %v, want %q", access["trace_id"], traceID)
	}
	if access["status"] != float64(http.StatusOK) {
		t.Errorf("access log status = %v", access["status"])
	}
	if access["path"] != "/v1/solve" {
		t.Errorf("access log path = %v", access["path"])
	}
}

// syncWriter serializes test-log writes from concurrent handler
// goroutines.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestMetricsScrapeVsRecordRace drives solves and scrapes concurrently;
// under -race this pins down that exposition rendering (histogram
// buckets, gauge callbacks) never races with the request path.
func TestMetricsScrapeVsRecordRace(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp := postSolve(t, ts, SolveRequest{
					Algorithm: "greedy",
					Links:     paperLinks(t, 5, uint64(g*100+i)),
				})
				readAll(t, resp.Body)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body := readAll(t, r.Body)
				if r.StatusCode != http.StatusOK {
					t.Errorf("/metrics = %d: %s", r.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()

	body, _ := scrape(t, ts)
	want := fmt.Sprintf(`schedd_solves_total{algorithm="greedy"} %d`, 4*10)
	if !strings.Contains(body, want) {
		t.Errorf("scrape missing %q after concurrent load\n%s", want, body)
	}
}

// phaseSeconds matches the wall-time field of every stats phase.
var phaseSeconds = regexp.MustCompile(`"seconds":[-0-9.e+]+`)

// TestSolveStatsIndependentOfTracing: every solve records into its own
// trace, so response stats — phase names, order and counters — are
// the same whether the flight recorder is on or off, and whether or
// not the request's trace arena overflows. A traced 64-config batch
// at n=200 drops spans from its request trace; its bodies must still
// match the untraced server's byte for byte once the phase wall times
// are zeroed.
func TestSolveStatsIndependentOfTracing(t *testing.T) {
	links := paperLinks(t, 200, 3)
	configs := make([]BatchConfig, maxBatchConfigs)
	for i := range configs {
		configs[i] = BatchConfig{Algorithm: "rle", Eps: 0.001 * float64(i+1)}
	}
	configs[0] = BatchConfig{Algorithm: "greedy-sharded", Shards: 4}
	configs[1] = BatchConfig{Algorithm: "dls"}
	bodies := func(ring int) ([][]byte, *Server) {
		srv := New(Config{TraceRing: ring})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		var out [][]byte
		for _, q := range []SolveRequest{{Algorithm: "rle"}, {Algorithm: "greedy-sharded", Shards: 4}, {Algorithm: "dls"}, {Algorithm: "ldp"}} {
			q.Links = links
			resp := postSolve(t, ts, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", q.Algorithm, resp.StatusCode)
			}
			out = append(out, readAll(t, resp.Body))
		}
		resp := postBatch(t, ts, BatchRequest{Links: links, Configs: configs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d", resp.StatusCode)
		}
		out = append(out, readAll(t, resp.Body))
		for i, b := range out {
			out[i] = phaseSeconds.ReplaceAll(b, []byte(`"seconds":0`))
		}
		return out, srv
	}
	traced, srv := bodies(0)
	untraced, _ := bodies(-1)
	for i := range traced {
		if !bytes.Equal(traced[i], untraced[i]) {
			t.Errorf("body %d differs with tracing on:\n%s\n%s", i, traced[i], untraced[i])
		}
	}
	if !bytes.Contains(traced[len(traced)-1], []byte(`"rule1_eliminated"`)) {
		t.Errorf("batch results carry no solver counters: %.200s", traced[len(traced)-1])
	}
	var dropped int64
	for _, snap := range srv.recorder.Recent(16) {
		if snap.Name == "POST /v1/solve/batch" {
			dropped = snap.DroppedSpans
		}
	}
	if dropped == 0 {
		t.Error("the traced batch did not overflow its arena; the test no longer covers that case")
	}
}
