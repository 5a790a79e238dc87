package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// postTraffic marshals req and POSTs it to ts.
func postTraffic(t testing.TB, ts *httptest.Server, req TrafficRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/traffic", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeTraffic(t *testing.T, resp *http.Response) TrafficResponse {
	t.Helper()
	var tr TrafficResponse
	if err := json.Unmarshal(readAll(t, resp.Body), &tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrafficHappyPathAllPolicies(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links := paperLinks(t, 80, 41)

	for _, pol := range traffic.Policies() {
		resp := postTraffic(t, ts, TrafficRequest{
			Links: links, Slots: 150, Policy: pol, Rate: 0.05, Seed: 7,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("policy %s: status %d: %s", pol, resp.StatusCode, readAll(t, resp.Body))
		}
		tr := decodeTraffic(t, resp)
		if tr.Policy != pol || tr.Slots != 150 || tr.Truncated {
			t.Errorf("policy %s: got %+v", pol, tr)
		}
		if tr.Arrived == 0 || tr.Delivered == 0 {
			t.Errorf("policy %s: idle run: %+v", pol, tr)
		}
		if tr.Delivered+tr.Dropped+tr.Backlog != tr.Arrived {
			t.Errorf("policy %s: conservation violated: %+v", pol, tr)
		}
		if len(tr.Trajectory) == 0 {
			t.Errorf("policy %s: empty trajectory", pol)
		}
		if tr.Delivered > 0 && (tr.DelayP50 <= 0 || tr.DelayP99 < tr.DelayP50) {
			t.Errorf("policy %s: bad delay quantiles p50=%v p99=%v", pol, tr.DelayP50, tr.DelayP99)
		}
		if tr.PacketsPerSec <= 0 {
			t.Errorf("policy %s: packets_per_sec = %v", pol, tr.PacketsPerSec)
		}
	}
}

func TestTrafficPoissonArrivals(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postTraffic(t, ts, TrafficRequest{
		Links: paperLinks(t, 60, 42), Slots: 100,
		Arrivals: "poisson", Rate: 0.1, QueueCap: 8, Seed: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
	}
	tr := decodeTraffic(t, resp)
	if tr.Arrivals != "poisson" || tr.Arrived == 0 {
		t.Errorf("poisson run: %+v", tr)
	}
}

func TestTrafficRejectsBadRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links := paperLinks(t, 20, 43)

	cases := []struct {
		name string
		req  TrafficRequest
		want string
	}{
		{"no links", TrafficRequest{Slots: 10, Rate: 0.1}, "missing links"},
		{"no slots", TrafficRequest{Links: links, Rate: 0.1}, "slots"},
		{"slots over cap", TrafficRequest{Links: links, Slots: maxTrafficSlots + 1, Rate: 0.1}, "slots"},
		{"bad policy", TrafficRequest{Links: links, Slots: 10, Rate: 0.1, Policy: "lifo"}, "Policy"},
		{"bad arrivals", TrafficRequest{Links: links, Slots: 10, Rate: 0.1, Arrivals: "burst"}, "unknown arrivals"},
		{"bad rate", TrafficRequest{Links: links, Slots: 10, Rate: 1.5}, "Arrivals.P"},
		{"negative cap", TrafficRequest{Links: links, Slots: 10, Rate: 0.1, QueueCap: -1}, "QueueCap"},
		{"negative timeout", TrafficRequest{Links: links, Slots: 10, Rate: 0.1, TimeoutMS: -5}, "timeout_ms"},
	}
	for _, tc := range cases {
		resp := postTraffic(t, ts, tc.req)
		body := string(readAll(t, resp.Body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, body, tc.want)
		}
	}
}

func TestTrafficCacheHitSkipsSimulation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	req := TrafficRequest{Links: paperLinks(t, 50, 44), Slots: 80, Rate: 0.05, Seed: 11}

	first := postTraffic(t, ts, req)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d", first.StatusCode)
	}
	if got := first.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q", got)
	}
	body1 := decodeTraffic(t, first)

	second := postTraffic(t, ts, req)
	if got := second.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q", got)
	}
	body2 := decodeTraffic(t, second)
	// The cached body carries the model quantities but not the
	// wall-clock throughput figure.
	if body2.PacketsPerSec != 0 {
		t.Errorf("cached response has packets_per_sec = %v", body2.PacketsPerSec)
	}
	body1.PacketsPerSec = 0
	b1, _ := json.Marshal(body1)
	b2, _ := json.Marshal(body2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache hit differs:\n%s\n%s", b1, b2)
	}

	// A different seed must miss.
	req.Seed = 12
	third := postTraffic(t, ts, req)
	if got := third.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different seed X-Cache = %q", got)
	}
	readAll(t, third.Body)
}

func TestTrafficDeadlineTruncatesNot504(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A big instance with a long horizon and a 1ms budget cannot
	// finish; the endpoint must return the partial run, not an error.
	resp := postTraffic(t, ts, TrafficRequest{
		Links: paperLinks(t, 400, 45), Slots: 200_000, Rate: 0.2, TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp.Body))
	}
	tr := decodeTraffic(t, resp)
	if !tr.Truncated {
		t.Fatalf("200k-slot run finished in 1ms? %+v", tr)
	}
	if tr.Slots >= 200_000 {
		t.Errorf("truncated run reports full horizon: %d", tr.Slots)
	}

	// Truncated results must not poison the cache.
	if n, _ := srv.cache.residency(); n != 0 {
		t.Errorf("truncated response cached (%d entries)", n)
	}
}

func TestTrafficSharesPreparedFieldWithSolve(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links := paperLinks(t, 60, 46)

	resp := postSolve(t, ts, SolveRequest{Algorithm: "rle", Links: links})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	readAll(t, resp.Body)
	builds := srv.metrics.PreparedBuilds()

	resp = postTraffic(t, ts, TrafficRequest{Links: links, Slots: 50, Rate: 0.05})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic status %d", resp.StatusCode)
	}
	readAll(t, resp.Body)
	if got := srv.metrics.PreparedBuilds(); got != builds {
		t.Errorf("traffic run rebuilt the field: %d -> %d builds", builds, got)
	}
}

func TestTrafficMetricsCounted(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postTraffic(t, ts, TrafficRequest{
		Links: paperLinks(t, 40, 47), Slots: 60, Rate: 0.05, Policy: "maxqueue",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	readAll(t, resp.Body)

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, mresp.Body))
	if !strings.Contains(metrics, `schedd_traffic_runs_total{policy="maxqueue"} 1`) {
		t.Errorf("traffic run counter missing:\n%s", metrics)
	}
}
