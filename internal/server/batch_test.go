package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postBatch(t testing.TB, ts *httptest.Server, req BatchRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBatch(t testing.TB, resp *http.Response) BatchResponse {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, readAll(t, resp.Body))
	}
	var out BatchResponse
	if err := json.Unmarshal(readAll(t, resp.Body), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchMatchesSingleSolves checks each batch slot carries the same
// answer the single endpoint gives for the equivalent request: same
// algorithm, activation set, throughput, and feasibility verdict.
// (Bodies are not compared bytewise — trace timings legitimately
// differ between runs.)
func TestBatchMatchesSingleSolves(t *testing.T) {
	links := paperLinks(t, 60, 11)
	configs := []BatchConfig{
		{Algorithm: "greedy"},
		{Algorithm: "rle"},
		{Algorithm: "ldp", Eps: 0.05},
	}

	batchSrv := New(Config{})
	bts := httptest.NewServer(batchSrv)
	defer bts.Close()
	out := decodeBatch(t, postBatch(t, bts, BatchRequest{Links: links, Configs: configs}))
	if len(out.Results) != len(configs) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(configs))
	}
	if out.N != len(links) || out.Field != "dense" {
		t.Errorf("header = (n=%d, field=%q), want (n=%d, field=dense)", out.N, out.Field, len(links))
	}

	singleSrv := New(Config{})
	sts := httptest.NewServer(singleSrv)
	defer sts.Close()
	for i, c := range configs {
		var got SolveResponse
		if err := json.Unmarshal(out.Results[i], &got); err != nil {
			t.Fatalf("config %d: result is not a SolveResponse: %v (%s)", i, err, out.Results[i])
		}
		resp := postSolve(t, sts, SolveRequest{Algorithm: c.Algorithm, Links: links, Eps: c.Eps})
		var want SolveResponse
		if err := json.Unmarshal(readAll(t, resp.Body), &want); err != nil {
			t.Fatal(err)
		}
		if got.Algorithm != want.Algorithm || got.Throughput != want.Throughput ||
			got.Feasible != want.Feasible || len(got.Active) != len(want.Active) {
			t.Errorf("config %d (%s): batch %v ≠ single %v", i, c.Algorithm, got, want)
			continue
		}
		for k := range got.Active {
			if got.Active[k] != want.Active[k] {
				t.Errorf("config %d (%s): active[%d] = %d, want %d", i, c.Algorithm, k, got.Active[k], want.Active[k])
			}
		}
	}
}

// TestBatchBuildsFieldOnce is the endpoint's contract: many configs on
// one dense link set pay exactly one interference-field construction,
// counted both in the response (field_builds) and the obs registry.
func TestBatchBuildsFieldOnce(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := BatchRequest{
		Links: paperLinks(t, 80, 12),
		Configs: []BatchConfig{
			{Algorithm: "greedy"},
			{Algorithm: "rle"},
			{Algorithm: "approxdiversity"},
			{Algorithm: "rle", Eps: 0.05}, // ε variant shares the dense field via Derive
		},
	}
	out := decodeBatch(t, postBatch(t, ts, req))
	if out.FieldBuilds != 1 {
		t.Errorf("first batch: field_builds = %d, want 1", out.FieldBuilds)
	}
	if n := srv.metrics.PreparedBuilds(); n != 1 {
		t.Errorf("first batch: PreparedBuilds() = %d, want 1", n)
	}
	for i, r := range out.Results {
		var e errorResponse
		if json.Unmarshal(r, &e) == nil && e.Error != "" {
			t.Errorf("config %d failed: %s", i, e.Error)
		}
	}

	// A second identical batch is all response-cache hits: no solves,
	// no builds, field_builds = 0.
	out2 := decodeBatch(t, postBatch(t, ts, req))
	if out2.FieldBuilds != 0 {
		t.Errorf("repeat batch: field_builds = %d, want 0", out2.FieldBuilds)
	}
	if n := srv.metrics.PreparedBuilds(); n != 1 {
		t.Errorf("repeat batch: PreparedBuilds() = %d, want 1 still", n)
	}
	for i := range out.Results {
		if !bytes.Equal(out.Results[i], out2.Results[i]) {
			t.Errorf("config %d: cached result differs from original", i)
		}
	}

	// The single endpoint reuses the same prepared field: a fresh
	// algorithm on the same links must not rebuild it.
	resp := postSolve(t, ts, SolveRequest{Algorithm: "ldp", Links: req.Links})
	readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single solve after batch: status %d", resp.StatusCode)
	}
	if n := srv.metrics.PreparedBuilds(); n != 1 {
		t.Errorf("single solve after batch rebuilt the field (builds = %d)", n)
	}

	// The counters surface on the Prometheus endpoint next to the
	// response-cache family.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, mresp.Body))
	for _, want := range []string{
		"schedd_prepared_builds_total 1",
		"schedd_prepared_cache_hits_total",
		"schedd_prepared_cache_misses_total",
		"schedd_prepared_cache_evictions_total",
		"schedd_prepared_cache_size 1",
		"schedd_batch_configs_bucket",
		"schedd_cache_hits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBatchValidation covers the request-shape rejections.
func TestBatchValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links := paperLinks(t, 10, 13)

	cases := []struct {
		name string
		req  BatchRequest
	}{
		{"no configs", BatchRequest{Links: links}},
		{"unknown algorithm", BatchRequest{Links: links, Configs: []BatchConfig{{Algorithm: "nope"}}}},
		{"bad eps", BatchRequest{Links: links, Configs: []BatchConfig{{Algorithm: "rle", Eps: 2}}}},
		{"negative timeout", BatchRequest{Links: links, TimeoutMS: -1, Configs: []BatchConfig{{Algorithm: "rle"}}}},
		{"too many configs", BatchRequest{Links: links, Configs: make([]BatchConfig, maxBatchConfigs+1)}},
	}
	for _, tc := range cases {
		resp := postBatch(t, ts, tc.req)
		body := readAll(t, resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
	}
}
