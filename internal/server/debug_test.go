package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/sched"
)

// traceIDOf POSTs one solve with an explicit X-Trace-Id and returns
// the ID the server answered with.
func traceIDOf(t testing.TB, ts *httptest.Server, req SolveRequest, inbound string) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if inbound != "" {
		hr.Header.Set("X-Trace-Id", inbound)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, b)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	return id
}

func TestTraceMiddlewareAdoptsInboundID(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	req := SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 8, 3)}

	const want = "aabbccdd11223344"
	if got := traceIDOf(t, ts, req, want); got != want {
		t.Fatalf("valid inbound X-Trace-Id %q not adopted: got %q", want, got)
	}
	// Garbage must be replaced, never echoed.
	for _, bad := range []string{"nope", "zzzz-not-hex-zzzz", strings.Repeat("a", 64)} {
		got := traceIDOf(t, ts, req, bad)
		if got == bad {
			t.Fatalf("invalid inbound X-Trace-Id %q was adopted", bad)
		}
		if !obs.ValidTraceID(got) {
			t.Fatalf("minted trace ID %q is not valid", got)
		}
	}
}

// spanNames flattens a snapshot's span names for containment checks.
func spanNames(snap obs.TraceSnapshot) map[string]int {
	names := make(map[string]int, len(snap.Spans))
	for _, sp := range snap.Spans {
		names[sp.Name]++
	}
	return names
}

func TestDebugRequestsListsSolveTrace(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	req := SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 30, 7)}
	id := traceIDOf(t, ts, req, "")

	resp, err := ts.Client().Get(ts.URL + "/debug/requests?n=5")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests: status %d: %s", resp.StatusCode, body)
	}
	var out debugRequestsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if out.Recorder.Seen == 0 || out.Recorder.Retained == 0 {
		t.Fatalf("recorder saw nothing: %+v", out.Recorder)
	}
	var snap *obs.TraceSnapshot
	for i := range out.Recent {
		if out.Recent[i].TraceID == id {
			snap = &out.Recent[i]
			break
		}
	}
	if snap == nil {
		t.Fatalf("trace %s not in recent traces", id)
	}
	if snap.Status != http.StatusOK {
		t.Fatalf("trace status = %d, want 200", snap.Status)
	}
	names := spanNames(*snap)
	for _, want := range []string{"cache_lookup", "pool_wait", "prepare", "field_build", "solve", "encode"} {
		if names[want] == 0 {
			t.Fatalf("trace missing span %q (have %v)", want, names)
		}
	}
	// The dense build fills no rows; the solve span reports how many
	// the solver's reads made resident.
	if names["dense_fill"] != 0 {
		t.Fatalf("trace records an eager dense_fill span (have %v)", names)
	}
	for _, sp := range snap.Spans {
		if sp.Name != "solve" {
			continue
		}
		if rows, ok := sp.Attrs["dense_rows"].(float64); !ok || rows < 1 || rows > 30 {
			t.Fatalf("solve span dense_rows = %v, want in [1, 30]", sp.Attrs["dense_rows"])
		}
	}
	// The solver's phase spans nest under "solve" — at least one phase
	// beyond the pipeline spans must be present.
	if len(snap.Spans) < 8 {
		t.Fatalf("expected solver phase spans, got only %d spans: %v", len(snap.Spans), names)
	}
}

func TestDebugRequestTraceEventExport(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	req := SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 30, 9)}
	id := traceIDOf(t, ts, req, "")

	resp, err := ts.Client().Get(ts.URL + "/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace export: status %d: %s", resp.StatusCode, body)
	}
	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatalf("export is not trace_event JSON: %v\n%s", err, body)
	}
	names := make(map[string]int)
	nested := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name]++
			nested++
		}
	}
	// Acceptance: http root → cache tier → field build → solver phases,
	// i.e. at least 4 nested complete events.
	if nested < 4 {
		t.Fatalf("want ≥ 4 complete events, got %d (%v)", nested, names)
	}
	for _, want := range []string{"POST /v1/solve", "field_build", "solve"} {
		if names[want] == 0 {
			t.Fatalf("export missing %q events (have %v)", want, names)
		}
	}

	// Unknown IDs are a clean 404.
	resp, err = ts.Client().Get(ts.URL + "/debug/requests/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", resp.StatusCode)
	}
}

func TestDebugStateReportsSessionsAndCaches(t *testing.T) {
	_, ts := newSessionServer(t, Config{})
	links := paperLinks(t, 12, 11)
	created := createSession(t, ts, SessionRequest{Algorithm: "greedy", Links: links})

	// One plain solve so the prepared cache holds an unpinned entry too.
	resp := postSolve(t, ts, SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 8, 12)})
	readAll(t, resp.Body)

	resp, err := ts.Client().Get(ts.URL + "/debug/state")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/state: status %d: %s", resp.StatusCode, body)
	}
	var st debugStateResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].ID != created.SessionID {
		t.Fatalf("session table %+v does not list session %s", st.Sessions, created.SessionID)
	}
	sess := st.Sessions[0]
	if sess.N != len(links) || sess.Seq != 0 || sess.Algorithm != "greedy" {
		t.Fatalf("session row %+v wrong", sess)
	}
	if !obs.ValidTraceID(sess.OriginTraceID) {
		t.Fatalf("session origin trace %q invalid", sess.OriginTraceID)
	}
	pinned, unpinned := 0, 0
	for _, e := range st.Prepared {
		if e.Building {
			t.Fatalf("entry %+v still building after responses returned", e)
		}
		// A dense field holds 64 bytes of inputs per link plus 8n per
		// sender row its greedy solve filled.
		if lo, hi := int64(64*e.N), int64(8*e.N*(e.N+8)); e.Bytes <= lo || e.Bytes > hi {
			t.Fatalf("entry %+v: bytes outside (%d, %d]", e, lo, hi)
		}
		if e.Pins > 0 {
			pinned++
		} else {
			unpinned++
		}
	}
	if pinned != 1 || unpinned != 1 {
		t.Fatalf("prepared cache %+v: want 1 pinned (session) + 1 unpinned (solve)", st.Prepared)
	}
	if st.Pool.Capacity < 1 || st.Pool.InUse != 0 {
		t.Fatalf("pool %+v wrong", st.Pool)
	}
	if st.MaxSessions != 256 {
		t.Fatalf("state %+v wrong", st)
	}
	if rc := st.ResultCache; rc.Entries != 1 || rc.Bytes <= 0 || rc.Budget != 4<<20 {
		t.Fatalf("result cache %+v: want 1 resident body under the 4 MiB default", rc)
	}
}

// TestSessionTraceCorrelation is the satellite regression: a resumed
// delta long-poll names the trace that registered the session, and an
// error delta frame names the trace of the stream that hit the error.
func TestSessionTraceCorrelation(t *testing.T) {
	_, ts := newSessionServer(t, Config{})
	links := paperLinks(t, 10, 21)

	const origin = "f00dfeedf00dfeed"
	body, err := json.Marshal(SessionRequest{Algorithm: "greedy", Links: links})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/session", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Trace-Id", origin)
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != origin {
		t.Fatalf("create did not adopt trace ID: got %q", got)
	}
	var created SessionResponse
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}

	// The long-poll resume path carries both its own trace and the origin.
	resp, err = ts.Client().Get(fmt.Sprintf("%s/v1/session/%s/deltas?seq=0", ts.URL, created.SessionID))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deltas: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Origin-Trace-Id"); got != origin {
		t.Fatalf("long-poll X-Origin-Trace-Id = %q, want %q", got, origin)
	}
	if own := resp.Header.Get("X-Trace-Id"); own == "" || own == origin {
		t.Fatalf("long-poll's own trace ID %q should be fresh", own)
	}

	// An error delta on the event stream names the stream's trace.
	st := openStream(t, ts, created.SessionID)
	if got := st.resp.Header.Get("X-Origin-Trace-Id"); got != origin {
		t.Fatalf("event stream X-Origin-Trace-Id = %q, want %q", got, origin)
	}
	streamTrace := st.resp.Header.Get("X-Trace-Id")
	if !obs.ValidTraceID(streamTrace) {
		t.Fatalf("stream trace ID %q invalid", streamTrace)
	}
	st.send(network.SessionEvent{Type: network.EventMove, Link: 999})
	d, rawLine := st.recv()
	if d.Error == "" {
		t.Fatalf("out-of-range move was accepted: %s", rawLine)
	}
	if d.TraceID != streamTrace {
		t.Fatalf("error delta trace_id = %q, want the stream's %q", d.TraceID, streamTrace)
	}

	// Applied deltas stay trace-free so replayed frames are byte-stable.
	st.send(network.SessionEvent{Type: network.EventRetune, Eps: 0.2})
	d, rawLine = st.recv()
	if d.Error != "" {
		t.Fatalf("retune rejected: %s", d.Error)
	}
	if d.TraceID != "" || strings.Contains(string(rawLine), "trace_id") {
		t.Fatalf("applied delta carries a trace ID: %s", rawLine)
	}
	st.closeWrite()
}

func TestTracingDisabled(t *testing.T) {
	srv := New(Config{TraceRing: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// Solves still work and still get a trace ID header for logs.
	id := traceIDOf(t, ts, SolveRequest{Algorithm: "greedy", Links: paperLinks(t, 8, 5)}, "")
	if !obs.ValidTraceID(id) {
		t.Fatalf("trace ID %q invalid", id)
	}
	for _, path := range []string{"/debug/requests", "/debug/requests/" + id} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp.Body)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with tracing disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
	// /debug/state keeps working — it reads live state, not the ring.
	resp, err := ts.Client().Get(ts.URL + "/debug/state")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/state: status %d", resp.StatusCode)
	}
}

func TestDebugEndpointsNotTraced(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	for i := 0; i < 3; i++ {
		for _, path := range []string{"/debug/requests", "/debug/state", "/healthz", "/metrics"} {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			readAll(t, resp.Body)
		}
	}
	if stats := srv.recorder.Stats(); stats.Seen != 0 {
		t.Fatalf("introspection requests were traced: %+v", stats)
	}
}

// TestMCSpanCountsExactRows: a traced solve with mc_slots records the
// Monte-Carlo kernel's exact-replay count on its mc_simulate span, equal
// to a direct mc.Simulate of the returned schedule; the response body
// carries no such field.
func TestMCSpanCountsExactRows(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	links := paperLinks(t, 300, 4)
	req := SolveRequest{Algorithm: "approxdiversity", Links: links, MCSlots: 50, MCSeed: 3}
	resp := postSolve(t, ts, req)
	body := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "exact_rows") {
		t.Fatalf("response body exposes exact_rows: %s", body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	pr := sched.MustNewProblem(network.MustNewLinkSet(links), radio.DefaultParams())
	sim, err := mc.Simulate(pr, sched.NewSchedule("", out.Active), mc.Config{Slots: 50, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ExactRows == 0 {
		t.Fatal("no row replayed exactly: the span check is vacuous")
	}
	id := resp.Header.Get("X-Trace-Id")
	dr, err := ts.Client().Get(ts.URL + "/debug/requests?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var list debugRequestsResponse
	if err := json.Unmarshal(readAll(t, dr.Body), &list); err != nil {
		t.Fatal(err)
	}
	for _, snap := range list.Recent {
		if snap.TraceID != id {
			continue
		}
		for _, sp := range snap.Spans {
			if sp.Name == "mc_simulate" {
				if got, ok := sp.Attrs["exact_rows"].(float64); !ok || int64(got) != sim.ExactRows {
					t.Fatalf("mc_simulate exact_rows = %v, want %d", sp.Attrs["exact_rows"], sim.ExactRows)
				}
				return
			}
		}
		t.Fatalf("trace %s has no mc_simulate span (have %v)", id, spanNames(snap))
	}
	t.Fatalf("trace %s not in recent traces", id)
}
