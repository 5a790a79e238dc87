package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/network"
	"repro/internal/server"
)

// newClient holds one connection to schedd, which every request of a
// run reuses.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// tally collects what one load phase observed.
type tally struct {
	failures
	lat       map[string][]float64 // ms per request kind
	ok        int
	attempted int
	counters  means // solver counters from response stats
}

func newTally() *tally {
	return &tally{lat: make(map[string][]float64), counters: make(means)}
}

// post sends one request and reads the whole answer.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// drive is one closed-loop client: it sends items in order, each only
// once the previous one is answered, until they run out or, when
// deadline is non-zero, the deadline passes. Latency runs from sending
// the request to reading the last byte of the answer. One request is in
// flight at a time: on a 2-core machine two requests in flight contend
// with each other and with this process for the cores and memory
// bandwidth, and runs of the same code spread two to three times as
// widely.
func drive(ctx context.Context, c *http.Client, base string, items []*item, n int, deadline time.Time) (*tally, time.Duration, error) {
	t := newTally()
	start := time.Now()
	var buf []byte
	for _, it := range items {
		if ctx.Err() != nil || (!deadline.IsZero() && !time.Now().Before(deadline)) {
			return t, time.Since(start), ctx.Err()
		}
		buf = it.appendBody(buf[:0])
		t.attempted++
		t0 := time.Now()
		status, body, err := post(ctx, c, base+it.path, buf)
		lat := time.Since(t0)
		if err == nil {
			err = validate(it, status, body, n, t)
		}
		if err != nil {
			t.fail("%s %s: %v", it.kind, it.path, err)
			continue
		}
		t.ok++
		t.lat[it.kind] = append(t.lat[it.kind], lat.Seconds()*1e3)
	}
	elapsed := time.Since(start)
	if !deadline.IsZero() {
		return t, elapsed, fmt.Errorf("the window used all %d pre-generated requests; raise the workload's rate cap", len(items))
	}
	return t, elapsed, ctx.Err()
}

// wireSolve is the part of a solve answer the load check reads. The
// solver counters are read from the stats JSON only.
type wireSolve struct {
	Error       string    `json:"error"`
	N           int       `json:"n"`
	Active      []int     `json:"active"`
	Feasible    bool      `json:"feasible"`
	SuccessProb []float64 `json:"success_prob"`
	Simulation  *struct {
		Slots int `json:"slots"`
	} `json:"simulation"`
	Stats *struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"stats"`
}

// solverCounters are the response stats counters reported per layer.
var solverCounters = []string{"admitted", "rejected", "tiles", "boundary_repairs"}

// validate checks one answer: status 200, and per kind the invariants
// every schedd answer must hold.
func validate(it *item, status int, body []byte, n int, t *tally) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, clip(body))
	}
	switch it.kind {
	case "solve", "solve_mc", "cache_hit":
		return checkSolve(body, it.eps[0], n, it.kind == "solve_mc", t)
	case "batch":
		var resp struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(it.eps) {
			return fmt.Errorf("%d results for %d configs", len(resp.Results), len(it.eps))
		}
		for i, res := range resp.Results {
			if err := checkSolve(res, it.eps[i], n, false, t); err != nil {
				return fmt.Errorf("config %d: %w", i, err)
			}
		}
		return nil
	case "traffic":
		var resp server.TrafficResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Truncated {
			return errors.New("traffic run truncated")
		}
		if resp.Arrived != resp.Delivered+resp.Backlog+resp.Dropped {
			return fmt.Errorf("packets not conserved: arrived %d ≠ delivered %d + backlog %d + dropped %d",
				resp.Arrived, resp.Delivered, resp.Backlog, resp.Dropped)
		}
		return nil
	case "session_create":
		var resp server.SessionResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkActive(resp.Active, resp.N)
	}
	return fmt.Errorf("unknown kind %q", it.kind)
}

// checkSolve checks one schedule: feasible, active set ascending,
// unique and in range, each success probability at least 1−ε.
func checkSolve(body []byte, eps float64, n int, wantSim bool, t *tally) error {
	var r wireSolve
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	switch {
	case r.Error != "":
		return errors.New(r.Error)
	case !r.Feasible:
		return errors.New("schedule not feasible")
	case r.N != n:
		return fmt.Errorf("n = %d, want %d", r.N, n)
	case len(r.SuccessProb) != len(r.Active):
		return fmt.Errorf("%d success probabilities for %d active links", len(r.SuccessProb), len(r.Active))
	case wantSim && r.Simulation == nil:
		return errors.New("no simulation result")
	}
	if err := checkActive(r.Active, n); err != nil {
		return err
	}
	for k, p := range r.SuccessProb {
		if p < 1-eps-1e-9 {
			return fmt.Errorf("link %d succeeds with %v < 1−ε = %v", r.Active[k], p, 1-eps)
		}
	}
	if r.Stats != nil {
		for _, k := range solverCounters {
			if v, ok := r.Stats.Counters[k]; ok {
				t.counters.add(k, float64(v))
			}
		}
	}
	return nil
}

func checkActive(active []int, n int) error {
	for k, v := range active {
		if v < 0 || v >= n {
			return fmt.Errorf("active link %d out of range [0,%d)", v, n)
		}
		if k > 0 && v <= active[k-1] {
			return fmt.Errorf("active set not ascending and unique at %d", v)
		}
	}
	return nil
}

// sendEach sends items one at a time, in order, and returns every
// answer that passed validate (nil for one that did not).
func sendEach(ctx context.Context, c *http.Client, base string, items []*item, n int) ([][]byte, *tally) {
	t := newTally()
	bodies := make([][]byte, len(items))
	for i, it := range items {
		t.attempted++
		status, body, err := post(ctx, c, base+it.path, it.appendBody(nil))
		if err == nil {
			err = validate(it, status, body, n, t)
		}
		if err != nil {
			t.fail("check %s %s: %v", it.kind, it.path, err)
			continue
		}
		t.ok++
		bodies[i] = body
	}
	return bodies, t
}

// createSession registers a session and returns its id and the raw
// registration answer.
func createSession(ctx context.Context, c *http.Client, base string, it *item, n int) (string, []byte, error) {
	status, body, err := post(ctx, c, base+it.path, it.appendBody(nil))
	if err == nil {
		err = validate(it, status, body, n, newTally())
	}
	if err != nil {
		return "", nil, fmt.Errorf("registering session: %w", err)
	}
	var resp server.SessionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", nil, err
	}
	return resp.SessionID, body, nil
}

// stream is the client end of one full-duplex session event stream:
// events go out on the request body while deltas come back on the
// response, one line each.
type stream struct {
	pw   *io.PipeWriter
	resp *http.Response
	sc   *bufio.Scanner
	seq  uint64
}

func openStream(ctx context.Context, c *http.Client, base, id string) (*stream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/session/"+id+"/events", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.Do(req)
	if err != nil {
		pw.Close()
		return nil, fmt.Errorf("opening event stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		pw.Close()
		return nil, fmt.Errorf("opening event stream: status %d: %s", resp.StatusCode, clip(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &stream{pw: pw, resp: resp, sc: sc}, nil
}

// send writes one event line and returns the delta line answering it.
// The delta must be applied (no error), advance seq by one, and list
// ascending, unique, in-range entered and left links.
func (s *stream) send(line []byte) ([]byte, error) {
	if _, err := s.pw.Write(line); err != nil {
		return nil, fmt.Errorf("writing event: %w", err)
	}
	if !s.sc.Scan() {
		err := s.sc.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("reading delta: %w", err)
	}
	raw := s.sc.Bytes()
	d, err := network.DecodeSessionDelta(raw)
	switch {
	case err != nil:
		return nil, err
	case d.Error != "":
		return nil, fmt.Errorf("event rejected: %s", d.Error)
	case d.Seq != s.seq+1:
		return nil, fmt.Errorf("delta seq %d after %d", d.Seq, s.seq)
	}
	s.seq = d.Seq
	if err := checkActive(d.Entered, d.N); err != nil {
		return nil, fmt.Errorf("entered: %w", err)
	}
	if err := checkActive(d.Left, d.N); err != nil {
		return nil, fmt.Errorf("left: %w", err)
	}
	return append([]byte(nil), raw...), nil
}

// close ends the stream cleanly: schedd sees EOF and finishes the
// response.
func (s *stream) close() {
	s.pw.Close()
	io.Copy(io.Discard, s.resp.Body)
	s.resp.Body.Close()
}
