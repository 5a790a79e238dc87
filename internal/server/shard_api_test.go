package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// TestSolveShardsKnob covers the shards request knob end to end:
// shards=1 forces the unsharded-identical path (bit-identical to plain
// greedy), a different shard count is a distinct cache entry, and the
// response carries the tile counters in its solver stats.
func TestSolveShardsKnob(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links := paperLinks(t, 60, 3)

	greedy := postSolve(t, ts, SolveRequest{Algorithm: "greedy", Links: links})
	var gOut SolveResponse
	if body := readAll(t, greedy.Body); greedy.StatusCode != http.StatusOK {
		t.Fatalf("greedy status %d: %s", greedy.StatusCode, body)
	} else if err := json.Unmarshal(body, &gOut); err != nil {
		t.Fatal(err)
	}

	one := postSolve(t, ts, SolveRequest{Algorithm: "greedy-sharded", Links: links, Shards: 1})
	var oneOut SolveResponse
	if body := readAll(t, one.Body); one.StatusCode != http.StatusOK {
		t.Fatalf("shards=1 status %d: %s", one.StatusCode, body)
	} else if err := json.Unmarshal(body, &oneOut); err != nil {
		t.Fatal(err)
	}
	if len(oneOut.Active) != len(gOut.Active) {
		t.Fatalf("shards=1 active %v != greedy %v", oneOut.Active, gOut.Active)
	}
	for i := range oneOut.Active {
		if oneOut.Active[i] != gOut.Active[i] {
			t.Fatalf("shards=1 active %v != greedy %v", oneOut.Active, gOut.Active)
		}
	}

	four := postSolve(t, ts, SolveRequest{Algorithm: "greedy-sharded", Links: links, Shards: 4})
	var fourOut SolveResponse
	if body := readAll(t, four.Body); four.StatusCode != http.StatusOK {
		t.Fatalf("shards=4 status %d: %s", four.StatusCode, body)
	} else if err := json.Unmarshal(body, &fourOut); err != nil {
		t.Fatal(err)
	}
	// A different shard count must not collide in the response cache.
	if got := four.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("shards=4 after shards=1: X-Cache %q, want miss", got)
	}
	if !fourOut.Feasible {
		t.Error("shards=4 schedule reported infeasible")
	}
	if fourOut.Stats == nil {
		t.Fatal("shards=4 response missing solver stats")
	}
	if tiles := fourOut.Stats.Counter(obs.KeyTiles); tiles < 2 {
		t.Errorf("stats report %d tiles, want ≥ 2", tiles)
	}
	if solved := fourOut.Stats.Counter(obs.KeyTilesSolved); solved != fourOut.Stats.Counter(obs.KeyTiles) {
		t.Errorf("tiles_solved %d != tiles %d", solved, fourOut.Stats.Counter(obs.KeyTiles))
	}

	// Same request again is a cache hit — the knob is part of the key.
	again := postSolve(t, ts, SolveRequest{Algorithm: "greedy-sharded", Links: links, Shards: 4})
	readAll(t, again.Body)
	if got := again.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat shards=4: X-Cache %q, want hit", got)
	}
}

// TestSolveShardsValidation pins the 400 taxonomy of the knob.
func TestSolveShardsValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	links := paperLinks(t, 10, 1)

	cases := []struct {
		name string
		req  SolveRequest
		want string
	}{
		{"negative", SolveRequest{Algorithm: "greedy-sharded", Links: links, Shards: -1}, "shards"},
		{"too-large", SolveRequest{Algorithm: "greedy-sharded", Links: links, Shards: sched.MaxShards + 1}, "shards"},
		{"unshardable", SolveRequest{Algorithm: "greedy", Links: links, Shards: 4}, "does not take shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSolve(t, ts, tc.req)
			body := readAll(t, resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("error %s does not mention %q", body, tc.want)
			}
		})
	}
}

// TestBatchShards runs sharded and unsharded configs over one shared
// field build and checks the per-config shards knob took effect.
func TestBatchShards(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := BatchRequest{
		Links: paperLinks(t, 60, 5),
		Configs: []BatchConfig{
			{Algorithm: "greedy"},
			{Algorithm: "greedy-sharded", Shards: 1},
			{Algorithm: "greedy-sharded", Shards: 9},
		},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/solve/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	var subs [3]SolveResponse
	for i, r := range out.Results {
		if err := json.Unmarshal(r, &subs[i]); err != nil {
			t.Fatalf("result %d: %v (%s)", i, err, r)
		}
		if len(subs[i].Active) == 0 {
			t.Fatalf("result %d scheduled nothing: %s", i, r)
		}
	}
	if len(subs[1].Active) != len(subs[0].Active) {
		t.Errorf("batch shards=1 active %v != greedy %v", subs[1].Active, subs[0].Active)
	}
	if !subs[2].Feasible {
		t.Error("batch shards=9 schedule reported infeasible")
	}
	if out.FieldBuilds > 1 {
		t.Errorf("batch paid %d field builds, want ≤ 1", out.FieldBuilds)
	}
}

// TestDebugStateShardSolves exercises the live sharded-solve registry
// directly: with a registered in-flight solve /debug/state folds its
// fan-out counters from the solve's trace — including the counters of
// tile workers whose spans are still open — and after untracking the
// section disappears.
func TestDebugStateShardSolves(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tr := obs.NewTraceCap("", "solve", 16)
	part := tr.Root().Child("tile_partition")
	part.Add(obs.KeyTiles, 16)
	part.End()
	for _, w := range []struct{ solved, admitted int64 }{{4, 70}, {3, 53}} { // two workers, mid-solve
		sp := tr.Root().Child("tile_solve")
		sp.Add(obs.KeyTilesSolved, w.solved)
		sp.Add(obs.KeyTileAdmitted, w.admitted)
	}
	tr.Root().Child("tile_merge").Add(obs.KeyBoundaryRepairs, 4)
	ctx := obs.WithTraceID(t.Context(), "0123456789abcdef0123456789abcdef")
	live := srv.trackLiveSolve(ctx, sched.Sharded{Shards: 16}, 5000, tr)
	if live == nil {
		t.Fatal("trackLiveSolve ignored a sharded algorithm")
	}

	state := func() debugStateResponse {
		resp, err := ts.Client().Get(ts.URL + "/debug/state")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/state: status %d: %s", resp.StatusCode, body)
		}
		var out debugStateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	out := state()
	if len(out.ShardSolves) != 1 {
		t.Fatalf("%d sharded solves reported, want 1", len(out.ShardSolves))
	}
	got := out.ShardSolves[0]
	if got.Algorithm != "greedy-sharded" || got.N != 5000 || got.Shards != 16 {
		t.Errorf("identity fields wrong: %+v", got)
	}
	if got.Tiles != 16 || got.TilesSolved != 7 || got.TileAdmitted != 123 || got.BoundaryRepairs != 4 {
		t.Errorf("fan-out counters wrong: %+v", got)
	}
	if got.TraceID != "0123456789abcdef0123456789abcdef" {
		t.Errorf("trace id %q not propagated", got.TraceID)
	}

	// Non-sharded algorithms never enter the registry.
	if srv.trackLiveSolve(ctx, sched.Greedy{}, 10, tr) != nil {
		t.Error("trackLiveSolve registered an unsharded algorithm")
	}

	srv.untrackLiveSolve(live)
	if out := state(); len(out.ShardSolves) != 0 {
		t.Errorf("%d sharded solves after untrack, want 0", len(out.ShardSolves))
	}

	// End-to-end: a completed sharded request leaves the registry empty.
	resp := postSolve(t, ts, SolveRequest{Algorithm: "greedy-sharded", Links: paperLinks(t, 40, 9), Shards: 4})
	readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded solve status %d", resp.StatusCode)
	}
	if out := state(); len(out.ShardSolves) != 0 {
		t.Errorf("registry leaked %d entries after a completed solve", len(out.ShardSolves))
	}
}
