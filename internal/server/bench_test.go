package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/network"
)

// BenchmarkSolveColdVsWarm measures the serving hot path on an
// n=1000 instance: "cold" resets the result cache every iteration so
// each request pays the full problem build + solve, "warm" hits the
// LRU. The gap is the cache's whole value proposition — report both
// ns/op side by side.
//
//	go test -run '^$' -bench BenchmarkSolveColdVsWarm ./internal/server/
func BenchmarkSolveColdVsWarm(b *testing.B) {
	ls, err := network.Generate(network.PaperConfig(1000), 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Algorithm: "rle", Links: ls.Links()})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{})

	do := func(b *testing.B, wantCache string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Cache"); got != wantCache {
			b.Fatalf("X-Cache = %q, want %q", got, wantCache)
		}
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.ResetCache()
			srv.ResetPreparedCache()
			do(b, "miss")
		}
	})
	// prepared-field: response cache cold every iteration (a real solve
	// runs), but the prepared field stays resident — the tier this PR
	// adds. The gap to "cold" is the field build + solver allocation
	// cost the prepared cache removes from repeat-linkset traffic.
	b.Run("prepared-field", func(b *testing.B) {
		srv.ResetCache()
		srv.ResetPreparedCache()
		do(b, "miss") // prime the prepared cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.ResetCache()
			do(b, "miss")
		}
	})
	b.Run("warm", func(b *testing.B) {
		srv.ResetCache()
		do(b, "miss") // prime
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b, "hit")
		}
	})
}

// BenchmarkSolveBatch measures /v1/solve/batch end to end: four
// algorithm/ε configs over one n=600 link set, one field build per
// request (the response cache is reset each iteration so every config
// actually solves).
//
//	go test -run '^$' -bench BenchmarkSolveBatch ./internal/server/
func BenchmarkSolveBatch(b *testing.B) {
	ls, err := network.Generate(network.PaperConfig(600), 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(BatchRequest{
		Links: ls.Links(),
		Configs: []BatchConfig{
			{Algorithm: "greedy"},
			{Algorithm: "rle"},
			{Algorithm: "approxdiversity"},
			{Algorithm: "rle", Eps: 0.05},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv.ResetCache()
		req := httptest.NewRequest(http.MethodPost, "/v1/solve/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkDecodeRequest measures decodeRequest on the load benchmark's
// n=2000 dense solve body (paper density, α = 3): "fresh" is a
// topology the link memo does not hold, so encoding/json decodes the
// whole body; "repeat" is one it holds, so the structural scan, one
// SHA-256 of the links array and a decode of the remainder run instead.
//
//	go test -run '^$' -bench BenchmarkDecodeRequest ./internal/server/
func BenchmarkDecodeRequest(b *testing.B) {
	ls, err := network.Generate(network.PaperConfig(2000), 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Algorithm: "rle", Links: ls.Links(),
		Alpha: 3, GammaTh: 1, Eps: 0.02, Power: 1, Field: "dense"})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, srv *Server, want string) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var q SolveRequest
			rec := httptest.NewRecorder()
			if !srv.decodeRequest(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)), &q) {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			if got := q.wire.cand == nil; got != (want == "memo") {
				b.Fatalf("decode served by the memo = %v, want %s", got, want)
			}
			q.wire.release() // as the handler does when the request ends
		}
	}
	b.Run("fresh", func(b *testing.B) {
		srv := New(Config{})
		defer srv.Close()
		run(b, srv, "decoded")
	})
	b.Run("repeat", func(b *testing.B) {
		srv := New(Config{})
		defer srv.Close()
		var q SolveRequest
		if !srv.decodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)), &q) {
			b.Fatal("priming body rejected")
		}
		srv.memo.remember(q.wire.cand, q.Links, q.wire.digest(q.Links))
		b.ResetTimer()
		run(b, srv, "memo")
	})
}
