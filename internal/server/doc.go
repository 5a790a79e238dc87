// Package server implements schedd, the long-running HTTP scheduling
// service over the Fading-R-LS solvers: POST /v1/solve accepts a JSON
// link set plus model parameters, runs any registered algorithm
// through the sched registry under a per-request deadline, optionally
// Monte-Carlo-validates the schedule, and returns the activation set
// with per-link success probabilities. POST /v1/traffic drives the
// internal/traffic engine over the same prepared-field cache: queued
// arrivals, a per-slot queue-aware solve, and delay/drift diagnostics,
// with a request deadline truncating the run rather than failing it.
//
// The serving pipeline is:
//
//	decode (size-capped, strict JSON) → canonical hash → LRU cache
//	→ bounded worker pool → context-aware solve → verify/simulate
//	→ encode once, cache, reply
//
// Repeated queries on the same topology are O(1): the cache key is a
// SHA-256 over the exact solve inputs (link geometry, rates, powers,
// radio parameters, field backend, Monte-Carlo request), and the
// cached value is the encoded response body, so a hit is byte-
// identical to the miss that populated it (the X-Cache header is the
// only difference).
//
// Observability is one obs.Registry served as Prometheus text at
// /metrics on the API listener: request, response-code and error
// counters, a request-latency histogram, cache hits and misses, and an
// in-flight gauge. DebugHandler additionally mounts net/http/pprof for
// a private port. Graceful shutdown is inherited from
// http.Server.Shutdown — handlers run to completion, so in-flight
// solves drain under their own deadlines.
package server
