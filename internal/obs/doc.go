// Package obs is the repository's unified observability layer: a typed
// metrics registry with Prometheus text exposition, span traces
// threaded through contexts (request pipelines and solver phases
// alike), and log/slog helpers that correlate every log line with a
// per-request trace ID.
//
// The package is stdlib-only by design — it must be importable from
// the innermost solver loops (internal/sched) without dragging in any
// dependency, and the disabled path must cost nothing: every Span
// method is a no-op on the zero (inert) span and allocates zero bytes
// (guarded by TestSpanZeroAlloc and BenchmarkSpanInert).
//
// Solvers record phases as child spans of SpanFrom(ctx) and counters
// as accumulating span attributes (Span.Add). TraceSolve runs one solve
// in a private pooled trace and folds it into the SolveStats that
// schedd's /v1/solve "stats" field and fadingsched -trace render; it
// copies the spans into the caller's trace when that one records.
//
// Three context keys tie the layer together:
//
//   - ContextWithSpan/SpanFrom carry the current span; schedd's
//     middleware installs a request trace's root, handlers and solvers
//     hang child spans off it.
//   - WithTraceID/TraceIDFrom carry the request's trace ID, generated
//     once in schedd's middleware.
//   - NewHandler wraps any slog.Handler so records logged with that
//     context automatically gain a trace_id attribute — the join key
//     between access logs, request traces, and cache hit/miss lines.
package obs
