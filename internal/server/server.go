package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Config sizes the service. The zero value of every field selects a
// sensible default, so server.New(server.Config{}) is a working daemon.
type Config struct {
	// Workers bounds concurrently executing solves (0 = GOMAXPROCS).
	Workers int
	// CacheBytes bounds the response LRU by the total size of the
	// bodies it holds (0 = 4 MiB, negative disables caching). A body
	// larger than the whole budget is served but not cached.
	CacheBytes int64
	// PreparedCacheSize is the LRU capacity in prepared interference
	// fields (0 = 16, negative disables). This tier is separate from
	// the response cache: one resident field serves every algorithm and
	// ε on its link set. A dense field grows by 8n bytes per sender row
	// its solves read, up to n² — ~32 MiB at n=2000 — so the default
	// stays small.
	PreparedCacheSize int
	// MaxBodyBytes caps the request body (0 = 8 MiB). Larger bodies
	// get 413.
	MaxBodyBytes int64
	// MaxLinks caps the instance size per request (0 = 20000).
	MaxLinks int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (0 = 30s); MaxTimeout clamps what a request may ask for (0 = 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSessions bounds concurrently open streaming sessions (0 = 256,
	// negative disables sessions: every create gets 429). Each session
	// pins one prepared field for its lifetime, so this also bounds how
	// far session load can stretch the prepared cache past its LRU cap.
	MaxSessions int
	// SessionTTL evicts sessions with no applied event and no live
	// stream for this long (0 = 5m).
	SessionTTL time.Duration
	// SessionReplay is the per-session delta replay window in frames
	// (0 = 4096). A client resuming from a seq older than the window
	// gets 410 and must re-register.
	SessionReplay int
	// TraceRing is the flight-recorder capacity in retained request
	// traces (0 = 128, negative disables span tracing entirely — no
	// trace is allocated per request). Retained traces are served by
	// GET /debug/requests.
	TraceRing int
	// TraceSampleEvery keeps every Nth non-outlier trace (0 = 1, keep
	// all; negative keeps outliers only). Outliers — error statuses,
	// latency above the recorder's rolling quantile, truncated runs —
	// are always retained regardless of sampling.
	TraceSampleEvery int
	// Logger receives structured access and solve logs; every record
	// carries the request's trace_id. Nil discards everything, which
	// keeps library users and tests silent by default.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 4 << 20
	}
	if c.PreparedCacheSize == 0 {
		c.PreparedCacheSize = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxLinks <= 0 {
		c.MaxLinks = 20000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	} else if c.MaxSessions < 0 {
		c.MaxSessions = 0
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.SessionReplay <= 0 {
		c.SessionReplay = 4096
	}
	return c
}

// Server is the schedd request pipeline: decode → cache → pool →
// solve → encode. It is an http.Handler; lifecycle (listeners,
// signals, graceful shutdown) belongs to the caller (cmd/schedd), so
// tests can drive it with httptest directly.
type Server struct {
	cfg      Config
	pool     *pool
	cache    *resultCache
	preps    *prepCache
	memo     *linkMemo
	metrics  *Metrics
	log      *slog.Logger
	mux      *http.ServeMux
	recorder *obs.Recorder // nil when Config.TraceRing < 0

	// Live sharded-solve registry: every in-flight solve running the
	// tile-sharded algorithm, so GET /debug/state can report shard
	// fan-out (tiles solved so far, boundary repairs) mid-solve. The
	// span counters it folds are bumped live by the tile workers.
	liveMu     sync.Mutex
	liveSolves map[*liveSolve]struct{}

	// Streaming-session registry (session.go). sessCtx is canceled by
	// Close to unblock live event streams and long-polls before the
	// HTTP server's own graceful Shutdown waits on them.
	sessMu       sync.Mutex
	sessions     map[string]*session
	sessReserved int
	sessClosed   bool
	sessCtx      context.Context
	sessCancel   context.CancelFunc
	closeOnce    sync.Once
	janitorDone  chan struct{}
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    newPool(cfg.Workers),
		metrics: NewMetrics(),
		log:     cfg.Logger,
	}
	s.cache = newResultCache(cfg.CacheBytes, s.metrics)
	s.preps = newPrepCache(cfg.PreparedCacheSize, s.metrics)
	s.memo = newLinkMemo(cfg.PreparedCacheSize)
	if cfg.TraceRing >= 0 {
		s.recorder = obs.NewRecorder(obs.RecorderConfig{
			Capacity:    cfg.TraceRing,
			SampleEvery: cfg.TraceSampleEvery,
		})
	}
	if s.log == nil {
		s.log = obs.Discard()
	}
	s.liveSolves = make(map[*liveSolve]struct{})
	s.sessions = make(map[string]*session)
	s.sessCtx, s.sessCancel = context.WithCancel(context.Background())
	s.janitorDone = make(chan struct{})
	go s.sessionJanitor()
	reg := s.metrics.Registry()
	reg.GaugeFunc("schedd_pool_capacity", "Worker-pool slot count.",
		func() float64 { return float64(s.pool.capacity()) })
	reg.GaugeFunc("schedd_pool_in_use", "Worker-pool slots currently executing solves.",
		func() float64 { return float64(s.pool.inUse()) })
	reg.GaugeFunc("schedd_pool_queued", "Requests blocked waiting for a worker-pool slot.",
		func() float64 { return float64(s.pool.queued()) })
	reg.GaugeFunc("schedd_cache_bytes", "Response bytes resident in the result cache.",
		func() float64 { _, b := s.cache.residency(); return float64(b) })
	reg.GaugeFunc("schedd_cache_entries", "Responses resident in the result cache.",
		func() float64 { n, _ := s.cache.residency(); return float64(n) })
	reg.GaugeFunc("schedd_links_memo_entries", "Decoded link lists resident in the link memo.",
		func() float64 { n, _ := s.memo.residency(); return float64(n) })
	reg.GaugeFunc("schedd_links_memo_bytes", "Bytes of decoded link lists resident in the link memo.",
		func() float64 { _, b := s.memo.residency(); return float64(b) })
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleSolveBatch)
	s.mux.HandleFunc("POST /v1/traffic", s.handleTraffic)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/session/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/session/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("GET /v1/session/{id}/deltas", s.handleSessionDeltas)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("GET /metrics", reg.PrometheusHandler())
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequestTrace)
	s.mux.HandleFunc("GET /debug/state", s.handleDebugState)
	return s
}

// Close drains the streaming-session layer: no new sessions are
// admitted, every open session is closed (reason "drain"), live event
// streams and long-polls unblock, and the janitor stops. It is
// idempotent and must run before http.Server.Shutdown so graceful
// drain is not held open by long-lived session requests. Stateless
// endpoints keep working after Close.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.sessCancel()
		s.sessMu.Lock()
		s.sessClosed = true
		open := make([]*session, 0, len(s.sessions))
		for _, sess := range s.sessions {
			open = append(open, sess)
		}
		s.sessMu.Unlock()
		for _, sess := range open {
			s.closeSession(sess, "drain")
		}
		<-s.janitorDone
	})
}

// sessionJanitor periodically evicts idle sessions until Close.
func (s *Server) sessionJanitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(janitorInterval(s.cfg.SessionTTL))
	defer t.Stop()
	for {
		select {
		case <-s.sessCtx.Done():
			return
		case now := <-t.C:
			s.sweepSessions(now)
		}
	}
}

// ResetCache empties the result cache. Benchmarks use it to measure
// the cold path; operators can curl it away via a restart instead, so
// it is intentionally not routed.
func (s *Server) ResetCache() { s.cache.reset() }

// ResetPreparedCache empties the prepared-field cache (benchmarks
// measure the cold-build path with it).
func (s *Server) ResetPreparedCache() { s.preps.reset() }

// ServeHTTP implements http.Handler with the observability middleware
// wrapped around the route table: every request gets a trace ID (a
// valid inbound X-Trace-Id is adopted so retries and resumed streams
// correlate across requests; otherwise a fresh one is minted),
// propagated via context into every log record and
// echoed in the X-Trace-Id response header, plus a latency-histogram
// observation and an access-log line. When the flight recorder is
// enabled the request also gets a span trace rooted at "METHOD /path";
// handlers hang child spans off it via obs.SpanFrom(ctx), and on
// completion the trace is offered to the recorder, which keeps it if
// it is sampled or an outlier (error status, slow, truncated).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	traceID := r.Header.Get("X-Trace-Id")
	if !obs.ValidTraceID(traceID) {
		traceID = obs.NewTraceID()
	}
	ctx := obs.WithTraceID(r.Context(), traceID)
	var trace *obs.Trace
	if s.recorder != nil && s.traced(r.URL.Path) {
		trace = obs.NewTrace(traceID, r.Method+" "+r.URL.Path)
		ctx = obs.ContextWithSpan(ctx, trace.Root())
	}
	r = r.WithContext(ctx)
	w.Header().Set("X-Trace-Id", traceID)

	done := s.metrics.RequestStarted()
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	done(rec.code, elapsed)
	if trace != nil {
		trace.Finish(rec.code)
		s.recorder.Record(trace) // recorder owns the trace from here
	}
	s.log.LogAttrs(ctx, slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.code),
		obs.DurationSeconds("duration", elapsed),
	)
}

// traced filters span tracing to request-serving routes: scrape and
// introspection endpoints would otherwise flood the flight recorder
// with traces of reading the flight recorder.
func (s *Server) traced(path string) bool {
	return path != "/metrics" && path != "/healthz" && !strings.HasPrefix(path, "/debug/")
}

// DebugHandler returns the private-side handler: pprof plus the
// /debug introspection routes. cmd/schedd binds it to a loopback-only
// port — profiling endpoints can stall the world and must not face
// traffic.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequestTrace)
	mux.HandleFunc("GET /debug/state", s.handleDebugState)
	return mux
}

// statusRecorder captures the response code for the metrics middleware.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach through to the real
// writer for Flush and EnableFullDuplex — without it the streaming
// session endpoints could never push their headers or delta frames.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"algorithms": sched.Names()})
}

// handleSolve is the serving hot path.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	defer req.wire.release()
	if err := req.validate(s.cfg.MaxLinks); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	root := obs.SpanFrom(r.Context())
	if root.Enabled() {
		root.SetStr("algorithm", req.Algorithm)
		root.SetInt("links", int64(len(req.Links)))
	}
	key := req.hash()
	lookupSp := root.Child("cache_lookup")
	cached, ok := s.cache.get(key)
	if lookupSp.Enabled() {
		lookupSp.SetStr("result", cacheAttr(ok))
	}
	lookupSp.End()
	if ok {
		s.metrics.CacheHit()
		s.log.LogAttrs(r.Context(), slog.LevelDebug, "cache hit",
			slog.String("algorithm", req.Algorithm), slog.Int("links", len(req.Links)))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.Write(cached)
		return
	}
	s.metrics.CacheMiss()

	ctx, cancel := s.deadline(r.Context(), req.TimeoutMS)
	defer cancel()

	// Queueing counts against the request's own deadline: a saturated
	// pool turns into 504s instead of an unbounded queue.
	poolSp := root.Child("pool_wait")
	err := s.pool.acquire(ctx)
	poolSp.End()
	if err != nil {
		writeSolveFailure(w, err)
		return
	}
	defer s.pool.release()

	encoded, err := s.solveToBody(ctx, &req, nil)
	if err != nil {
		writeRequestFailure(w, err)
		return
	}
	s.cache.put(key, encoded)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.Write(encoded)
}

// deadline bounds a request's work under ctx: timeoutMS milliseconds,
// or the server default when it is 0, and never more than MaxTimeout.
func (s *Server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(ctx, min(timeout, s.cfg.MaxTimeout))
}

// prepared resolves the request's scheduling instance through the
// prepared-field cache: the expensive interference field is fetched (or
// built, single-flight) under the field key, then Derive layers the
// request's full parameter set — typically just a different ε — over
// the shared field without copying it. builds, when non-nil, counts
// field constructions attributed to this caller (the batch endpoint
// reports it). The span on ctx covers the whole resolution; a miss
// additionally nests the builder's field_build span, so the trace
// distinguishes a cache wait from a paid construction.
func (s *Server) prepared(ctx context.Context, q *SolveRequest, builds *atomic.Int64) (*sched.Prepared, error) {
	sp := obs.SpanFrom(ctx)
	hit := true
	prep, err := s.preps.get(q.fieldKey(), false, func() (*sched.Prepared, error) {
		hit = false
		if builds != nil {
			builds.Add(1)
		}
		return q.prepare(ctx)
	})
	if sp.Enabled() {
		sp.SetStr("prepared_cache", cacheAttr(hit))
	}
	if err != nil {
		return nil, err
	}
	if hit {
		s.memo.remember(q.wire.cand, q.Links, q.wire.digest(q.Links))
	}
	dp, err := prep.Derive(q.params())
	if err != nil {
		return nil, &badRequestError{msg: err.Error()}
	}
	return dp, nil
}

// setDenseRows records on sp how many sender rows pr's dense field
// holds resident after a solve or a traffic run: the part of the n×n
// matrix the work on it has filled so far.
func setDenseRows(sp obs.Span, pr *sched.Problem) {
	if d, ok := pr.Field().(*sched.DenseField); ok && sp.Enabled() {
		sp.SetInt("dense_rows", int64(d.ResidentRows()))
	}
}

func cacheAttr(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// solveToBody is the post-admission solve pipeline shared by the
// single and batch endpoints: prepared-field resolution, the traced
// solve, feasibility verification, optional Monte-Carlo validation,
// and encoding. The caller holds a worker-pool slot. The returned body
// is newline-terminated and ready for the response cache.
func (s *Server) solveToBody(ctx context.Context, q *SolveRequest, builds *atomic.Int64) ([]byte, error) {
	a, err := q.algorithm()
	if err != nil {
		return nil, &badRequestError{msg: err.Error()}
	}
	root := obs.SpanFrom(ctx)
	prepSp := root.Child("prepare")
	prep, err := s.prepared(obs.ContextWithSpan(ctx, prepSp), q, builds)
	prepSp.End()
	if err != nil {
		return nil, err
	}
	pr := prep.Problem()
	// The solve records into its own pooled trace, folded into the
	// response's stats field, so the stats never depend on the flight
	// recorder (off, sampled out, or with a full arena). Stats go in the
	// cached body — a hit replays the first solve's timings, which is
	// the honest answer for a response that did no solving — while the
	// per-request trace ID stays in the X-Trace-Id header only, keeping
	// cached bodies byte-identical across requests. When the request is
	// traced, the solve's spans are copied under "solve", so the
	// flight-recorder trace shows the phase breakdown the stats report.
	solveSp := root.Child("solve")
	if q.Shards > 0 {
		solveSp.SetInt("shards", int64(q.Shards))
	}
	var schedule sched.Schedule
	stats, err := obs.TraceSolve(ctx, solveSp, func(ctx context.Context, t *obs.Trace) error {
		live := s.trackLiveSolve(ctx, a, pr.N(), t)
		defer s.untrackLiveSolve(live)
		var err error
		schedule, err = solve(ctx, a, prep, nil)
		return err
	})
	setDenseRows(solveSp, pr)
	solveSp.End()
	if err != nil {
		s.metrics.SolveError()
		s.log.LogAttrs(ctx, slog.LevelWarn, "solve failed",
			slog.String("algorithm", q.Algorithm), slog.Int("links", len(q.Links)),
			slog.String("error", err.Error()))
		return nil, err
	}
	s.metrics.SolveDone(q.Algorithm)

	// One load pass answers feasibility, success probabilities and
	// expected failures; at scale it is the dominant cost of a miss.
	verifySp := root.Child("verify")
	assessed := sched.Assess(pr, schedule)
	resp := &SolveResponse{
		Algorithm:        q.Algorithm,
		N:                pr.N(),
		Field:            pr.FieldName(),
		Active:           schedule.Active,
		Throughput:       schedule.Throughput(pr),
		Feasible:         assessed.Feasible(),
		SuccessProb:      assessed.SuccessProb,
		ExpectedFailures: assessed.ExpectedFailures,
		Stats:            stats,
	}
	verifySp.End()
	if q.MCSlots > 0 {
		if err := ctx.Err(); err != nil { // don't start a sim after the deadline
			return nil, err
		}
		mcSp := root.Child("mc_simulate")
		if mcSp.Enabled() {
			mcSp.SetInt("slots", int64(q.MCSlots))
		}
		sim, err := mc.Simulate(pr, schedule, mc.Config{Slots: q.MCSlots, Seed: q.MCSeed, Workers: 1})
		if mcSp.Enabled() {
			mcSp.SetInt("exact_rows", sim.ExactRows)
		}
		mcSp.End()
		if err != nil {
			s.metrics.SolveError()
			return nil, fmt.Errorf("simulation failed: %w", err)
		}
		resp.Simulation = &SimulationResult{
			Slots:        sim.Slots,
			MeanFailures: sim.Failures.Mean(),
			CI95:         sim.Failures.CI95(),
			FailureRate:  sim.FailureRate(),
		}
	}

	encodeSp := root.Child("encode")
	encoded, err := json.Marshal(resp)
	encodeSp.End()
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return append(encoded, '\n'), nil
}

// decodeRequest reads r's body into v as one strict JSON value: at most
// MaxBodyBytes (413 naming the limit), no unknown fields, no trailing
// data (400). On failure it has written the error response and
// returns false. Every JSON-body route decodes through it.
//
// A body whose top-level links array the link memo holds hands
// encoding/json only the remainder and takes the memo's decoded links
// and digest; any remainder error re-decodes the whole body, so the
// memo never changes a status, a message or a decoded value.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v linkRequest) bool {
	sp := obs.SpanFrom(r.Context()).Child("decode")
	defer sp.End()
	buf, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	body := buf.Bytes()
	if sp.Enabled() {
		sp.SetInt("bytes", int64(len(body)))
	}
	if err != nil {
		// Decode what arrived as it streamed, so the status and message
		// depend on where the read failed exactly as they did before the
		// body was buffered.
		defer putBody(buf)
		s.metrics.LinksMemoMiss()
		return decodeOK(w, decodeStrict(io.MultiReader(bytes.NewReader(body), errReader{err}), v))
	}
	links, wire := v.linkState()
	if rem, e := s.memo.lookup(body); e != nil {
		if decodeStrict(bytes.NewReader(rem), v) == nil {
			putBody(buf)
			*links = e.links
			wire.key, wire.keyed = e.key, true
			s.metrics.LinksMemoHit()
			if sp.Enabled() {
				sp.SetStr("links", "memo")
				sp.SetInt("json_bytes", int64(len(rem)))
			}
			return true
		}
		reflect.ValueOf(v).Elem().SetZero()
	}
	s.metrics.LinksMemoMiss()
	if sp.Enabled() {
		sp.SetStr("links", "decoded")
		sp.SetInt("json_bytes", int64(len(body)))
	}
	ok := decodeOK(w, decodeStrict(bytes.NewReader(body), v))
	if !ok || s.memo.cap <= 0 {
		putBody(buf)
		return ok
	}
	wire.cand = &memoCandidate{buf: buf}
	return true
}

// bodyBufs recycles request-body buffers of up to maxPooledBody bytes.
// A body is read whole before it is decoded; returning its buffer once
// the request is done with it spares the collector a body-sized
// allocation per request.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps both a buffer bodyBufs keeps and what a declared
// Content-Length reserves up front: a client that declares a larger
// body pays for every byte past it as the bytes arrive.
const maxPooledBody = 1 << 20

// readBody reads rd to its end into a pooled buffer sized from the
// declared length. On a read error the buffer holds what arrived
// before it.
func readBody(rd io.Reader, declared int64) (*bytes.Buffer, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if declared > 0 {
		buf.Grow(int(min(declared, maxPooledBody)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(rd)
	return buf, err
}

// putBody returns buf to bodyBufs; nothing may read its bytes after.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBufs.Put(buf)
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// errTrailingData marks a body with bytes after its one JSON value.
var errTrailingData = errors.New("trailing data after request")

// decodeStrict decodes rd as one JSON value into v: no unknown fields,
// no trailing data.
func decodeStrict(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// decodeOK writes the error response for a decodeStrict error and
// reports whether there was none.
func decodeOK(w http.ResponseWriter, err error) bool {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.Is(err, errTrailingData):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	default:
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
	}
	return false
}

// solverRefusedError marks a solver panic on otherwise-valid input —
// a library-level contract refusal (Exact's MaxN cap is the documented
// case), which the API reports as the client's problem.
type solverRefusedError struct{ reason string }

func (e *solverRefusedError) Error() string { return e.reason }

// badRequestError marks a client-side failure discovered after
// admission (invalid links, incompatible derive), mapped to 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// solve runs the resolved algorithm through the prepared handle's
// pooled scratch, writing the active set into dst[:0], and converts
// solver panics into errors so a valid-JSON request can never drop the
// connection: the library's panic contracts (Exact refusing n > MaxN)
// are programmer guards, not acceptable daemon behavior. Every solve
// path — /v1/solve, batch, session create and session events — goes
// through here, so a refusal is a 400 (or an error delta) everywhere.
func solve(ctx context.Context, a sched.Algorithm, prep *sched.Prepared, dst []int) (s sched.Schedule, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &solverRefusedError{reason: fmt.Sprintf("solver %q refused the instance: %v", a.Name(), r)}
		}
	}()
	return prep.ScheduleInto(ctx, a, dst)
}

// liveSolve is one in-flight sharded solve, registered for the
// lifetime of the solver call so GET /debug/state can fold its tile
// fan-out from the solve's own (mutex-protected) trace.
type liveSolve struct {
	traceID   string
	algorithm string
	shards    int // requested tile count; 0 = auto
	links     int
	started   time.Time
	trace     *obs.Trace
}

// trackLiveSolve registers a solve in the live registry when the
// resolved algorithm is tile-sharded; for every other algorithm it is
// a no-op returning nil (untrackLiveSolve tolerates nil). The solve's
// trace must outlive the registration.
func (s *Server) trackLiveSolve(ctx context.Context, a sched.Algorithm, links int, t *obs.Trace) *liveSolve {
	sh, ok := a.(sched.Sharded)
	if !ok {
		return nil
	}
	ls := &liveSolve{
		traceID:   obs.TraceIDFrom(ctx),
		algorithm: a.Name(),
		shards:    sh.Shards,
		links:     links,
		started:   time.Now(),
		trace:     t,
	}
	s.liveMu.Lock()
	s.liveSolves[ls] = struct{}{}
	s.liveMu.Unlock()
	return ls
}

func (s *Server) untrackLiveSolve(ls *liveSolve) {
	if ls == nil {
		return
	}
	s.liveMu.Lock()
	delete(s.liveSolves, ls)
	s.liveMu.Unlock()
}

// writeRequestFailure maps a solveToBody error onto HTTP: client
// mistakes (bad links, solver contract refusals) are 400, everything
// else goes through the context-aware writeSolveFailure.
func writeRequestFailure(w http.ResponseWriter, err error) {
	var bad *badRequestError
	var refused *solverRefusedError
	switch {
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, bad.Error())
	case errors.As(err, &refused):
		writeError(w, http.StatusBadRequest, refused.Error())
	default:
		writeSolveFailure(w, err)
	}
}

// writeSolveFailure maps context errors onto HTTP: a spent deadline is
// 504 (the server gave the request its full budget), a client
// disconnect is nginx's 499 convention (nobody is listening, but the
// metrics middleware still wants a truthful code).
func writeSolveFailure(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "solve deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, 499, "request canceled")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
