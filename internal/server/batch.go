package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
)

// maxBatchConfigs caps the fan-out of one batch request: the point of
// the endpoint is amortizing one field build over several solves, not
// letting a single POST occupy the pool indefinitely.
const maxBatchConfigs = 64

// BatchConfig is one solve variant inside a batch: the algorithm plus
// the per-solve knobs that do not reshape the interference field. Eps
// overrides the request-level ε when non-zero (on the dense backend the
// field is ε-independent, so every variant still shares one build).
type BatchConfig struct {
	Algorithm string  `json:"algorithm"`
	Eps       float64 `json:"eps,omitempty"`
	MCSlots   int     `json:"mc_slots,omitempty"`
	MCSeed    uint64  `json:"mc_seed,omitempty"`
	Shards    int     `json:"shards,omitempty"`
}

// BatchRequest is the wire form of POST /v1/solve/batch: one link set
// and field configuration, many solve configs. Field-shaping
// parameters (alpha, gamma_th, power, n0, field, cutoff) are
// request-level by construction — that is what guarantees the
// interference field is built at most once per request (on the dense
// backend; a non-dense backend keys its truncation on ε, so ε-varying
// configs there pay one build each).
type BatchRequest struct {
	Links   []network.Link `json:"links"`
	Alpha   float64        `json:"alpha,omitempty"`
	GammaTh float64        `json:"gamma_th,omitempty"`
	Eps     float64        `json:"eps,omitempty"`
	Power   float64        `json:"power,omitempty"`
	N0      float64        `json:"n0,omitempty"`
	Field   string         `json:"field,omitempty"`
	Cutoff  float64        `json:"cutoff,omitempty"`
	// TimeoutMS bounds the whole batch, not each solve.
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
	Configs   []BatchConfig `json:"configs"`
}

// BatchResponse is the wire form of a batch reply. Results is indexed
// like the request's configs; a failed config carries an error
// envelope ({"error": ...}) in its slot instead of failing the batch.
// FieldBuilds counts interference-field constructions this request
// paid for — 1 on a cold cache, 0 when the field was already resident.
type BatchResponse struct {
	N           int               `json:"n"`
	Field       string            `json:"field"`
	FieldBuilds int64             `json:"field_builds"`
	Results     []json.RawMessage `json:"results"`
}

// solveRequest projects config c over the batch's shared instance,
// yielding the equivalent single-solve request (same validation, same
// cache key space — batch results and single-solve results are
// interchangeable cache entries).
func (q *BatchRequest) solveRequest(c BatchConfig) SolveRequest {
	r := SolveRequest{
		Algorithm: c.Algorithm,
		Links:     q.Links,
		Alpha:     q.Alpha,
		GammaTh:   q.GammaTh,
		Eps:       q.Eps,
		Power:     q.Power,
		N0:        q.N0,
		Field:     q.Field,
		Cutoff:    q.Cutoff,
		MCSlots:   c.MCSlots,
		MCSeed:    c.MCSeed,
		Shards:    c.Shards,
	}
	if c.Eps != 0 {
		r.Eps = c.Eps
	}
	return r
}

// handleSolveBatch solves one link set under many configurations,
// building the interference field once (per field key) and fanning the
// solves across the worker pool. Each config passes through the same
// response cache as /v1/solve.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one config")
		return
	}
	if len(req.Configs) > maxBatchConfigs {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch too large: %d configs > limit %d", len(req.Configs), maxBatchConfigs))
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("timeout_ms %d must be ≥ 0", req.TimeoutMS))
		return
	}
	subs := make([]SolveRequest, len(req.Configs))
	for i, c := range req.Configs {
		subs[i] = req.solveRequest(c)
		if err := subs[i].validate(s.cfg.MaxLinks); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("config %d: %s", i, err))
			return
		}
	}
	s.metrics.BatchObserved(len(subs))

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var builds atomic.Int64
	results := make([]json.RawMessage, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		q := &subs[i]
		key := q.hash()
		if cached, ok := s.cache.get(key); ok {
			s.metrics.CacheHit()
			results[i] = json.RawMessage(cached)
			continue
		}
		s.metrics.CacheMiss()
		wg.Add(1)
		go func(i int, q *SolveRequest, key cacheKey) {
			defer wg.Done()
			// Each config runs under its own child span, so the trace
			// shows the fan-out as concurrent lanes rather than one
			// opaque request-length bar.
			csp := obs.SpanFrom(ctx).Child("config")
			defer csp.End()
			if csp.Enabled() {
				csp.SetInt("index", int64(i))
				csp.SetStr("algorithm", q.Algorithm)
			}
			cctx := obs.ContextWithSpan(ctx, csp)
			// Each solve queues for its own pool slot under the batch
			// deadline: a batch never out-competes single requests for
			// more than its fair share of workers.
			poolSp := csp.Child("pool_wait")
			err := s.pool.acquire(cctx)
			poolSp.End()
			if err != nil {
				results[i] = batchErrorJSON(err)
				return
			}
			defer s.pool.release()
			encoded, err := s.solveToBody(cctx, q, &builds)
			if err != nil {
				results[i] = batchErrorJSON(err)
				return
			}
			s.cache.put(key, encoded)
			results[i] = json.RawMessage(encoded)
		}(i, q, key)
	}
	wg.Wait()

	field := req.Field
	if field == "" {
		field = "dense"
	}
	writeJSON(w, http.StatusOK, BatchResponse{
		N:           len(req.Links),
		Field:       field,
		FieldBuilds: builds.Load(),
		Results:     results,
	})
}

// batchErrorJSON renders a per-config failure as the standard error
// envelope so one slow or invalid config cannot sink its siblings.
func batchErrorJSON(err error) json.RawMessage {
	b, _ := json.Marshal(errorResponse{Error: err.Error()})
	return b
}
