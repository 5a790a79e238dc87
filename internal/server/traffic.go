package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// TrafficRequest is the wire form of one POST /v1/traffic query: a
// queued-traffic simulation over the posted instance. The interference
// field goes through the same prepared-field cache as /v1/solve, so a
// traffic run on links the server has already solved reuses the field
// and the factor rows those solves filled.
type TrafficRequest struct {
	// Links is the instance, validated like a /v1/solve request.
	Links []network.Link `json:"links"`

	// Radio parameters (0 = paper default for that field), and the
	// interference backend selection — identical to SolveRequest.
	Alpha   float64 `json:"alpha,omitempty"`
	GammaTh float64 `json:"gamma_th,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Power   float64 `json:"power,omitempty"`
	N0      float64 `json:"n0,omitempty"`
	Field   string  `json:"field,omitempty"`
	Cutoff  float64 `json:"cutoff,omitempty"`

	// Slots is the simulated horizon (required, ≤ the server cap).
	Slots int `json:"slots"`
	// Policy is the per-slot scheduling rule: "backlog" (default),
	// "maxqueue", or "maxweight".
	Policy string `json:"policy,omitempty"`
	// Arrivals selects the arrival process: "bernoulli" (default) or
	// "poisson". Rate is its parameter — the per-link per-slot arrival
	// probability (Bernoulli) or mean batch size (Poisson).
	Arrivals string  `json:"arrivals,omitempty"`
	Rate     float64 `json:"rate"`
	// QueueCap bounds each link's queue (0 = unbounded).
	QueueCap int `json:"queue_cap,omitempty"`
	// Seed anchors arrivals, fading, and the delay reservoir; same seed
	// ⇒ same simulation, which keeps responses cacheable.
	Seed uint64 `json:"seed,omitempty"`
	// NoFading disables the channel draw (queueing-only ablation).
	NoFading bool `json:"no_fading,omitempty"`

	// TimeoutMS caps this request's simulation time; 0 uses the server
	// default. A run cut off by the deadline returns its partial result
	// with truncated=true rather than a 504 — the slots it finished are
	// still an answer.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// maxTrafficSlots caps per-request simulation effort, mirroring
// maxMCSlots: one request must not buy unbounded CPU.
const maxTrafficSlots = 1_000_000

// validate rejects a traffic request before any expensive work.
func (q *TrafficRequest) validate(maxLinks int) error {
	if len(q.Links) == 0 {
		return fmt.Errorf("missing links")
	}
	if len(q.Links) > maxLinks {
		return fmt.Errorf("instance too large: %d links > limit %d", len(q.Links), maxLinks)
	}
	if q.Slots <= 0 || q.Slots > maxTrafficSlots {
		return fmt.Errorf("slots %d outside [1, %d]", q.Slots, maxTrafficSlots)
	}
	if q.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d must be ≥ 0", q.TimeoutMS)
	}
	sr := q.solveView()
	if err := sr.params().Validate(); err != nil {
		return fmt.Errorf("invalid radio params: %w", err)
	}
	if _, err := sr.fieldOption(); err != nil {
		return err
	}
	// Engine-side knobs validate through traffic's own typed errors, so
	// the field names in the message match the traffic package docs.
	if _, err := q.arrivals(); err != nil {
		return err
	}
	cfg := q.trafficConfig()
	if err := cfg.Validate(); err != nil {
		return err
	}
	return nil
}

// arrivals resolves the named arrival process.
func (q *TrafficRequest) arrivals() (traffic.Arrivals, error) {
	switch q.Arrivals {
	case "", "bernoulli":
		return traffic.Bernoulli{P: q.Rate}, nil
	case "poisson":
		return traffic.Poisson{Lambda: q.Rate}, nil
	default:
		return nil, fmt.Errorf("unknown arrivals %q (have bernoulli, poisson)", q.Arrivals)
	}
}

// trafficConfig assembles the engine configuration. Only called after
// arrivals() succeeded at least once in validate.
func (q *TrafficRequest) trafficConfig() traffic.Config {
	arr, _ := q.arrivals()
	return traffic.Config{
		Slots:    q.Slots,
		Arrivals: arr,
		QueueCap: q.QueueCap,
		Policy:   traffic.Policy(q.Policy),
		Seed:     q.Seed,
		NoFading: q.NoFading,
	}
}

// solveView adapts the request to the SolveRequest field-cache methods:
// fieldKey and params depend only on the fields copied here, so a
// traffic run shares prepared interference fields with /v1/solve.
func (q *TrafficRequest) solveView() *SolveRequest {
	return &SolveRequest{
		Links: q.Links,
		Alpha: q.Alpha, GammaTh: q.GammaTh, Eps: q.Eps,
		Power: q.Power, N0: q.N0,
		Field: q.Field, Cutoff: q.Cutoff,
	}
}

// hash is the canonical response key under its own version prefix:
// every input that determines the simulation outcome, with TimeoutMS
// deliberately excluded — but truncated responses are never cached, so
// the deadline still never changes a cached answer.
func (q *TrafficRequest) hash() cacheKey {
	h := sha256.New()
	var scratch [8]byte
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		h.Write(scratch[:])
	}
	writeS := func(s string) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(s)))
		h.Write(scratch[:])
		h.Write([]byte(s))
	}
	writeU := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	writeS("schedd/traffic/v1")
	sr := q.solveView()
	p := sr.params()
	for _, v := range []float64{p.Alpha, p.GammaTh, p.Eps, p.Power, p.N0} {
		writeF(v)
	}
	field := q.Field
	if field == "" {
		field = "dense"
	}
	writeS(field)
	writeF(q.Cutoff)
	writeU(uint64(q.Slots))
	writeS(q.Policy)
	writeS(q.Arrivals)
	writeF(q.Rate)
	writeU(uint64(q.QueueCap))
	writeU(q.Seed)
	if q.NoFading {
		writeU(1)
	} else {
		writeU(0)
	}
	writeU(uint64(len(q.Links)))
	for _, l := range q.Links {
		writeF(l.Sender.X)
		writeF(l.Sender.Y)
		writeF(l.Receiver.X)
		writeF(l.Receiver.Y)
		writeF(l.Rate)
		writeF(l.Power)
	}
	return cacheKey(h.Sum(nil))
}

// TrafficTrajectoryPoint is one backlog-trajectory sample on the wire.
type TrafficTrajectoryPoint struct {
	Slot    int   `json:"slot"`
	Backlog int64 `json:"backlog"`
}

// TrafficResponse is the wire form of a completed (or truncated)
// traffic simulation.
type TrafficResponse struct {
	Policy   string `json:"policy"`
	Arrivals string `json:"arrivals"`
	N        int    `json:"n"`
	// Slots is the number executed; Truncated reports a deadline cut.
	Slots     int  `json:"slots"`
	Truncated bool `json:"truncated"`

	Arrived   int64 `json:"arrived"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	FailedTx  int64 `json:"failed_tx"`
	Attempts  int64 `json:"attempts"`
	Backlog   int64 `json:"backlog"`

	LossRate       float64 `json:"loss_rate"`
	GoodputPerSlot float64 `json:"goodput_per_slot"`
	MeanDelay      float64 `json:"mean_delay"`
	// Delay quantiles come from the engine's bounded reservoir; all
	// zero when nothing was delivered.
	DelayP50 float64 `json:"delay_p50"`
	DelayP90 float64 `json:"delay_p90"`
	DelayP99 float64 `json:"delay_p99"`
	// Drift is the sliding-window backlog growth in packets/slot;
	// positive at the horizon means the offered load is unstable.
	Drift      float64                  `json:"drift"`
	Trajectory []TrafficTrajectoryPoint `json:"trajectory"`
	// PacketsPerSec is the simulation throughput (delivered packets per
	// wall-clock second) — an engine performance figure, not a model
	// quantity, so it is excluded from the cached body.
	PacketsPerSec float64 `json:"packets_per_sec,omitempty"`
}

// handleTraffic serves POST /v1/traffic: decode → cache → pool →
// simulate → encode. A request deadline mid-run truncates the
// simulation instead of failing it.
func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	var req TrafficRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	if err := req.validate(s.cfg.MaxLinks); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	key := req.hash()
	if cached, ok := s.cache.get(key); ok {
		s.metrics.CacheHit()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.Write(cached)
		return
	}
	s.metrics.CacheMiss()

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	root := obs.SpanFrom(r.Context())
	poolSp := root.Child("pool_wait")
	err := s.pool.acquire(ctx)
	poolSp.End()
	if err != nil {
		writeSolveFailure(w, err)
		return
	}
	defer s.pool.release()

	prepSp := root.Child("prepare")
	prep, err := s.prepared(obs.ContextWithSpan(ctx, prepSp), req.solveView(), nil)
	prepSp.End()
	if err != nil {
		writeRequestFailure(w, err)
		return
	}
	eng, err := traffic.New(prep, req.trafficConfig())
	if err != nil {
		// Config errors surviving validate are still the client's
		// fault (e.g. a trace wider than the instance).
		var cfgErr *traffic.ConfigError
		if errors.As(err, &cfgErr) {
			writeError(w, http.StatusBadRequest, cfgErr.Error())
			return
		}
		writeSolveFailure(w, err)
		return
	}

	start := time.Now()
	res := eng.Run(ctx)
	elapsed := time.Since(start)
	if res.Truncated {
		// A deadline-cut run is exactly the kind of request an operator
		// wants retained regardless of sampling.
		if t := root.Trace(); t != nil {
			t.MarkOutlier("truncated")
		}
	}
	s.metrics.TrafficDone(res.Policy, res.Truncated)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "traffic run",
		slog.String("policy", res.Policy),
		slog.Int("links", prep.Problem().N()),
		slog.Int("slots", res.Slots),
		slog.Bool("truncated", res.Truncated),
		slog.Int64("delivered", res.Delivered),
	)

	resp := trafficResponse(prep.Problem().N(), res)
	encoded, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	encoded = append(encoded, '\n')
	// Only complete runs are cacheable: a truncated result depends on
	// the deadline and the machine, not just the request.
	if !res.Truncated {
		s.cache.put(key, encoded)
	}
	// The wall-clock throughput figure rides only the live response.
	if elapsed > 0 && res.Delivered > 0 {
		resp.PacketsPerSec = float64(res.Delivered) / elapsed.Seconds()
		if withPerf, err := json.Marshal(resp); err == nil {
			encoded = append(withPerf, '\n')
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.Write(encoded)
}

// trafficResponse maps an engine Result onto the wire form, sanitizing
// the NaN quantiles JSON cannot carry.
func trafficResponse(n int, res traffic.Result) *TrafficResponse {
	san := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	quant := func(q float64) float64 { return san(res.DelayQuantile(q)) }
	resp := &TrafficResponse{
		Policy:         res.Policy,
		Arrivals:       res.ArrivalProcess,
		N:              n,
		Slots:          res.Slots,
		Truncated:      res.Truncated,
		Arrived:        res.Arrived,
		Delivered:      res.Delivered,
		Dropped:        res.Dropped,
		FailedTx:       res.FailedTx,
		Attempts:       res.Attempts,
		Backlog:        res.Backlog,
		LossRate:       san(res.LossRate()),
		GoodputPerSlot: san(res.PerSlotDelivered.Mean()),
		MeanDelay:      san(res.Delay.Mean()),
		DelayP50:       quant(0.50),
		DelayP90:       quant(0.90),
		DelayP99:       quant(0.99),
		Drift:          res.Drift,
		Trajectory:     make([]TrafficTrajectoryPoint, len(res.Trajectory)),
	}
	for i, p := range res.Trajectory {
		resp.Trajectory[i] = TrafficTrajectoryPoint{Slot: p.Slot, Backlog: p.Backlog}
	}
	return resp
}
