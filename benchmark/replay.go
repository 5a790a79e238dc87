package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/mc"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/traffic"
)

// checked is one check-set request with schedd's answer to it.
type checked struct {
	it   *item
	body []byte
}

// sessionRun is the check session with schedd's answers: the
// registration body and one delta line (newline stripped) per event.
type sessionRun struct {
	plan    *sessionPlan
	created []byte
	deltas  [][]byte
}

// replay re-runs a check set in-process through the public functions
// schedd's handlers call, in the order they call them, with a span
// around each call, and compares every output with schedd's answer.
// Like schedd, it keeps one prepared field per link set (and per ε on
// the sparse class) and derives per-request parameters from it.
type replay struct {
	ctx   context.Context
	tr    *tracer
	preps map[prepKey]*sched.Prepared
	built int64 // field builds paid by the current request

	failures           // answers that differ from the replay
	work     means     // per-call work counts by metric name
	utility  []float64 // Σλ per schedule
	expected []float64 // expected failures per slot per schedule
	rebinds  int64
	events   int64
}

type prepKey struct {
	set int
	eps float64
}

// runReplay replays the check set after building the primed sets'
// fields, which the window found resident in schedd.
func runReplay(ctx context.Context, traced bool, ts *tiles, primed []*linkSet, check []checked, sess sessionRun) *replay {
	r := &replay{
		ctx: ctx, tr: newTracer(traced),
		preps: make(map[prepKey]*sched.Prepared), work: make(means),
	}
	if len(primed) > 0 {
		root := r.tr.request("setup")
		p := params(ts.t.alpha, 1, 0.01, 1, 0)
		for _, set := range primed {
			if _, err := r.prepared(set, ts.setLinks(set), p, ts.t.field, ts.t.cutoff); err != nil {
				r.fail("setup: %v", err)
			}
		}
		r.tr.end(root)
	}
	bodies := make(map[*item][]byte, len(check))
	for _, c := range check {
		bodies[c.it] = c.body
		if err := r.item(c, bodies); err != nil {
			r.fail("%s %s: %v", c.it.kind, c.it.path, err)
		}
	}
	if err := r.session(sess); err != nil {
		r.fail("session: %v", err)
	}
	return r
}

// decode is schedd's strict request decode: unknown fields and
// trailing data are errors.
func (r *replay) decode(body []byte, v any) error {
	sp := r.tr.begin("server.decode")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after request")
		}
	}
	r.tr.end(sp)
	r.work.add("server.decode.bytes", float64(len(body)))
	return err
}

func (r *replay) encode(v any) []byte {
	sp := r.tr.begin("server.encode")
	b, err := json.Marshal(v)
	r.tr.end(sp)
	if err != nil {
		r.fail("encode %T: %v", v, err)
	}
	return b
}

func (r *replay) item(c checked, bodies map[*item][]byte) error {
	root := r.tr.request(c.it.kind)
	defer r.tr.end(root)
	body := c.it.appendBody(nil)
	r.built = 0
	switch c.it.kind {
	case "solve", "solve_mc":
		var q server.SolveRequest
		if err := r.decode(body, &q); err != nil {
			return err
		}
		want, err := r.solve(&q, c.it.set)
		if err != nil {
			return err
		}
		return sameSolve(c.body, want)
	case "cache_hit":
		var q server.SolveRequest
		if err := r.decode(body, &q); err != nil {
			return err
		}
		if orig := bodies[c.it.orig]; !bytes.Equal(c.body, orig) {
			return fmt.Errorf("cache hit is not byte-identical to the response it repeats")
		}
		return nil
	case "batch":
		return r.batch(body, c)
	case "traffic":
		return r.traffic(body, c)
	}
	return fmt.Errorf("unknown kind %q", c.it.kind)
}

// params resolves radio parameters the way schedd does: a zero field
// is the paper's default.
func params(alpha, gammaTh, eps, power, n0 float64) radio.Params {
	p := radio.DefaultParams()
	if alpha != 0 {
		p.Alpha = alpha
	}
	if gammaTh != 0 {
		p.GammaTh = gammaTh
	}
	if eps != 0 {
		p.Eps = eps
	}
	if power != 0 {
		p.Power = power
	}
	if n0 != 0 {
		p.N0 = n0
	}
	return p
}

func fieldName(f string) string {
	if f == "" {
		return "dense"
	}
	return f
}

// prepared returns the set's resident field, building it on first use.
func (r *replay) prepared(set *linkSet, links []network.Link, p radio.Params, field string, cutoff float64) (*sched.Prepared, error) {
	key := prepKey{set: set.id}
	if fieldName(field) != "dense" {
		key.eps = p.Eps
	}
	if pp, ok := r.preps[key]; ok {
		return pp, nil
	}
	sp := r.tr.begin("network.linkset")
	ls, err := network.NewLinkSet(links)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	opt, err := sched.FieldOption(fieldName(field), cutoff)
	if err != nil {
		return nil, err
	}
	pp, err := r.build(ls, p, opt)
	if err != nil {
		return nil, err
	}
	r.preps[key] = pp
	r.built++
	return pp, nil
}

// build runs the field construction: the sched dense fill or sparse
// grid build over the radio kernel.
func (r *replay) build(ls *network.LinkSet, p radio.Params, opt sched.Option) (*sched.Prepared, error) {
	sp := r.tr.begin("sched.field_build")
	pp, err := sched.PrepareContext(r.ctx, ls, p, opt)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	// Work counts are computed from the built field, not counted by it:
	// a dense build evaluates and stores n² factors; a sparse one stores
	// StoredPairs factors in a CSR of 8-byte values and 4-byte indices.
	n := float64(pp.Problem().N())
	evals, size := n*n, 8*n*n
	if sf, ok := pp.Problem().Field().(*sched.SparseField); ok {
		pairs := float64(sf.StoredPairs())
		evals, size = pairs, 12*pairs
	}
	r.work.add("sched.field_build.factor_evals", evals)
	r.work.add("sched.field_build.bytes", size)
	return pp, nil
}

func algorithm(name string, shards int) (sched.Algorithm, error) {
	a, ok := sched.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	if shards > 0 {
		sh, ok := a.(sched.Shardable)
		if !ok {
			return nil, fmt.Errorf("algorithm %q does not take shards", name)
		}
		a = sh.WithShards(shards)
	}
	return a, nil
}

// solve is schedd's post-decode solve pipeline: prepared field,
// derive, solve, verify, optional Monte-Carlo, encode. It returns the
// encoded response without solver stats.
func (r *replay) solve(q *server.SolveRequest, set *linkSet) ([]byte, error) {
	p := params(q.Alpha, q.GammaTh, q.Eps, q.Power, q.N0)
	pp, err := r.prepared(set, q.Links, p, q.Field, q.Cutoff)
	if err != nil {
		return nil, err
	}
	sp := r.tr.begin("sched.derive")
	dp, err := pp.Derive(p)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	a, err := algorithm(q.Algorithm, q.Shards)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("sched.solve")
	r.tr.detail(sp, q.Algorithm)
	s, err := dp.ScheduleContext(r.ctx, a)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}

	// schedd's verify: Feasible, SuccessProbabilities and
	// ExpectedFailures each walk every active receiver's load.
	pr := dp.Problem()
	sp = r.tr.begin("sched.verify")
	violations := sched.Verify(pr, s)
	probs := sched.SuccessProbabilities(pr, s)
	ef := sched.ExpectedFailures(pr, s)
	r.tr.end(sp)
	m := float64(len(s.Active))
	r.work.add("sched.verify.factor_reads", 3*m*(m-1))
	if len(violations) > 0 {
		return nil, fmt.Errorf("%s schedule fails Verify at %d receivers: %v", q.Algorithm, len(violations), violations[0])
	}
	resp := &server.SolveResponse{
		Algorithm: q.Algorithm, N: pr.N(), Field: pr.FieldName(),
		Active: s.Active, Throughput: s.Throughput(pr), Feasible: true,
		SuccessProb: probs, ExpectedFailures: ef,
	}
	r.utility = append(r.utility, resp.Throughput)
	r.expected = append(r.expected, ef)

	if q.MCSlots > 0 {
		sp = r.tr.begin("mc.simulate")
		sim, err := mc.Simulate(pr, s, mc.Config{Slots: q.MCSlots, Seed: q.MCSeed, Workers: 1})
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.work.add("mc.simulate.link_slots", m*float64(q.MCSlots))
		resp.Simulation = &server.SimulationResult{
			Slots: sim.Slots, MeanFailures: sim.Failures.Mean(),
			CI95: sim.Failures.CI95(), FailureRate: sim.FailureRate(),
		}
	}
	return r.encode(resp), nil
}

// sameSolve compares schedd's solve response with the replay's
// encoding. The solver stats carry wall times and are left out;
// everything else must match bit for bit.
func sameSolve(body, want []byte) error {
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	resp.Stats = nil
	got, err := json.Marshal(&resp)
	if err != nil {
		return err
	}
	return sameBytes(got, want)
}

func sameBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("schedd's answer differs from the replay:\n  schedd %s\n  replay %s", clip(got), clip(want))
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

// batch replays POST /v1/solve/batch: every config is the single-solve
// pipeline on the batch's shared field.
func (r *replay) batch(body []byte, c checked) error {
	var q server.BatchRequest
	if err := r.decode(body, &q); err != nil {
		return err
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(c.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) != len(q.Configs) {
		return fmt.Errorf("%d results for %d configs", len(resp.Results), len(q.Configs))
	}
	results := make([]json.RawMessage, len(q.Configs))
	for i, cfg := range q.Configs {
		sq := server.SolveRequest{
			Algorithm: cfg.Algorithm, Links: q.Links,
			Alpha: q.Alpha, GammaTh: q.GammaTh, Eps: q.Eps, Power: q.Power, N0: q.N0,
			Field: q.Field, Cutoff: q.Cutoff,
			MCSlots: cfg.MCSlots, MCSeed: cfg.MCSeed, Shards: cfg.Shards,
		}
		if cfg.Eps != 0 {
			sq.Eps = cfg.Eps
		}
		want, err := r.solve(&sq, c.it.set)
		if err != nil {
			return fmt.Errorf("config %d: %w", i, err)
		}
		if err := sameSolve(resp.Results[i], want); err != nil {
			return fmt.Errorf("config %d: %w", i, err)
		}
		results[i] = want
	}
	r.encode(server.BatchResponse{N: len(q.Links), Field: fieldName(q.Field), FieldBuilds: r.built, Results: results})
	if resp.N != len(q.Links) || resp.Field != fieldName(q.Field) || resp.FieldBuilds != r.built {
		return fmt.Errorf("batch header n=%d field=%s builds=%d, replay n=%d field=%s builds=%d",
			resp.N, resp.Field, resp.FieldBuilds, len(q.Links), fieldName(q.Field), r.built)
	}
	return nil
}

// traffic replays POST /v1/traffic: the queueing engine on the set's
// field, under the request's parameters.
func (r *replay) traffic(body []byte, c checked) error {
	var q server.TrafficRequest
	if err := r.decode(body, &q); err != nil {
		return err
	}
	p := params(q.Alpha, q.GammaTh, q.Eps, q.Power, q.N0)
	pp, err := r.prepared(c.it.set, q.Links, p, q.Field, q.Cutoff)
	if err != nil {
		return err
	}
	sp := r.tr.begin("sched.derive")
	dp, err := pp.Derive(p)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	var arr traffic.Arrivals = traffic.Bernoulli{P: q.Rate}
	if q.Arrivals == "poisson" {
		arr = traffic.Poisson{Lambda: q.Rate}
	}
	sp = r.tr.begin("traffic.run")
	eng, err := traffic.New(dp, traffic.Config{
		Slots: q.Slots, Arrivals: arr, QueueCap: q.QueueCap,
		Policy: traffic.Policy(q.Policy), Seed: q.Seed, NoFading: q.NoFading,
	})
	var res traffic.Result
	if err == nil {
		res = eng.Run(r.ctx)
	}
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.work.add("traffic.run.slots", float64(res.Slots))
	want := r.encode(trafficResponse(dp.Problem().N(), res))

	var resp server.TrafficResponse
	if err := json.Unmarshal(c.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	resp.PacketsPerSec = 0 // wall-clock engine speed, not a model output
	got, err := json.Marshal(&resp)
	if err != nil {
		return err
	}
	return sameBytes(got, want)
}

// trafficResponse is schedd's wire mapping of an engine result.
func trafficResponse(n int, res traffic.Result) *server.TrafficResponse {
	san := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	resp := &server.TrafficResponse{
		Policy: res.Policy, Arrivals: res.ArrivalProcess, N: n,
		Slots: res.Slots, Truncated: res.Truncated,
		Arrived: res.Arrived, Delivered: res.Delivered, Dropped: res.Dropped,
		FailedTx: res.FailedTx, Attempts: res.Attempts, Backlog: res.Backlog,
		LossRate:       san(res.LossRate()),
		GoodputPerSlot: san(res.PerSlotDelivered.Mean()),
		MeanDelay:      san(res.Delay.Mean()),
		DelayP50:       san(res.DelayQuantile(0.50)),
		DelayP90:       san(res.DelayQuantile(0.90)),
		DelayP99:       san(res.DelayQuantile(0.99)),
		Drift:          res.Drift,
		Trajectory:     make([]server.TrafficTrajectoryPoint, len(res.Trajectory)),
	}
	for i, pt := range res.Trajectory {
		resp.Trajectory[i] = server.TrafficTrajectoryPoint{Slot: pt.Slot, Backlog: pt.Backlog}
	}
	return resp
}

// liveSession is the replay's copy of a session's state, updated the
// way schedd's event loop updates its own.
type liveSession struct {
	ed                           *mobility.Editor
	algo                         sched.Algorithm
	active, spare, entered, left []int
	seq                          uint64
}

// session replays the check session: registration (a private field
// build and a first solve), then every event through mobility.Editor
// and a warm re-solve, framed as schedd frames its deltas.
func (r *replay) session(s sessionRun) error {
	ls, want, err := r.register(s.plan.create)
	if err != nil {
		return fmt.Errorf("registration: %w", err)
	}
	var created server.SessionResponse
	if err := json.Unmarshal(s.created, &created); err != nil {
		return fmt.Errorf("decoding registration: %w", err)
	}
	created.SessionID = "" // random per registration
	got, err := json.Marshal(&created)
	if err != nil {
		return err
	}
	if err := sameBytes(got, want); err != nil {
		return fmt.Errorf("registration: %w", err)
	}
	if len(s.deltas) != len(s.plan.events) {
		return fmt.Errorf("schedd answered %d of %d events", len(s.deltas), len(s.plan.events))
	}
	for i, ev := range s.plan.events {
		frame, err := r.event(ls, ev)
		if err == nil {
			err = sameBytes(s.deltas[i], frame)
		}
		if err != nil {
			return fmt.Errorf("event %d: %w", i+1, err)
		}
	}
	r.rebinds += ls.ed.Rebinds()
	r.events += int64(len(s.plan.events))
	return nil
}

// register is POST /v1/session: decode, a private field build, the
// first solve, encode.
func (r *replay) register(it *item) (*liveSession, []byte, error) {
	root := r.tr.request("session_create")
	defer r.tr.end(root)
	var q server.SessionRequest
	if err := r.decode(it.appendBody(nil), &q); err != nil {
		return nil, nil, err
	}
	opt, err := sched.FieldOption(fieldName(q.Field), q.Cutoff)
	if err != nil {
		return nil, nil, err
	}
	algo, err := algorithm(q.Algorithm, 0)
	if err != nil {
		return nil, nil, err
	}
	sp := r.tr.begin("network.linkset")
	links, err := network.NewLinkSet(q.Links)
	r.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	prep, err := r.build(links, params(q.Alpha, q.GammaTh, q.Eps, q.Power, q.N0), opt)
	if err != nil {
		return nil, nil, err
	}
	sp = r.tr.begin("sched.session_solve")
	sch, err := prep.ScheduleInto(r.ctx, algo, nil)
	r.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	pr := prep.Problem()
	want := r.encode(&server.SessionResponse{
		Algorithm: q.Algorithm, Field: pr.FieldName(), Eps: pr.Params.Eps, N: pr.N(),
		Active: sch.Active, Throughput: sch.Throughput(pr),
	})
	if err := r.checkSchedule(pr, sch); err != nil {
		return nil, nil, err
	}
	return &liveSession{ed: mobility.NewEditor(prep, opt), algo: algo, active: sch.Active}, want, nil
}

// eventLayer names the mobility span of each event type: a move
// patches the field, a retune derives, add and remove rebuild.
var eventLayer = map[string]string{
	network.EventMove:   "mobility.move",
	network.EventRetune: "mobility.retune",
	network.EventAdd:    "mobility.rebuild",
	network.EventRemove: "mobility.rebuild",
}

// event applies one event line the way schedd's stream loop does and
// returns the delta frame schedd would write, without its newline.
func (r *replay) event(s *liveSession, e event) ([]byte, error) {
	root := r.tr.request("event." + e.typ)
	defer r.tr.end(root)
	sp := r.tr.begin("server.decode")
	ev, err := network.DecodeSessionEvent(bytes.TrimSuffix(e.line, []byte("\n")))
	if err == nil {
		err = ev.Validate(s.ed.N())
	}
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin(eventLayer[ev.Type])
	err = s.ed.ApplyContext(r.ctx, &ev)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("sched.session_solve")
	if ev.Type == network.EventRemove {
		s.active = sched.RenumberAfterRemove(s.active, ev.Link)
	}
	next, err := s.ed.Prepared().ScheduleInto(r.ctx, s.algo, s.spare)
	if err == nil {
		s.entered, s.left = sched.DiffSchedulesInto(s.active, next.Active, s.entered, s.left)
	}
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	s.spare, s.active = s.active, next.Active
	s.seq++
	pr := s.ed.Prepared().Problem()
	d := network.SessionDelta{
		V: network.SessionWireVersion, Seq: s.seq, Event: ev.Type, N: s.ed.N(),
		Entered: s.entered, Left: s.left, Throughput: next.Throughput(pr),
	}
	if d.Entered == nil {
		d.Entered = []int{}
	}
	if d.Left == nil {
		d.Left = []int{}
	}
	frame := r.encode(&d)
	return frame, r.checkSchedule(pr, next)
}

// checkSchedule is the replay's own check of a session schedule, which
// schedd does not verify: Verify must be clean. It also records the
// schedule's utility and expected failures.
func (r *replay) checkSchedule(pr *sched.Problem, s sched.Schedule) error {
	if v := sched.Verify(pr, s); len(v) > 0 {
		return fmt.Errorf("schedule fails Verify at %d receivers: %v", len(v), v[0])
	}
	r.utility = append(r.utility, s.Throughput(pr))
	r.expected = append(r.expected, sched.ExpectedFailures(pr, s))
	return nil
}
