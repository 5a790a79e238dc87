package traffic

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Engine runs a traffic simulation slot by slot: arrivals feed
// per-link FIFO queues, the configured policy picks each slot's
// transmission set through one long-lived sched.Prepared handle, a
// shared fading draw decides which attempts succeed, and the
// diagnostics (drift window, delay reservoir, backlog trajectory)
// update in place. Every buffer the slot loop touches is preallocated
// at construction, so with bounded queues the steady state allocates
// nothing.
//
// An Engine is single-use and not safe for concurrent use: build one
// per run, call Run (or Step repeatedly) from one goroutine, and read
// the Result. The Prepared handle it solves through may be shared
// freely — solves check private scratch out of its pool.
type Engine struct {
	prep   *sched.Prepared
	pr     *sched.Problem
	cfg    Config
	policy Policy // cfg.policy(), resolved once
	n      int

	queues []fifo
	counts []int
	// mask (backlog policy) or weights (the others) hold each link's
	// current selection entry, and backlogged counts the links holding
	// packets; all three change only where a queue does, at an arrival
	// or a delivery.
	mask       []bool
	weights    []float64
	backlogged int64
	active     []int // recycled schedule buffer (dst of ScheduleInto)
	success    []bool

	// The fading draw's per-receiver rows: mean gains bracketed from
	// the senders' and receivers' positions through bracket (nil when
	// α is outside its range), and the exact means a row falls back to.
	bracket       *radio.MeanBracket
	lo, hi, means []float64

	arrSrc  rng.Source // arrivals stream, consumed across the run
	chSrc   rng.Source // fading stream, reseeded per slot
	resv    *reservoir
	backlog int64

	// driftBuf is a ring of end-of-slot backlog totals covering the
	// last driftWindow+1 slots.
	driftBuf []int64

	traj   []TrajectoryPoint
	stride int

	slot int
	res  Result
	m    *engineMetrics

	// solve is the per-slot selection solve, prep.ScheduleWeightedInto;
	// the differential tests swap in a reference implementation.
	solve func(context.Context, sched.Selection, []int) (sched.Schedule, error)
	// candidates sums the links each slot's selection admitted — the m
	// a selection-restricted solve's cost scales with.
	candidates int64
	// fade is the per-slot fading draw, transmit; the differential
	// tests swap in a reference implementation.
	fade func(slot int)
	// bracketMisses counts the receivers whose outcome the bracketed
	// means left undecided (or could not bracket) and that fell back to
	// their exact means; exactRows counts those of them RowOutcome left
	// undecided even then, which replayed exactly.
	bracketMisses, exactRows int64
	// rows0 is the dense field's resident rows when Run began.
	rows0 int

	// runSpan is the trace span covering the whole run; Step hangs one
	// bounded per-slot child off it (the trace arena caps how many
	// stick, so a million-slot run records its opening slots and then
	// pays one atomic check per slot).
	runSpan obs.Span
}

// New builds an engine over the prepared problem. The configuration is
// validated here (returning *ConfigError), including the trace-width
// check that needs the instance size.
func New(prep *sched.Prepared, cfg Config) (*Engine, error) {
	if prep == nil {
		return nil, &ConfigError{"Prepared", "nil solve handle"}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pr := prep.Problem()
	n := pr.N()
	if tr, ok := cfg.Arrivals.(Trace); ok {
		if err := tr.validateWidth(n); err != nil {
			return nil, err
		}
	}
	if cfg.QueueCap > 0 && cfg.InitialBacklog > cfg.QueueCap {
		return nil, &ConfigError{"InitialBacklog", fmt.Sprintf("%d packets exceed QueueCap %d", cfg.InitialBacklog, cfg.QueueCap)}
	}
	e := &Engine{
		prep:     prep,
		pr:       pr,
		cfg:      cfg,
		policy:   cfg.policy(),
		n:        n,
		queues:   make([]fifo, n),
		counts:   make([]int, n),
		mask:     make([]bool, n),
		weights:  make([]float64, n),
		active:   make([]int, 0, n),
		success:  make([]bool, n),
		bracket:  pr.Params.MeanBracket(),
		lo:       make([]float64, n),
		hi:       make([]float64, n),
		means:    make([]float64, n),
		resv:     newReservoir(cfg.reservoirSize(), cfg.Seed),
		driftBuf: make([]int64, cfg.driftWindow()+1),
		traj:     make([]TrajectoryPoint, 0, cfg.trajectoryPoints()),
		stride:   1,
		solve:    prep.ScheduleWeightedInto,
	}
	e.fade = e.transmit
	// The arrival and channel stream labels predate the package: they
	// keep engine runs seed-compatible with historical simnet results.
	rng.StreamInto(&e.arrSrc, cfg.Seed, "simnet-arrivals", 0)
	for i := range e.queues {
		for k := 0; k < cfg.InitialBacklog; k++ {
			e.queues[i].push(0)
			e.res.Arrived++
			e.backlog++
		}
		if cfg.InitialBacklog > 0 {
			e.backlogged++
			e.weigh(i)
		}
	}
	if cfg.Metrics != nil {
		e.m = newEngineMetrics(cfg.Metrics)
	}
	return e, nil
}

// Slot returns the index of the next slot Step would execute.
func (e *Engine) Slot() int { return e.slot }

// Run executes the configured horizon under ctx, checking the context
// once per slot. A deadline or cancellation mid-run is not an error:
// the partial result is returned with Truncated set, which is how the
// serving layer turns a request deadline into a bounded simulation.
func (e *Engine) Run(ctx context.Context) Result {
	e.runSpan = obs.SpanFrom(ctx).Child("traffic_run")
	e.rows0 = residentRows(e.pr)
	e.runSpan.SetInt("slots", int64(e.cfg.Slots))
	e.runSpan.SetStr("policy", string(e.policy))
	for e.slot < e.cfg.Slots {
		if err := e.Step(ctx); err != nil {
			return e.finish(true)
		}
	}
	return e.finish(false)
}

// Step executes one slot: arrivals, policy-selected solve, fading
// draw, delivery accounting, diagnostics. It returns ctx.Err() (with
// the slot not executed) when the context is done; it does not check
// the configured horizon — Run does. Exposed so benchmarks and the
// zero-allocation gate can drive the loop directly.
func (e *Engine) Step(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	slot := e.slot
	ssp := e.runSpan.Child("slot")

	// 1. Arrivals. Dropped packets still count as arrived, as in
	// legacy simnet. A queue that receives packets holds one after.
	e.cfg.Arrivals.draw(&e.arrSrc, slot, e.counts)
	var arrived, dropped int64
	for i, c := range e.counts {
		if c == 0 {
			continue
		}
		if e.queues[i].len() == 0 {
			e.backlogged++
		}
		for k := 0; k < c; k++ {
			arrived++
			if e.cfg.QueueCap > 0 && e.queues[i].len() >= e.cfg.QueueCap {
				dropped++
				continue
			}
			e.queues[i].push(slot)
			e.backlog++
		}
		e.weigh(i)
	}
	e.res.Arrived += arrived
	e.res.Dropped += dropped

	// 2. Select and solve. The selection masks/weights the greedy
	// pass on the full prepared field — equivalent to the legacy
	// backlogged sub-instance rebuild, minus the O(n²) rebuild.
	delivered, scheduled := int64(0), 0
	if e.backlog > 0 {
		sel := e.selection()
		s, err := e.solve(ctx, sel, e.active)
		if err != nil {
			ssp.End()
			return err
		}
		e.active = s.Active
		scheduled = len(e.active)

		// 3. Transmit with a live fading draw shared by the slot,
		// then deliver head-of-line packets on the successes.
		if len(e.active) > 0 {
			e.fade(slot)
			for k, i := range e.active {
				e.res.Attempts++
				if e.success[k] {
					arrivedAt := e.queues[i].pop()
					e.backlog--
					e.res.Delivered++
					delivered++
					d := float64(slot - arrivedAt + 1)
					e.res.Delay.Add(d)
					e.resv.add(d)
					e.weigh(i)
					if e.queues[i].len() == 0 {
						e.backlogged--
					}
				} else {
					e.res.FailedTx++
				}
			}
		}
	}
	e.res.PerSlotDelivered.Add(float64(delivered))

	// 4. Diagnostics.
	e.res.PerSlotBacklog.Add(float64(e.backlog))
	e.driftBuf[slot%len(e.driftBuf)] = e.backlog
	e.recordTrajectory(slot)
	if e.m != nil {
		e.m.slot(arrived, delivered, dropped, e.backlog)
	}
	if e.cfg.TraceWriter != nil {
		fmt.Fprintf(e.cfg.TraceWriter,
			"slot=%d arrived=%d scheduled=%d delivered=%d dropped=%d backlog=%d\n",
			slot, arrived, scheduled, delivered, dropped, e.backlog)
	}
	if ssp.Enabled() {
		ssp.SetInt("slot", int64(slot))
		ssp.SetInt("scheduled", int64(scheduled))
		ssp.SetInt("delivered", delivered)
		ssp.End()
	}
	e.slot++
	return nil
}

// weigh refreshes link i's selection entry from its queue length:
// the queue length (max-queue), queue × rate (max-weight), or whether
// it holds packets (backlog). Weights of 0 exclude idle links, so every
// policy is backlog-restricted.
func (e *Engine) weigh(i int) {
	q := e.queues[i].len()
	switch e.policy {
	case PolicyMaxQueue:
		e.weights[i] = float64(q)
	case PolicyMaxWeight:
		e.weights[i] = float64(q) * e.pr.Links.Rate(i)
	default: // PolicyBacklog
		e.mask[i] = q > 0
	}
}

// selection returns the slot's selection over the engine's mask or
// weights and adds the links it admits — the backlogged ones, since
// link rates are positive — to e.candidates.
func (e *Engine) selection() sched.Selection {
	e.candidates += e.backlogged
	if e.policy == PolicyBacklog {
		return sched.Selection{Mask: e.mask}
	}
	return sched.Selection{Weights: e.weights}
}

// transmit draws one fading realization shared by the slot and fills
// e.success, indexed like e.active. The draw order (receivers outer,
// senders inner) matches legacy simnet exactly, keeping old seeds
// reproducible. radio.RowOutcomeBounds first decides each receiver from
// those draws and the interferers' bracketed mean gains (no math.Pow);
// a row they leave undecided, or with a pair that cannot be bracketed,
// falls back to radio.RowOutcome over the exact means, which replays
// exactly the rows even those cannot certify.
func (e *Engine) transmit(slot int) {
	m := len(e.active)
	e.success = e.success[:m]
	if e.cfg.NoFading {
		for k := range e.success {
			e.success[k] = true
		}
		return
	}
	rng.StreamInto(&e.chSrc, e.cfg.Seed, "simnet-channel", uint64(slot))
	pr := e.pr
	n0, gammaTh := pr.Params.N0, pr.Params.GammaTh
	lo, hi, means := e.lo[:m], e.hi[:m], e.means[:m]
	for j, rj := range e.active {
		if e.bracketRow(j, lo, hi) {
			if v := radio.RowOutcomeBounds(&e.chSrc, lo, hi, j, n0, gammaTh); v != radio.RowUndecided {
				e.success[j] = v == radio.RowSuccess
				continue
			}
		}
		e.bracketMisses++
		for i, si := range e.active {
			means[i] = pr.Params.MeanGainP(pr.PowerOf(si), pr.Links.Dist(si, rj))
		}
		v, sig, den := radio.RowOutcome(&e.chSrc, means, j, n0, gammaTh)
		if v == radio.RowUndecided {
			e.exactRows++
			e.success[j] = den == 0 || sig/den >= gammaTh
		} else {
			e.success[j] = v == radio.RowSuccess
		}
	}
}

// bracketRow fills lo/hi with the mean gains of every active sender at
// the j-th active receiver: the signal's exact mean as both bounds, the
// interferers' bracketed. It reports false when α has no bracket tables
// or some pair cannot be bracketed.
func (e *Engine) bracketRow(j int, lo, hi []float64) bool {
	if e.bracket == nil {
		return false
	}
	pr, rj := e.pr, e.active[j]
	r := pr.Links.Link(rj).Receiver
	for i, si := range e.active {
		if i == j {
			sig := pr.Params.MeanGainP(pr.PowerOf(rj), pr.Links.Dist(rj, rj))
			lo[i], hi[i] = sig, sig
			continue
		}
		s := pr.Links.Link(si).Sender
		dx, dy := r.X-s.X, r.Y-s.Y
		l, h, ok := e.bracket.Bounds(pr.PowerOf(si), dx*dx+dy*dy)
		if !ok {
			return false
		}
		lo[i], hi[i] = l, h
	}
	return true
}

// residentRows reports the resident rows of pr's field when it is
// dense, 0 otherwise.
func residentRows(pr *sched.Problem) int {
	if d, ok := pr.Field().(*sched.DenseField); ok {
		return d.ResidentRows()
	}
	return 0
}

// recordTrajectory appends the end-of-slot backlog at the current
// stride; when the buffer fills it keeps every other point and doubles
// the stride, so any horizon fits in the configured cap.
func (e *Engine) recordTrajectory(slot int) {
	if slot%e.stride != 0 {
		return
	}
	if len(e.traj) == cap(e.traj) {
		k := 0
		for i := 0; i < len(e.traj); i += 2 {
			e.traj[k] = e.traj[i]
			k++
		}
		e.traj = e.traj[:k]
		e.stride *= 2
		if slot%e.stride != 0 {
			return
		}
	}
	e.traj = append(e.traj, TrajectoryPoint{Slot: slot, Backlog: e.backlog})
}

// drift returns the sliding-window backlog growth rate in
// packets/slot, using the last min(window, slots−1) slots.
func (e *Engine) drift() float64 {
	t := e.slot - 1
	if t <= 0 {
		return 0
	}
	w := min(len(e.driftBuf)-1, t)
	now := e.driftBuf[t%len(e.driftBuf)]
	then := e.driftBuf[(t-w)%len(e.driftBuf)]
	return float64(now-then) / float64(w)
}

// finish assembles the Result. The engine is spent afterwards.
func (e *Engine) finish(truncated bool) Result {
	if e.runSpan.Enabled() {
		e.runSpan.SetInt("delivered", e.res.Delivered)
		e.runSpan.SetInt("candidates", e.candidates)
		e.runSpan.SetInt("exact_rows", e.exactRows)
		// Rows the field gained during the run (solves sharing the
		// field concurrently count too), and rows whose bracketed
		// means fell back to exact ones.
		e.runSpan.Add("rows_filled", int64(residentRows(e.pr)-e.rows0))
		e.runSpan.Add("bracket_misses", e.bracketMisses)
		e.runSpan.End()
	}
	res := e.res
	res.Policy = string(e.policy)
	res.ArrivalProcess = e.cfg.Arrivals.Name()
	res.Slots = e.slot
	res.Truncated = truncated
	res.Backlog = e.backlog
	res.PerLinkBacklog = make([]int, e.n)
	for i := range e.queues {
		res.PerLinkBacklog[i] = e.queues[i].len()
	}
	res.Drift = e.drift()
	res.DelaySamples = append([]float64(nil), e.resv.sample()...)
	res.Trajectory = append([]TrajectoryPoint(nil), e.traj...)
	if e.m != nil {
		e.m.run(res)
	}
	return res
}

// engineMetrics is the obs wiring: totals accumulate across every
// engine sharing a registry (registration is idempotent), the gauge
// tracks the most recent slot, and the histograms observe one value
// per delivered-delay reservoir sample and one drift per run.
type engineMetrics struct {
	slots, arrivals, deliveries, drops *obs.Counter
	backlog                            *obs.Gauge
	drift                              *obs.Histogram
	delay                              *obs.Histogram
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		slots:      r.Counter("traffic_slots_total", "Simulated slots."),
		arrivals:   r.Counter("traffic_arrivals_total", "Packets arrived (including dropped)."),
		deliveries: r.Counter("traffic_deliveries_total", "Packets delivered."),
		drops:      r.Counter("traffic_drops_total", "Packets dropped at full queues."),
		backlog:    r.Gauge("traffic_backlog_packets", "End-of-slot total queued packets."),
		drift: r.Histogram("traffic_drift_packets_per_slot", "Per-run sliding-window backlog drift.",
			[]float64{-1, -0.1, -0.01, 0, 0.01, 0.1, 1, 10, 100}),
		delay: r.Histogram("traffic_delay_slots", "Delivered packet delay (reservoir-sampled).",
			[]float64{1, 2, 5, 10, 25, 50, 100, 250, 1000}),
	}
}

func (m *engineMetrics) slot(arrived, delivered, dropped, backlog int64) {
	m.slots.Inc()
	m.arrivals.Add(arrived)
	m.deliveries.Add(delivered)
	m.drops.Add(dropped)
	m.backlog.Set(backlog)
}

func (m *engineMetrics) run(res Result) {
	m.drift.Observe(res.Drift)
	for _, d := range res.DelaySamples {
		m.delay.Observe(d)
	}
}
