package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/stats"
)

// workload is one closed-loop load on schedd and its check set.
type workload struct {
	name string
	tail float64 // the percentile reported as latency_tail_ms
	// rate is how many window inputs are drawn per second of window:
	// several times what schedd sustains, so the window never runs dry.
	rate float64
	topo func(sizes) topo
	plan func(g *gen, window int) *plan
}

func denseClass(sz sizes) topo { return paperTopo(sz.denseN) }
func scaleClass(sz sizes) topo { return scaleTopo(sz.scaleN) }

// Each tail percentile has at least twenty samples beyond it in a 35 s
// window on a 2-core machine. solve-warm's p99 falls inside the
// traffic runs' latency mode and moved 8–17% between runs, so it
// reports p90.
var workloads = []workload{
	{name: "solve-cold", tail: 90, rate: 150, topo: denseClass, plan: coldPlan},
	{name: "solve-warm", tail: 90, rate: 400, topo: denseClass, plan: warmPlan},
	{name: "solve-scale", tail: 75, rate: 20, topo: scaleClass, plan: scalePlan},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd and perLayer are the metrics a -trace 0 and a -trace 1 run
// report; BENCHMARK.json names the same lists.
var endToEnd = []string{"ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}

// timedLayers are the replay's span names; each is reported as
// <name>.ms, its mean self time per call.
var timedLayers = []string{
	"server.decode", "server.encode", "network.linkset",
	"sched.field_build", "sched.derive", "sched.solve", "sched.verify", "sched.session_solve",
	"mc.simulate", "traffic.run", "mobility.move", "mobility.rebuild", "mobility.retune",
}

var perLayer = append(layerNames(timedLayers),
	"server.decode.bytes", "server.residual.ms", "server.gc_pause_ms",
	"server.cache.hit_ratio", "server.cache.lookups",
	"server.prepared.hit_ratio", "server.prepared.lookups",
	"server.prepared.builds", "server.prepared.evictions",
	"sched.field_build.factor_evals", "sched.field_build.bytes",
	"sched.solve.admitted", "sched.solve.rejected", "sched.solve.admit_ratio",
	"sched.solve.tiles", "sched.solve.boundary_repairs",
	"sched.verify.factor_reads", "mc.simulate.link_slots", "traffic.run.slots_per_s",
	"mobility.rebind_ratio", "trace.overhead_pct",
	"utility_mean", "expected_failures_mean",
)

func layerNames(spans []string) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s + ".ms"
	}
	return out
}

// runWorkload measures one workload: set-up (timed, repeated), the
// window, the check set, then the replay. It returns the report and,
// when the replay was traced, its spans.
func runWorkload(ctx context.Context, bin string, w workload, o options, sz sizes, log io.Writer) (*report, *tracer, error) {
	t := w.topo(sz)
	g, err := newGen(sz, t, o.seed)
	if err != nil {
		return nil, nil, err
	}
	p := w.plan(g, int(math.Ceil(w.rate*sz.windowScale*float64(o.seconds))))
	ctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds)*time.Second+2*time.Minute)
	defer cancel()
	c := newClient()
	defer c.CloseIdleConnections()

	var d *daemon
	release := func() error {
		if d == nil {
			return nil
		}
		err := d.stop()
		d = nil
		return err
	}
	defer release()

	// Set-up runs sz.setups times on fresh daemons, so setup_s is a
	// median; the last daemon stays up for the window.
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if i > 0 {
			if err := release(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(bin); err != nil {
			return nil, nil, err
		}
		if err := warm(ctx, c, d.base, p.warmup, t.n); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	before, err := d.scrape(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	win, elapsed, err := drive(ctx, c, d.base, p.window, t.n, time.Now().Add(time.Duration(o.seconds)*time.Second))
	if err != nil {
		return nil, nil, fmt.Errorf("window: %w", err)
	}
	if win.ok == 0 {
		return nil, nil, fmt.Errorf("window: no request succeeded: %v", win.msgs)
	}
	after, err := d.scrape(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, nil, err
	}

	bodies, chk := sendEach(ctx, c, d.base, p.check, t.n)
	sr, err := runCheckSession(ctx, c, d.base, p.checkSession, t.n, chk)
	if err != nil {
		return nil, nil, fmt.Errorf("check session: %w", err)
	}
	if err := release(); err != nil {
		return nil, nil, err
	}
	var check []checked
	for i, it := range p.check {
		if bodies[i] != nil {
			check = append(check, checked{it: it, body: bodies[i]})
		}
	}

	rep := &report{Workload: w.name, Metrics: make(map[string]metric)}
	rep.Attempted = win.attempted + chk.attempted
	var failed failures
	failed.merge(win.failures)
	failed.merge(chk.failures)

	// The replay runs with schedd stopped. Its untraced pass checks the
	// answers. When per-layer metrics are wanted a traced pass follows,
	// then a second untraced one: the traced time over the untraced
	// mean is the tracing overhead.
	replayPass := func(traced bool) (*replay, time.Duration) {
		t0 := time.Now()
		r := runReplay(ctx, traced, g.ts, p.primed, check, sr)
		failed.merge(r.failures)
		return r, time.Since(t0)
	}
	plain, plainTime := replayPass(false)
	var traced *replay
	var tracedTime, againTime time.Duration
	if o.trace != 0 || o.traceOut != "" {
		traced, tracedTime = replayPass(true)
		_, againTime = replayPass(false)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rep.Failed, rep.Errors = failed.n, failed.msgs
	rep.Correct = rep.Failed == 0
	set := func(name string, v float64, unit string, n int) {
		rep.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
	}

	var lat []float64
	for _, l := range win.lat {
		lat = append(lat, l...)
	}
	q := stats.Quantiles(lat, 0.5, w.tail/100)
	set("ops_per_s", float64(win.ok)/elapsed.Seconds(), "1/s", win.ok)
	set("latency_p50_ms", q[0], "ms", len(lat))
	set("latency_tail_ms", q[1], "ms", len(lat))
	set("setup_s", stats.Quantile(setups, 0.5), "s", len(setups))
	set("peak_rss_mb", rss, "MiB", 1)
	set("utility_mean", average(plain.utility), "sum_lambda", len(plain.utility))
	set("expected_failures_mean", average(plain.expected), "failures/slot", len(plain.expected))
	set("error_rate", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio", rep.Attempted)
	for kind, l := range win.lat {
		set("server.kind."+kind+".p50_ms", stats.Quantile(l, 0.5), "ms", len(l))
	}
	fmt.Fprintf(log, "   (%s: window %.1fs, set-ups %.3f s, replay %.2fs untraced / %.2fs traced)\n",
		w.name, elapsed.Seconds(), setups, plainTime.Seconds(), tracedTime.Seconds())

	if traced == nil {
		return rep, nil, nil
	}
	layerMetrics(rep, traced, win, chk, before, after)
	set("trace.overhead_pct", 100*(2*tracedTime.Seconds()/(plainTime+againTime).Seconds()-1), "%", 1)
	return rep, traced.tr, nil
}

// warm sends one set-up's warm-up requests; every one must succeed.
func warm(ctx context.Context, c *http.Client, base string, items []*item, n int) error {
	t, _, err := drive(ctx, c, base, items, n, time.Time{})
	if err != nil {
		return err
	}
	if t.n > 0 {
		return errors.New(strings.Join(t.msgs, "; "))
	}
	return nil
}

// runCheckSession registers the check session and streams its events,
// keeping every answer for the replay.
func runCheckSession(ctx context.Context, c *http.Client, base string, sp *sessionPlan, n int, t *tally) (sessionRun, error) {
	sr := sessionRun{plan: sp}
	t.attempted++
	id, created, err := createSession(ctx, c, base, sp.create, n)
	if err != nil {
		t.fail("%v", err)
		return sr, err
	}
	t.ok++
	sr.created = created
	s, err := openStream(ctx, c, base, id)
	if err != nil {
		return sr, err
	}
	defer s.close()
	for _, ev := range sp.events {
		t.attempted++
		delta, err := s.send(ev.line)
		if err != nil {
			t.fail("check event: %v", err)
			return sr, err
		}
		t.ok++
		sr.deltas = append(sr.deltas, delta)
	}
	return sr, nil
}

// layerMetrics adds the per-layer metrics: self times and work counts
// from the traced replay, cache and GC counters from schedd's /metrics
// over the window, and solver counters from the answers' stats.
func layerMetrics(rep *report, r *replay, win, chk *tally, before, after map[string]float64) {
	set := func(name string, v float64, unit string, n int) {
		rep.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
	}
	prof, inner := r.tr.profile()
	for _, name := range timedLayers {
		l := prof[name]
		set(name+".ms", l.meanMS(), "ms", l.calls)
	}
	for name, l := range prof {
		if alg, ok := strings.CutPrefix(name, "sched.solve."); ok {
			set("sched.solve."+alg+".ms", l.meanMS(), "ms", l.calls)
		}
	}
	for name, unit := range map[string]string{
		"server.decode.bytes":            "bytes",
		"sched.field_build.factor_evals": "count",
		"sched.field_build.bytes":        "bytes",
		"sched.verify.factor_reads":      "count",
		"mc.simulate.link_slots":         "count",
	} {
		m := r.work[name]
		set(name, m.value(), unit, m.count())
	}
	slots := r.work["traffic.run.slots"]
	set("traffic.run.slots_per_s", ratio(slots.total(), prof["traffic.run"].self.Seconds()), "1/s", slots.count())
	set("mobility.rebind_ratio", ratio(float64(r.rebinds), float64(r.events)), "ratio", int(r.events))

	// Residual: for each request kind of the window, its mean latency
	// there minus the mean time its replayed requests spent inside
	// layers, weighted by the kind's share of the window.
	inLayers := make(means)
	for i, s := range r.tr.spans {
		if s.parent < 0 {
			inLayers.add(s.name, inner[i].Seconds()*1e3)
		}
	}
	var resid, weight float64
	for kind, l := range win.lat {
		if m := inLayers[kind]; m != nil {
			resid += float64(len(l)) * (average(l) - m.value())
			weight += float64(len(l))
		}
	}
	set("server.residual.ms", ratio(resid, weight), "ms", int(weight))

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("schedd_cache_hits_total"), delta("schedd_cache_misses_total")
	set("server.cache.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	set("server.cache.lookups", hits+misses, "count", 1)
	hits, misses = delta("schedd_prepared_cache_hits_total"), delta("schedd_prepared_cache_misses_total")
	set("server.prepared.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	set("server.prepared.lookups", hits+misses, "count", 1)
	set("server.prepared.builds", delta("schedd_prepared_builds_total"), "count", 1)
	set("server.prepared.evictions", delta("schedd_prepared_cache_evictions_total"), "count", 1)
	set("server.gc_pause_ms", 1e3*delta("schedd_gc_pause_seconds_total"), "ms", 1)

	counters := make(means)
	counters.merge(win.counters)
	counters.merge(chk.counters)
	for _, k := range solverCounters {
		set("sched.solve."+k, counters[k].value(), "count", counters[k].count())
	}
	adm, rej := counters["admitted"].total(), counters["rejected"].total()
	set("sched.solve.admit_ratio", ratio(adm, adm+rej), "ratio", counters["admitted"].count())
}

// failures counts failed operations and keeps the first few messages.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) fail(format string, args ...any) {
	f.n++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	for _, m := range o.msgs {
		if len(f.msgs) < 8 {
			f.msgs = append(f.msgs, m)
		}
	}
}

// mean is a running average.
type mean struct {
	sum float64
	n   int
}

// The accessors read 0 from a nil *mean: nothing was measured.
func (m *mean) value() float64 {
	if m == nil {
		return 0
	}
	return ratio(m.sum, float64(m.n))
}

func (m *mean) total() float64 {
	if m == nil {
		return 0
	}
	return m.sum
}

func (m *mean) count() int {
	if m == nil {
		return 0
	}
	return m.n
}

// means holds running averages by name.
type means map[string]*mean

func (ms means) add(name string, v float64) {
	m := ms[name]
	if m == nil {
		m = new(mean)
		ms[name] = m
	}
	m.sum += v
	m.n++
}

func (ms means) merge(o means) {
	for name, m := range o {
		if ms[name] == nil {
			ms[name] = new(mean)
		}
		ms[name].sum += m.sum
		ms[name].n += m.n
	}
}

func average(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, and 0 when b is 0 (nothing was measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
