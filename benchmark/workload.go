package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/network"
	"repro/internal/server"
)

// sizes scales every workload: the benchmark runs fullSizes, the
// smoke test a toy copy.
type sizes struct {
	denseN, scaleN int // links per set on the dense and sparse classes
	scaleShards    int // greedy-sharded's tile count on the sparse class
	warmSets       int // solve-warm's resident sets (≤ schedd's prepared cache of 16)
	mcSlots        int // Monte-Carlo slots per solve_mc on the dense class
	scaleMCSlots   int // the same on the sparse class, where |A| is ~12× larger
	trafficSlots   int
	checkEvents    int     // events in a dense check session
	scaleEvents    int     // events in a sparse check session (each one rebuilds)
	coldWarmup     int     // solve-cold's set-up solves: enough to fill schedd's 16-entry prepared cache
	setups         int     // schedd start-ups per run; setup_s is their median
	windowScale    float64 // multiplies each workload's window inputs per second
}

var fullSizes = sizes{
	denseN: 2000, scaleN: 2500, scaleShards: 4, warmSets: 8,
	mcSlots: 200, scaleMCSlots: 4, trafficSlots: 200,
	checkEvents: 16, scaleEvents: 4, coldWarmup: 24, setups: 3,
	windowScale: 1,
}

// The six fading-aware algorithms of the solve-warm mix. The
// deterministic-model baselines (approxlogn, approxdiversity) are left
// out: their schedules are infeasible by design, and every response
// the benchmark accepts must be feasible.
var mixAlgorithms = []string{"rle", "ldp", "ldp-banded", "greedy", "greedy-sharded", "dls"}

// topo is a link-set class: its size and deployment density, and the
// field backend and path-loss exponent every request on it names
// explicitly, so a change of schedd's defaults cannot change a
// workload.
type topo struct {
	n      int
	region float64
	alpha  float64
	field  string
	cutoff float64
}

// paperTopo is the paper's §V deployment at n links and the paper's
// density: region side 500·√(n/300), α = 3, exact dense field.
func paperTopo(n int) topo {
	return topo{n: n, region: 500 * math.Sqrt(float64(n)/300), alpha: 3, field: "dense"}
}

// scaleTopo is the large sparse class: region side 20000·√(n/20000),
// α = 4.5, truncated field with cutoff 1e-7.
func scaleTopo(n int) topo {
	return topo{n: n, region: 20000 * math.Sqrt(float64(n)/20000), alpha: 4.5, field: "sparse", cutoff: 1e-7}
}

func (t topo) sparse() bool { return t.field == "sparse" }

// tilesPerQuadrant deployments are drawn for each quadrant of the
// region. A link set takes one tile from each quadrant, so the cold
// workloads get 16⁴ distinct paper-density sets out of 64 pre-encoded
// tiles and never repeat a topology, however fast schedd answers.
const tilesPerQuadrant = 16

// tiles holds the pre-encoded quadrant deployments of one class.
type tiles struct {
	t     topo
	links [4][][]network.Link
	js    [4][][]byte // each tile's links as JSON array elements, without brackets
	a, b  int         // the seeded bijection k ↦ (a·k + b) mod 16⁴ picking set k's tiles
	next  int         // sets handed out so far
}

func newTiles(t topo, seed uint64) (*tiles, error) {
	if t.n%4 != 0 {
		return nil, fmt.Errorf("set size %d is not a multiple of 4", t.n)
	}
	r := rand.New(rand.NewPCG(seed, 0x711e5))
	ts := &tiles{t: t, a: 2*r.IntN(1<<15) + 1, b: r.IntN(1 << 16)}
	half := t.region / 2
	cfg := network.PaperConfig(t.n / 4)
	cfg.Region = half
	for q := 0; q < 4; q++ {
		dx, dy := float64(q%2)*half, float64(q/2)*half
		for k := 0; k < tilesPerQuadrant; k++ {
			ls, err := network.Generate(cfg, seed, uint64(q*tilesPerQuadrant+k))
			if err != nil {
				return nil, err
			}
			links := ls.Links()
			for i := range links {
				links[i].Sender = links[i].Sender.Add(dx, dy)
				links[i].Receiver = links[i].Receiver.Add(dx, dy)
			}
			js, err := json.Marshal(links)
			if err != nil {
				return nil, err
			}
			ts.links[q] = append(ts.links[q], links)
			ts.js[q] = append(ts.js[q], js[1:len(js)-1])
		}
	}
	return ts, nil
}

// linkSet is one deployment, kept as the JSON fragments every request
// body on it splices in.
type linkSet struct {
	id    int
	tiles [4]int
	parts [][]byte // "[", tile 0, ",", tile 1, ",", tile 2, ",", tile 3, "]"
}

var (
	jsonOpen  = []byte("[")
	jsonComma = []byte(",")
	jsonClose = []byte("]")
)

// set hands out the next distinct set of the class.
func (ts *tiles) set() *linkSet {
	k := ts.next
	ts.next++
	idx := (ts.a*k + ts.b) & (1<<16 - 1)
	s := &linkSet{id: k, parts: [][]byte{jsonOpen}}
	for q := 0; q < 4; q++ {
		s.tiles[q] = idx >> (4 * q) & (tilesPerQuadrant - 1)
		if q > 0 {
			s.parts = append(s.parts, jsonComma)
		}
		s.parts = append(s.parts, ts.js[q][s.tiles[q]])
	}
	s.parts = append(s.parts, jsonClose)
	return s
}

// setLinks returns a copy of the set's links in wire order.
func (ts *tiles) setLinks(s *linkSet) []network.Link {
	out := make([]network.Link, 0, ts.t.n)
	for q := 0; q < 4; q++ {
		out = append(out, ts.links[q][s.tiles[q]]...)
	}
	return out
}

// item is one HTTP request of a workload.
type item struct {
	kind  string // solve, solve_mc, cache_hit, batch, traffic, session_create
	path  string
	set   *linkSet
	eps   []float64 // ε of each schedule in the response: success_prob must stay ≥ 1−ε
	parts [][]byte  // the body, with the set's links spliced in
	orig  *item     // cache_hit: the request it repeats byte for byte
}

// appendBody appends the assembled body to dst.
func (it *item) appendBody(dst []byte) []byte {
	for _, p := range it.parts {
		dst = append(dst, p...)
	}
	return dst
}

// newItem encodes req — a server request type whose links are left
// nil — and splices the set's links in where it reads "links":null.
func newItem(kind, path string, req any, set *linkSet, eps ...float64) *item {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	const key, hole = `"links":`, `"links":null`
	i := bytes.Index(b, []byte(hole))
	if i < 0 {
		panic(fmt.Sprintf("%T has no links field", req))
	}
	parts := [][]byte{b[:i+len(key)]}
	parts = append(parts, set.parts...)
	parts = append(parts, b[i+len(hole):])
	return &item{kind: kind, path: path, set: set, eps: eps, parts: parts}
}

// gen draws one workload's requests from the seed.
type gen struct {
	sz  sizes
	t   topo
	ts  *tiles
	r   *rand.Rand
	eps func() float64
}

func newGen(sz sizes, t topo, seed uint64) (*gen, error) {
	ts, err := newTiles(t, seed)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(seed, 0x91e0))
	// ε is drawn afresh for every request that should miss the response
	// cache, and for every session retune. On the sparse class the field
	// itself depends on ε, so that class keeps the paper's 0.01
	// throughout: a retune there re-derives the same parameters.
	eps := func() float64 { return 0.005 + 0.045*r.Float64() }
	if t.sparse() {
		eps = func() float64 { return 0.01 }
	}
	return &gen{sz: sz, t: t, ts: ts, r: r, eps: eps}, nil
}

func (g *gen) solveReq(alg string, eps float64) server.SolveRequest {
	return server.SolveRequest{
		Algorithm: alg, Alpha: g.t.alpha, GammaTh: 1, Eps: eps, Power: 1,
		Field: g.t.field, Cutoff: g.t.cutoff,
	}
}

func (g *gen) solve(set *linkSet, alg string, eps float64) *item {
	return newItem("solve", "/v1/solve", g.solveReq(alg, eps), set, eps)
}

// solveMC asks for Monte-Carlo validation of an RLE or LDP schedule.
func (g *gen) solveMC(set *linkSet) *item {
	q := g.solveReq([]string{"rle", "ldp"}[g.r.IntN(2)], g.eps())
	q.MCSlots, q.MCSeed = g.sz.mcSlots, g.r.Uint64()
	if g.t.sparse() {
		q.MCSlots = g.sz.scaleMCSlots
	}
	return newItem("solve_mc", "/v1/solve", q, set, q.Eps)
}

// batch solves several configs on one set: four of the six mix
// algorithms, each with its own ε, on the dense class; the three
// cheapest algorithms at the request's ε on the sparse class, where a
// per-config ε would rebuild the field per config and a greedy
// schedule's verify alone takes a second.
func (g *gen) batch(set *linkSet) *item {
	q := server.BatchRequest{
		Alpha: g.t.alpha, GammaTh: 1, Eps: 0.01, Power: 1,
		Field: g.t.field, Cutoff: g.t.cutoff,
	}
	var eps []float64
	if g.t.sparse() {
		for _, a := range []string{"rle", "ldp", "ldp-banded"} {
			q.Configs = append(q.Configs, server.BatchConfig{Algorithm: a})
			eps = append(eps, q.Eps)
		}
	} else {
		for _, k := range g.r.Perm(len(mixAlgorithms))[:4] {
			c := server.BatchConfig{Algorithm: mixAlgorithms[k], Eps: g.eps()}
			q.Configs = append(q.Configs, c)
			eps = append(eps, c.Eps)
		}
	}
	return newItem("batch", "/v1/solve/batch", q, set, eps...)
}

// traffic runs max-weight queueing under Bernoulli(0.01) arrivals.
func (g *gen) traffic(set *linkSet) *item {
	q := server.TrafficRequest{
		Alpha: g.t.alpha, GammaTh: 1, Eps: 0.01, Power: 1,
		Field: g.t.field, Cutoff: g.t.cutoff,
		Slots: g.sz.trafficSlots, Policy: "maxweight", Arrivals: "bernoulli", Rate: 0.01,
		Seed: g.r.Uint64(),
	}
	return newItem("traffic", "/v1/traffic", q, set)
}

// sessionPlan is one streaming session: its registration and the
// events it will send.
type sessionPlan struct {
	create *item
	events []event
}

// event is one pre-encoded event line and its type.
type event struct {
	typ  string
	line []byte
}

// session registers a session on a fresh set and draws one event of
// each of types, in order: geometry from the seed, tracking the link
// list so every event is valid when it arrives.
func (g *gen) session(alg string, types []string) *sessionPlan {
	set := g.ts.set()
	q := server.SessionRequest{
		Algorithm: alg, Alpha: g.t.alpha, GammaTh: 1, Eps: 0.01, Power: 1,
		Field: g.t.field, Cutoff: g.t.cutoff,
	}
	m := mover{links: g.ts.setLinks(set), region: g.t.region, r: g.r, eps: g.eps}
	sp := &sessionPlan{create: newItem("session_create", "/v1/session", q, set, q.Eps)}
	for _, typ := range types {
		sp.events = append(sp.events, event{typ: typ, line: m.event(typ)})
	}
	return sp
}

// checkEvents returns n event types holding every type — one add, one
// remove, one retune, the rest moves — in seeded order.
func (g *gen) checkEvents(n int) []string {
	types := []string{network.EventAdd, network.EventRemove, network.EventRetune}
	for len(types) < n {
		types = append(types, network.EventMove)
	}
	types = types[:n]
	g.r.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
	return types
}

// mover tracks a session's link list while its events are drawn.
type mover struct {
	links  []network.Link
	region float64
	r      *rand.Rand
	eps    func() float64 // a retune's new ε
}

// event draws one event of type typ and applies it to the tracked
// links. A move translates both endpoints of one link by the same
// displacement of at most 10 units, reflected at the region's border
// so the density stays the paper's; an added link is drawn like a
// paper deployment link.
func (m *mover) event(typ string) []byte {
	ev := network.SessionEvent{V: network.SessionWireVersion, Type: typ}
	n := len(m.links)
	switch typ {
	case network.EventMove:
		i := m.r.IntN(n)
		rad, ang := 10*math.Sqrt(m.r.Float64()), 2*math.Pi*m.r.Float64()
		dx, dy := rad*math.Cos(ang), rad*math.Sin(ang)
		l := m.links[i]
		if x := l.Sender.X + dx; x < 0 || x > m.region {
			dx = -dx
		}
		if y := l.Sender.Y + dy; y < 0 || y > m.region {
			dy = -dy
		}
		l.Sender, l.Receiver = l.Sender.Add(dx, dy), l.Receiver.Add(dx, dy)
		m.links[i] = l
		ev.Link, ev.Sender, ev.Receiver = i, &l.Sender, &l.Receiver
	case network.EventRetune:
		ev.Eps = m.eps()
	case network.EventAdd:
		l := m.randomLink()
		m.links = append(m.links, l)
		ev.Add = &l
	case network.EventRemove:
		i := m.r.IntN(n)
		m.links = append(m.links[:i], m.links[i+1:]...)
		ev.Link = i
	}
	b, err := json.Marshal(ev)
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

func (m *mover) randomLink() network.Link {
	var l network.Link
	l.Sender.X, l.Sender.Y = m.r.Float64()*m.region, m.r.Float64()*m.region
	length, ang := 5+15*m.r.Float64(), 2*math.Pi*m.r.Float64()
	l.Receiver = l.Sender.Add(length*math.Cos(ang), length*math.Sin(ang))
	l.Rate = 1
	return l
}

// plan is one workload's inputs, all drawn from the seed before schedd
// starts.
type plan struct {
	warmup       []*item    // set-up requests, sent once schedd listens
	primed       []*linkSet // sets whose fields the window finds resident
	window       []*item    // the closed-loop request stream
	check        []*item    // sent one at a time after the window, then replayed
	checkSession *sessionPlan
}

// probe completes a check set with the requests every workload's check
// set carries, whatever its window sends: a Monte-Carlo solve, a
// batch, a traffic run and an event session on the workload's own
// link-set class. Every layer is then replayed, and its self time
// measured, on every workload.
func (g *gen) probe(p *plan, set func() *linkSet, alg string, events int) {
	p.check = append(p.check, g.solveMC(set()), g.batch(set()), g.traffic(set()))
	p.checkSession = g.session(alg, g.checkEvents(events))
}

// repeat is a byte-identical copy of an earlier request.
func repeat(orig *item) *item {
	return &item{kind: "cache_hit", path: orig.path, set: orig.set, eps: orig.eps, parts: orig.parts, orig: orig}
}

var coldAlgorithms = []string{"rle", "ldp", "greedy"}

// coldPlan: every request solves a set schedd has never seen, cycling
// RLE, LDP and greedy. Set-up sends the same kind of requests until
// schedd's prepared cache is full and evicting, its steady state.
func coldPlan(g *gen, window int) *plan {
	p := &plan{}
	for k := 0; k < g.sz.coldWarmup; k++ {
		p.warmup = append(p.warmup, g.solve(g.ts.set(), coldAlgorithms[k%len(coldAlgorithms)], 0.01))
	}
	for k := 0; k < window; k++ {
		p.window = append(p.window, g.solve(g.ts.set(), coldAlgorithms[k%len(coldAlgorithms)], 0.01))
	}
	for _, a := range coldAlgorithms {
		p.check = append(p.check, g.solve(g.ts.set(), a, 0.01))
	}
	g.probe(p, g.ts.set, "greedy", g.sz.checkEvents)
	return p
}

// warmPlan: a seeded mix over sets primed in set-up. Each block of
// eight requests holds four plain solves (a random mix algorithm, a
// fresh ε), one exact repeat of a plain solve from two blocks back (a
// response-cache hit), one Monte-Carlo solve, one batch and one
// traffic run, in seeded order. Set-up primes every set, then sends
// the first two blocks.
func warmPlan(g *gen, window int) *plan {
	p := &plan{}
	for i := 0; i < g.sz.warmSets; i++ {
		set := g.ts.set()
		p.primed = append(p.primed, set)
		p.warmup = append(p.warmup, g.solve(set, "rle", 0.01))
	}
	pick := func() *linkSet { return p.primed[g.r.IntN(len(p.primed))] }
	plain := func() *item { return g.solve(pick(), mixAlgorithms[g.r.IntN(len(mixAlgorithms))], g.eps()) }
	older, last := p.warmup, p.warmup
	for blocks := 0; len(p.window) < window; blocks++ {
		block := []*item{plain(), plain(), plain(), plain()}
		block = append(block, repeat(older[g.r.IntN(len(older))]), g.solveMC(pick()), g.batch(pick()), g.traffic(pick()))
		older, last = last, append([]*item(nil), block[:4]...)
		g.r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		if blocks < 2 {
			p.warmup = append(p.warmup, block...)
		} else {
			p.window = append(p.window, block...)
		}
	}
	// The check set doubles the mix so each kind's replayed layer time,
	// which server.residual.ms subtracts, averages two requests.
	for _, a := range append(mixAlgorithms, mixAlgorithms...) {
		p.check = append(p.check, g.solve(pick(), a, g.eps()))
	}
	p.check = append(p.check, repeat(p.check[0]), repeat(p.check[1]), g.solveMC(pick()), g.batch(pick()), g.traffic(pick()))
	g.probe(p, pick, "greedy", g.sz.checkEvents)
	return p
}

// sharded is a greedy-sharded solve at the class's fixed tile count:
// schedd's auto-sizing would solve a set this small as one tile.
func (g *gen) sharded(set *linkSet) *item {
	q := g.solveReq("greedy-sharded", 0.01)
	q.Shards = g.sz.scaleShards
	return newItem("solve", "/v1/solve", q, set, q.Eps)
}

// scalePlan: every request is a sharded greedy solve of a fresh sparse
// set.
func scalePlan(g *gen, window int) *plan {
	p := &plan{warmup: []*item{g.sharded(g.ts.set())}}
	for k := 0; k < window; k++ {
		p.window = append(p.window, g.sharded(g.ts.set()))
	}
	for k := 0; k < 2; k++ {
		p.check = append(p.check, g.sharded(g.ts.set()))
	}
	g.probe(p, g.ts.set, "rle", g.sz.scaleEvents)
	return p
}
