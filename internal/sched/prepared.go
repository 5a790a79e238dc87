package sched

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
)

// Prepared is a reusable solve handle: one built interference field
// plus everything the solvers can share across repeated runs on the
// same link set — a sync.Pool of per-solve Scratch workspaces and a
// set of immutable geometry caches (rule-1 sender indexes keyed by
// cell side, the median link length, sender positions, and the greedy
// and elimination pick orders). The field is
// the expensive part of a solve: a dense field fills a sender's factor
// row the first time any solve on the handle reads it, so later solves
// pay only for rows nobody has read yet. Once those are resident,
// running an algorithm costs only the algorithm itself, and the
// scratch-pooled hot path (ScheduleInto) allocates nothing in steady
// state.
//
// A Prepared is safe for concurrent use: each solve checks a private
// Scratch out of the pool, and the shared caches are immutable once
// published. The one exception is Problem.Rebind (mobility): rebinding
// mutates the field in place and must not race in-flight solves —
// callers serialize rebinds against solves exactly as they already
// must for Problem itself. After a rebind the geometry caches refresh
// lazily via the problem's generation counter.
type Prepared struct {
	pr     *Problem
	pool   *sync.Pool
	shared *preparedShared
}

// Prepare validates parameters, builds the interference field, and
// wraps the problem in a reusable solve handle. It is
// NewProblem + NewPrepared.
func Prepare(ls *network.LinkSet, p radio.Params, opts ...Option) (*Prepared, error) {
	return PrepareContext(context.Background(), ls, p, opts...)
}

// PrepareContext is Prepare under a context: when ctx carries a trace
// span the field construction is recorded in the request's trace
// (see NewProblemContext).
func PrepareContext(ctx context.Context, ls *network.LinkSet, p radio.Params, opts ...Option) (*Prepared, error) {
	pr, err := NewProblemContext(ctx, ls, p, opts...)
	if err != nil {
		return nil, err
	}
	return NewPrepared(pr), nil
}

// NewPrepared wraps an existing problem in a solve handle. The problem
// remains usable directly; the handle adds scratch pooling and
// geometry caches on top without copying the field.
func NewPrepared(pr *Problem) *Prepared {
	return &Prepared{
		pr:     pr,
		pool:   &sync.Pool{New: func() any { return new(Scratch) }},
		shared: &preparedShared{},
	}
}

// Problem returns the underlying problem.
func (pp *Prepared) Problem() *Problem { return pp.pr }

// Derive returns a handle for the same links and interference field
// under different channel parameters, sharing this handle's scratch
// pool and geometry caches. It is how one built field serves many ε
// configurations: the factor matrix depends only on (α, γ_th, P, N0),
// never on ε — ε enters solely through the budget γ_ε the algorithms
// compare accumulated factors against — so any ε-variant problem reads
// the identical field. Derive rejects parameters the field was not
// built for (see Problem.FieldCompatible).
//
// Derived handles must not be mixed with Rebind: rebinding patches the
// shared field through one problem while the others keep their old
// link sets.
func (pp *Prepared) Derive(p radio.Params) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid radio params: %w", err)
	}
	if p == pp.pr.Params {
		return pp, nil
	}
	if !pp.pr.FieldCompatible(p) {
		return nil, fmt.Errorf("sched: params not field-compatible (field %q built for α=%v γ_th=%v P=%v N0=%v ε=%v)",
			pp.pr.fieldName, pp.pr.Params.Alpha, pp.pr.Params.GammaTh, pp.pr.Params.Power, pp.pr.Params.N0, pp.pr.Params.Eps)
	}
	pr := &Problem{
		Links: pp.pr.Links, Params: p, n: pp.pr.n,
		field: pp.pr.field, build: pp.pr.build, fieldName: pp.pr.fieldName,
		gen: pp.pr.gen,
	}
	return &Prepared{pr: pr, pool: pp.pool, shared: pp.shared}, nil
}

// Schedule runs a on the prepared problem with pooled scratch. It is
// ScheduleContext under a background context.
func (pp *Prepared) Schedule(a Algorithm) Schedule {
	s, _ := pp.ScheduleContext(context.Background(), a) // Background never cancels
	return s
}

// ScheduleContext runs a on the prepared problem under ctx with pooled
// scratch; the package-level ScheduleContext is this on a one-shot
// handle. The returned schedule owns a freshly allocated active set;
// use ScheduleInto to recycle one.
func (pp *Prepared) ScheduleContext(ctx context.Context, a Algorithm) (Schedule, error) {
	return pp.ScheduleInto(ctx, a, nil)
}

// ScheduleInto is ScheduleContext with a caller-provided result
// buffer: the schedule's active set is written into dst[:0] (grown
// only if capacity is short). Reusing the previous solve's Active as
// dst makes the steady-state greedy/RLE solve path allocation-free.
func (pp *Prepared) ScheduleInto(ctx context.Context, a Algorithm, dst []int) (Schedule, error) {
	scr := pp.getScratch()
	defer pp.putScratch(scr)
	return scheduleWith(ctx, a, pp.pr, scr, dst)
}

// ScheduleWeightedInto runs the selection-aware greedy pass on the
// prepared problem: sel.Mask restricts the candidate links, and
// sel.Weights (queue lengths, say) overrides the pick order so
// longest-queue-first is exact rather than a post-hoc sort. The zero
// Selection reproduces Greedy bit-for-bit. Like ScheduleInto it writes
// the active set into dst[:0] and allocates nothing in steady state;
// it is the per-slot inner loop of the traffic engine.
func (pp *Prepared) ScheduleWeightedInto(ctx context.Context, sel Selection, dst []int) (Schedule, error) {
	if err := ctx.Err(); err != nil {
		return Schedule{}, err
	}
	if err := sel.validate(pp.pr.N()); err != nil {
		return Schedule{}, err
	}
	scr := pp.getScratch()
	defer pp.putScratch(scr)
	// A traffic run calls this once per slot, so it records no spans:
	// the caller's trace carries the run, not its thousands of solves.
	s := Greedy{}.scheduleRestricted(pp.pr, scr, sel, obs.Span{}, dst)
	if err := ctx.Err(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// SolveContext runs a registered algorithm by name on the prepared
// problem; the package-level SolveContext is this on a one-shot handle.
func (pp *Prepared) SolveContext(ctx context.Context, name string) (Schedule, error) {
	a, ok := Lookup(name)
	if !ok {
		return Schedule{}, fmt.Errorf("sched: unknown algorithm %q (have %v)", name, Names())
	}
	return pp.ScheduleInto(ctx, a, nil)
}

func (pp *Prepared) getScratch() *Scratch {
	scr := pp.pool.Get().(*Scratch)
	scr.pp = pp
	return scr
}

func (pp *Prepared) putScratch(scr *Scratch) {
	scr.pp = nil
	pp.pool.Put(scr)
}

// FieldCompatible reports whether a problem under params q would read
// this problem's interference field unchanged. The stored factors,
// noise terms, and powers derive from (α, γ_th, P, N0) only, so those
// must match; ε is free on the dense backend. Non-dense backends
// additionally pin ε because their truncation cutoff may derive from
// γ_ε (the sparse default is a fraction of the budget), which would
// change which pairs were stored.
func (pr *Problem) FieldCompatible(q radio.Params) bool {
	p := pr.Params
	if p.Alpha != q.Alpha || p.GammaTh != q.GammaTh || p.Power != q.Power || p.N0 != q.N0 {
		return false
	}
	if pr.fieldName != "dense" && p.Eps != q.Eps {
		return false
	}
	return true
}

// preparedShared holds the immutable geometry caches solve scratches
// read through: sender positions, the median link length, rule-1
// spatial indexes keyed by grid cell side, and the pick orders no ε
// changes (pickKind). Values are computed once
// per problem generation (Rebind bumps the generation) and shared by
// every Scratch of the handle — a published *geom.Index is never
// mutated, so concurrent solves read it lock-free after the map
// lookup.
type preparedShared struct {
	mu       sync.Mutex
	gen      uint64
	genValid bool
	senders  []geom.Point
	recvs    []geom.Point
	medLen   float64
	medValid bool
	indexes  map[float64]*geom.Index
	orders   [numPickKinds][]int
}

// syncGen drops every cache when pr's geometry generation moved.
// Callers hold mu. Buffers are released rather than truncated so an
// index still held by a concurrent reader keeps consistent points.
func (sh *preparedShared) syncGen(pr *Problem) {
	if sh.genValid && sh.gen == pr.gen {
		return
	}
	sh.gen, sh.genValid = pr.gen, true
	sh.senders = nil
	sh.recvs = nil
	sh.medValid = false
	sh.indexes = nil
	sh.orders = [numPickKinds][]int{}
}

func (sh *preparedShared) sendersFor(pr *Problem) []geom.Point {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.syncGen(pr)
	return sh.sendersLocked(pr)
}

func (sh *preparedShared) sendersLocked(pr *Problem) []geom.Point {
	if sh.senders == nil {
		sh.senders = pr.Links.Senders()
	}
	return sh.senders
}

func (sh *preparedShared) receiversFor(pr *Problem) []geom.Point {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.syncGen(pr)
	if sh.recvs == nil {
		sh.recvs = pr.Links.Receivers()
	}
	return sh.recvs
}

func (sh *preparedShared) medianLength(pr *Problem) float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.syncGen(pr)
	if !sh.medValid {
		n := pr.N()
		lens := make([]float64, n)
		for i := 0; i < n; i++ {
			lens[i] = pr.Links.Length(i)
		}
		sh.medLen = mathx.Median(lens)
		sh.medValid = true
	}
	return sh.medLen
}

// pickOrder returns pr's pick order of the given kind, sorted on first
// use per generation by the kind's sort (pickSorts) into scr — the
// calling solve's scratch — and copied out once, so a rebind costs one
// n-slice per kind. Every solve on the handle and on its Derive'd ε
// siblings reads the published slice and never writes it.
func (sh *preparedShared) pickOrder(pr *Problem, kind pickKind, scr *Scratch) []int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.syncGen(pr)
	if sh.orders[kind] == nil {
		o := pickSorts[kind](pr, scr)
		sh.orders[kind] = append(make([]int, 0, len(o)), o...)
	}
	return sh.orders[kind]
}

func (sh *preparedShared) senderIndex(pr *Problem, side float64) *geom.Index {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.syncGen(pr)
	if idx, ok := sh.indexes[side]; ok {
		return idx
	}
	idx := geom.NewIndex(sh.sendersLocked(pr), side)
	if sh.indexes == nil {
		sh.indexes = make(map[float64]*geom.Index, 2)
	}
	sh.indexes[side] = idx
	return idx
}
