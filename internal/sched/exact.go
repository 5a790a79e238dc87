package sched

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Exact solves Fading-R-LS to optimality by parallel branch-and-bound
// over the ILP of Eqs. 20–22. It is exponential in the worst case and
// intended for the small instances (N ≲ 24) used to measure empirical
// approximation ratios of the polynomial algorithms.
//
// Soundness of the pruning rests on the downward-closure of
// feasibility: adding a sender only raises interference at every
// receiver and adds a constraint, so an infeasible partial set cannot
// become feasible again, and the subtree below it is cut. The bound is
// the rate of the current set plus all undecided rates.
type Exact struct {
	// MaxN caps the instance size the solver will attempt; larger
	// problems panic rather than silently running for hours. Zero
	// means DefaultExactMaxN.
	MaxN int
	// SplitDepth is the number of leading decision levels expanded
	// into parallel subtree tasks (2^SplitDepth tasks). Zero means 4.
	SplitDepth int
}

// DefaultExactMaxN bounds Exact instance sizes (2^26 nodes worst case
// before pruning — safely interactive; raise MaxN deliberately for
// bigger hunts).
const DefaultExactMaxN = 26

// Name implements Algorithm.
func (Exact) Name() string { return "exact" }

// Schedule implements Algorithm.
func (e Exact) Schedule(pr *Problem) Schedule { return schedule(e, pr) }

// solve implements solver: the branch-and-bound workers poll a shared
// stop flag raised when ctx is canceled, so an abandoned request stops
// burning cores within a few thousand nodes (microseconds). On
// cancellation the incumbent is discarded — a partially explored tree
// carries no optimality certificate — and ctx.Err() is returned.
// Phases "prep" (counting subtree tasks) and "search" (the search
// counters).
func (e Exact) solve(ctx context.Context, pr *Problem, _ *Scratch, dst []int) (Schedule, error) {
	maxN := e.MaxN
	if maxN == 0 {
		maxN = DefaultExactMaxN
	}
	if pr.N() > maxN {
		panic("sched: Exact solver refused instance larger than MaxN; use the approximation algorithms")
	}
	best, err := exactSolve(ctx, pr, e.splitDepth(pr.N()), obs.SpanFrom(ctx))
	if err != nil {
		return Schedule{}, err
	}
	return finishSchedule(e.Name(), best, dst), nil
}

func (e Exact) splitDepth(n int) int {
	d := e.SplitDepth
	if d == 0 {
		d = 4
	}
	if d > n {
		d = n
	}
	return d
}

// exactState is the shared search state: the incumbent value/set under
// a mutex. Reads on the hot path take the mutex too — contention is
// negligible next to the node work, and it keeps the code obviously
// correct.
type exactState struct {
	mu       sync.Mutex
	bestRate float64
	bestSet  []int
	// bestTask is the subtree task that offered the incumbent (-1 for
	// the greedy seed). Equal-rate optima are common (unit rates), and
	// the tasks race, so ties go to the seed, then to the lowest task
	// index: the answer must not depend on goroutine scheduling.
	bestTask int
	// Search counters for the search span, aggregated under mu from each
	// subtree task's local dfsCounters when the task finishes — the
	// per-node hot path touches only task-local ints.
	nodes, cutoffs, infeasible, offers int64
	// stop is raised when the caller's context is canceled; dfs polls
	// it once per node (an atomic load, negligible next to the node's
	// feasibility work) and unwinds.
	stop atomic.Bool
}

// dfsCounters accumulates one subtree task's search statistics without
// any synchronization; the owning goroutine folds them into exactState
// once when its subtree is exhausted.
type dfsCounters struct {
	nodes      int64 // dfs invocations (tree nodes visited)
	cutoffs    int64 // subtrees cut by the additive rate bound
	infeasible int64 // include branches refused by tryInclude
}

func (st *exactState) addCounters(c dfsCounters) {
	st.mu.Lock()
	st.nodes += c.nodes
	st.cutoffs += c.cutoffs
	st.infeasible += c.infeasible
	st.mu.Unlock()
}

// exactTieTol is the rate slack within which two sets tie.
const exactTieTol = 1e-12

// improves reports whether a set of the given rate from task would
// replace the incumbent: a strictly higher rate, or a tie from a task
// that precedes the incumbent's. Called with st.mu held.
func (st *exactState) improves(rate float64, task int) bool {
	return rate > st.bestRate+exactTieTol ||
		(rate >= st.bestRate-exactTieTol && task < st.bestTask)
}

func (st *exactState) offer(rate float64, set []int, task int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.improves(rate, task) {
		st.bestRate = rate
		st.bestSet = append(st.bestSet[:0], set...)
		st.bestTask = task
		st.offers++
	}
}

// prunable reports whether no set under a subtree with rate bound
// bound in task can replace the incumbent.
func (st *exactState) prunable(bound float64, task int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.improves(bound, task)
}

func exactSolve(ctx context.Context, pr *Problem, splitDepth int, sp obs.Span) ([]int, error) {
	n := pr.N()
	if n == 0 {
		return nil, nil
	}
	prep := sp.Child("prep")
	// Decision order: descending rate so the additive bound tightens
	// fast; ties broken by shorter length (easier to keep feasible).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(pr.Links.Rate(b), pr.Links.Rate(a)); c != 0 {
			return c
		}
		return cmp.Compare(pr.Links.Length(a), pr.Links.Length(b))
	})
	// suffixRate[d] = Σ rates of decisions d..n−1 (the optimistic bound).
	suffixRate := make([]float64, n+1)
	for d := n - 1; d >= 0; d-- {
		suffixRate[d] = suffixRate[d+1] + pr.Links.Rate(order[d])
	}

	st := &exactState{}
	// Propagate cancellation into the search as a flag flip; AfterFunc
	// costs nothing when ctx can never be canceled.
	unregister := context.AfterFunc(ctx, func() { st.stop.Store(true) })
	defer unregister()
	// Seed the incumbent with Greedy so pruning bites immediately.
	seed := (Greedy{}).Schedule(pr)
	st.offer(seed.Throughput(pr), seed.Active, -1)

	// Enumerate the 2^splitDepth assignments of the first splitDepth
	// decisions; each feasible prefix becomes one parallel task.
	type task struct {
		set  []int
		acc  *Accum
		rate float64
	}
	var tasks []task
	var build func(d int, set []int, acc *Accum, rate float64)
	build = func(d int, set []int, acc *Accum, rate float64) {
		if d == splitDepth {
			tasks = append(tasks, task{
				set:  append([]int(nil), set...),
				acc:  acc.Clone(),
				rate: rate,
			})
			return
		}
		i := order[d]
		// Exclude branch.
		build(d+1, set, acc, rate)
		// Include branch, if the prefix stays feasible.
		if ni, ok := tryInclude(pr, set, acc, i); ok {
			build(d+1, append(set, i), ni, rate+pr.Links.Rate(i))
		}
	}
	// The accumulator starts at each receiver's noise term so the
	// Informed checks in tryInclude test the full noise-aware budget
	// (identical to plain Corollary 3.1 when N0 = 0).
	build(0, nil, NewAccum(pr), 0)
	prep.Add(obs.KeySubtreeTasks, int64(len(tasks)))
	prep.End()

	search := sp.Child("search")
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for k, tk := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, tk task) {
			defer wg.Done()
			defer func() { <-sem }()
			var cnt dfsCounters
			dfs(pr, st, order, suffixRate, splitDepth, tk.set, tk.acc, tk.rate, k, &cnt)
			st.addCounters(cnt)
		}(k, tk)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		search.End()
		return nil, err
	}
	st.mu.Lock()
	search.Add(obs.KeyNodesExpanded, st.nodes)
	search.Add(obs.KeyBoundCutoffs, st.cutoffs)
	search.Add(obs.KeyInfeasible, st.infeasible)
	search.Add(obs.KeyIncumbents, st.offers)
	st.mu.Unlock()
	search.End()
	return st.bestSet, nil
}

// tryInclude returns the accumulator state after adding sender i to
// set, or ok=false when the grown set violates any member's budget
// (including i's own). acc is not mutated: branches clone rather than
// add-and-undo, so backtracking is bit-exact (a remove only restores
// the value, not necessarily the bits, near the feasibility slack).
func tryInclude(pr *Problem, set []int, acc *Accum, i int) (*Accum, bool) {
	if !pr.Params.Informed(acc.Load(i)) {
		return nil, false
	}
	for _, j := range set {
		if !pr.Params.Informed(acc.Load(j) + acc.Contribution(i, j)) {
			return nil, false
		}
	}
	ni := acc.Clone()
	ni.AddLink(i)
	return ni, true
}

func dfs(pr *Problem, st *exactState, order []int, suffixRate []float64, d int, set []int, acc *Accum, rate float64, task int, cnt *dfsCounters) {
	if st.stop.Load() {
		return // caller's context canceled; unwind the whole subtree
	}
	cnt.nodes++
	if st.prunable(rate+suffixRate[d], task) {
		cnt.cutoffs++
		return // even taking everything left cannot beat the incumbent
	}
	if d == len(order) {
		st.offer(rate, set, task)
		return
	}
	i := order[d]
	// Include first: descending-rate order means the include branch is
	// the one that can raise the incumbent fastest.
	if ni, ok := tryInclude(pr, set, acc, i); ok {
		dfs(pr, st, order, suffixRate, d+1, append(set, i), ni, rate+pr.Links.Rate(i), task, cnt)
	} else {
		cnt.infeasible++
	}
	dfs(pr, st, order, suffixRate, d+1, set, acc, rate, task, cnt)
}

func init() {
	mustRegister(Exact{})
}
