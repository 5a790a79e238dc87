package sched

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
)

// fillAllRows makes every sender row of pr's dense field resident —
// the state the eager n² build used to produce.
func fillAllRows(pr *Problem) {
	d := pr.field.(*DenseField)
	for i := 0; i < d.n; i++ {
		d.row(i)
	}
}

// assertSameAnswer fails unless got and want are the same schedule and
// assess bit-identically on their respective problems.
func assertSameAnswer(t *testing.T, label string, gotPr *Problem, got Schedule, wantPr *Problem, want Schedule) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: schedule %v, want %v", label, got.Active, want.Active)
	}
	ga, wa := Assess(gotPr, got), Assess(wantPr, want)
	if len(ga.Violations) != len(wa.Violations) {
		t.Fatalf("%s: %d violations, want %d", label, len(ga.Violations), len(wa.Violations))
	}
	for k, v := range wa.Violations {
		g := ga.Violations[k]
		if g.Link != v.Link || math.Float64bits(g.Factor) != math.Float64bits(v.Factor) {
			t.Fatalf("%s: violation %d = %+v, want %+v", label, k, g, v)
		}
	}
	for k, p := range wa.SuccessProb {
		if math.Float64bits(ga.SuccessProb[k]) != math.Float64bits(p) {
			t.Fatalf("%s: success_prob[%d] = %v, want %v", label, k, ga.SuccessProb[k], p)
		}
	}
	if math.Float64bits(ga.ExpectedFailures) != math.Float64bits(wa.ExpectedFailures) {
		t.Fatalf("%s: expected failures %v, want %v", label, ga.ExpectedFailures, wa.ExpectedFailures)
	}
}

// assertFactorsMatch compares every factor of got against want bit for
// bit, reading got through Factor (resident row or scalar kernel).
func assertFactorsMatch(t *testing.T, label string, got, want *Problem) {
	t.Helper()
	n := want.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g, w := got.Factor(i, j), want.Factor(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: factor (%d,%d) = %v, want %v", label, i, j, g, w)
			}
		}
	}
}

// TestDenseDemandFillMatchesResident is the demand-fill differential
// gate: every registered algorithm solved on a freshly built dense
// field — rows filled only as the solver reads them, everything else
// answered by the scalar kernel — returns the schedule, and the
// Assess answer, of the same solve on a field with every row resident.
// Instances cover the paper model and random draws with noise,
// heterogeneous powers and non-specialized α, each also under a
// Derive'd ε that shares the field.
func TestDenseDemandFillMatchesResident(t *testing.T) {
	var problems []*Problem
	for seed := uint64(1); seed <= 4; seed++ {
		problems = append(problems, MustNewProblem(genLinkSet(t, 300, seed, 500), radio.DefaultParams()))
	}
	for seed := uint64(1); seed <= 6; seed++ {
		problems = append(problems, quickProblem(seed))
	}
	for k, base := range problems {
		ls, p := base.Links, base.Params
		derived := p
		derived.Eps = 0.05
		resident, err := Prepare(ls, p)
		if err != nil {
			t.Fatal(err)
		}
		fillAllRows(resident.Problem())
		for _, q := range []radio.Params{p, derived} {
			want, err := resident.Derive(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Names() {
				if name == "exact" && ls.Len() > 20 {
					continue // exhaustive search; small instances only
				}
				a, _ := Lookup(name)
				fresh, err := Prepare(ls, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fresh.Derive(q)
				if err != nil {
					t.Fatal(err)
				}
				label := name
				if q.Eps != p.Eps {
					label += "/derived"
				}
				gs, ws := got.Schedule(a), want.Schedule(a)
				assertSameAnswer(t, label, got.Problem(), gs, want.Problem(), ws)
				if d := fresh.Problem().Field().(*DenseField); d.ResidentRows() == d.N() && d.N() > 40 {
					t.Errorf("instance %d %s: the solve filled all %d rows", k, label, d.N())
				}
			}
		}
		if got := resident.Problem().Field().(*DenseField).ResidentRows(); got != ls.Len() {
			t.Fatalf("instance %d: %d resident rows after fillAllRows, want %d", k, got, ls.Len())
		}
	}
}

// TestDenseDemandFillConcurrentSolves is the batch fan-out shape under
// -race: every algorithm solving at once, several times over, on one
// freshly built Prepared (and on a Derive'd ε sharing its field), so
// first reads of the same rows race to fill and publish them, and the
// scoped walks of a 4-tile greedy-sharded and of restricted selections
// race to charge the rows they rent. Every solve must equal its serial
// counterpart on a separate field, the shared field must hold the same
// rows (a row fills once its charges total n, whatever their order:
// the test's few dozen scoped solves stay inside the first epoch of
// n = 300),
// and it must end bit-identical to a fresh build.
func TestDenseDemandFillConcurrentSolves(t *testing.T) {
	ls := genLinkSet(t, 300, 17, 500)
	p := radio.DefaultParams()
	derived := p
	derived.Eps = 0.05
	var algos []Algorithm
	for _, name := range Names() {
		if name != "exact" {
			a, _ := Lookup(name)
			algos = append(algos, a)
		}
	}
	// Scoped walks race too: tiles and restricted selections charge the
	// rows they rent, and charges reaching n fill them.
	algos = append(algos, Sharded{Shards: 4}, listedGreedy{ls.Len(), 3}, listedGreedy{ls.Len(), 5})
	serial, err := Prepare(ls, p)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Prepare(ls, p)
	if err != nil {
		t.Fatal(err)
	}
	handles := map[float64][2]*Prepared{}
	for _, q := range []radio.Params{p, derived} {
		s, err := serial.Derive(q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := shared.Derive(q)
		if err != nil {
			t.Fatal(err)
		}
		handles[q.Eps] = [2]*Prepared{s, c}
	}
	// The serial side repeats every solve as often as the concurrent
	// one, so both charge the rows they rent alike.
	const repeats = 3
	want := map[float64][]Schedule{}
	for eps, h := range handles {
		for _, a := range algos {
			want[eps] = append(want[eps], h[0].Schedule(a))
			for r := 1; r < repeats; r++ {
				h[0].Schedule(a)
			}
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for eps, h := range handles {
		for k, a := range algos {
			for r := 0; r < repeats; r++ {
				wg.Add(1)
				go func(eps float64, pp *Prepared, k int, a Algorithm) {
					defer wg.Done()
					<-start
					s, err := pp.ScheduleContext(context.Background(), a)
					if err != nil {
						t.Error(err)
						return
					}
					if w := want[eps][k]; !s.Equal(w) {
						t.Errorf("ε=%v %s: concurrent %v, serial %v", eps, a.Name(), s.Active, w.Active)
					}
					Assess(pp.Problem(), s)
				}(eps, h[1], k, a)
			}
		}
	}
	close(start)
	wg.Wait()

	sd, cd := serial.Problem().Field().(*DenseField), shared.Problem().Field().(*DenseField)
	if cd.ResidentRows() != sd.ResidentRows() {
		t.Errorf("shared field holds %d rows, serial %d: a racing fill was counted twice or lost", cd.ResidentRows(), sd.ResidentRows())
	}
	assertFactorsMatch(t, "shared field", shared.Problem(), MustNewProblem(ls, p))
}

// TestDenseRebindPartlyResident pins the rebind contract on a field
// with only some rows filled: moved rows are dropped, moved columns are
// patched in the resident rows, and afterwards every Factor — read
// from a surviving row, a refilled row, or the scalar kernel — equals
// a fresh build of the moved geometry, round after round.
func TestDenseRebindPartlyResident(t *testing.T) {
	ls := genLinkSet(t, 150, 23, 400)
	p := radio.DefaultParams()
	pr := MustNewProblem(ls, p)
	d := pr.field.(*DenseField)
	_ = (Greedy{}).Schedule(pr)
	for i := 0; i < pr.N(); i += 3 {
		d.row(i)
	}
	src := rng.Stream(23, "dense-rebind", 0)
	for round := 0; round < 4; round++ {
		links := pr.Links.Links()
		var moved []int
		for i := range links {
			if src.Float64() < 0.1 {
				dx, dy := 40*src.Float64()-20, 40*src.Float64()-20
				links[i].Sender.X += dx
				links[i].Sender.Y += dy
				links[i].Receiver.X += dx
				links[i].Receiver.Y += dy
				moved = append(moved, i)
			}
		}
		ls2, err := network.NewLinkSet(links)
		if err != nil {
			t.Fatal(err)
		}
		before := d.ResidentRows()
		stale := 0
		for _, i := range moved {
			if d.rows[i].Load() != nil {
				stale++
			}
		}
		if err := pr.Rebind(ls2, moved); err != nil {
			t.Fatal(err)
		}
		if got := d.ResidentRows(); got != before-stale {
			t.Fatalf("round %d: %d resident rows after rebind, want %d (dropped %d moved rows)", round, got, before-stale, stale)
		}
		fresh := MustNewProblem(ls2, p)
		assertFactorsMatch(t, "after rebind", pr, fresh)
		_ = (RLE{}).Schedule(pr) // refill some moved rows from the new geometry
		assertFactorsMatch(t, "after refill", pr, fresh)
		if got, want := (Greedy{}).Schedule(pr), (Greedy{}).Schedule(fresh); !got.Equal(want) {
			t.Fatalf("round %d: greedy after rebind %v, fresh %v", round, got.Active, want.Active)
		}
	}
}

// TestDenseBytesTracksResidentRows pins Bytes: O(n) right after the
// build — seven per-link inputs, the row pointers and the fill charges,
// 72n bytes — growing by 8n per filled row. A scoped walk's charge
// below n fills nothing, a later epoch's starts again from zero, and
// the one that brings an epoch's charges to n fills the row.
func TestDenseBytesTracksResidentRows(t *testing.T) {
	pr := MustNewProblem(genLinkSet(t, 100, 3, 300), radio.DefaultParams())
	d := pr.field.(*DenseField)
	n := int64(d.N())
	base := d.Bytes()
	if base != 72*n {
		t.Fatalf("fresh field reports %d bytes, want %d", base, 72*n)
	}
	d.row(5)
	d.row(5)
	d.row(9)
	if got := d.Bytes(); got != base+2*8*n {
		t.Fatalf("two resident rows: %d bytes, want %d", got, base+2*8*n)
	}
	if r := d.rent(7, d.N()/2, 0); r != nil || d.Bytes() != base+2*8*n {
		t.Fatalf("a half-row charge filled row 7 (%d bytes)", d.Bytes())
	}
	if r := d.rent(7, d.N()/2, 1); r != nil || d.Bytes() != base+2*8*n {
		t.Fatalf("an expired charge counted: row 7 filled (%d bytes)", d.Bytes())
	}
	if r := d.rent(7, d.N()/2, 1); r == nil || d.Bytes() != base+3*8*n {
		t.Fatalf("charges reaching n in one epoch left row 7 unfilled (%d bytes)", d.Bytes())
	}
}

// listedGreedy is a selection-restricted greedy over a subset: every
// k-th link, weighted by a fixed pattern with ties (every other link
// weighs 0 and is left out), run through Greedy.scheduleRestricted
// exactly as a traffic slot's solve.
type listedGreedy struct{ n, k int }

func (g listedGreedy) Name() string { return "greedy" }

func (g listedGreedy) Schedule(pr *Problem) Schedule { return schedule(g, pr) }

func (g listedGreedy) solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	weights := make([]float64, g.n)
	for i := 0; i < g.n; i += g.k {
		weights[i] = float64(1 + i*7919%5)
	}
	sel := Selection{Weights: weights}
	if err := sel.validate(pr.N()); err != nil {
		return Schedule{}, err
	}
	return Greedy{}.scheduleRestricted(pr, scr, sel, obs.SpanFrom(ctx), dst), nil
}

// TestDenseScopedWalksMatchResident: the scoped walks that rent rows —
// greedy-sharded's tile pass at shards 2, 4 and 9, and restricted
// selections — give the same schedule on a freshly built dense field
// as on a fully resident one, and a restricted selection leaves rows
// unfilled that a plain greedy would fill.
func TestDenseScopedWalksMatchResident(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ls := genLinkSet(t, 1200, seed, 1000)
		p := radio.DefaultParams()
		resident, err := Prepare(ls, p)
		if err != nil {
			t.Fatal(err)
		}
		fillAllRows(resident.Problem())
		algos := []Algorithm{Sharded{Shards: 2}, Sharded{Shards: 4}, Sharded{Shards: 9}, listedGreedy{ls.Len(), 2}, listedGreedy{ls.Len(), 7}}
		for _, a := range algos {
			fresh, err := Prepare(ls, p)
			if err != nil {
				t.Fatal(err)
			}
			got, want := fresh.Schedule(a), resident.Schedule(a)
			label := fmt.Sprintf("seed %d %T%+v", seed, a, a)
			assertSameAnswer(t, label, fresh.Problem(), got, resident.Problem(), want)
			if lg, ok := a.(listedGreedy); ok {
				if rows := fresh.Problem().Field().(*DenseField).ResidentRows(); rows != 0 {
					t.Errorf("%s: one restricted solve over n/%d links filled %d rows", label, lg.k, rows)
				}
			}
		}
	}
}
