package mobility

import (
	"context"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sched"
)

// traceFixture returns a random-waypoint trace over a paper instance
// and a problem built on the trace's starting geometry (dense unless
// opts pick another backend).
func traceFixture(t *testing.T, n int, opts ...sched.Option) (*Trace, *sched.Problem) {
	t.Helper()
	base, err := network.Generate(network.PaperConfig(n), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrace(base, Config{Region: 500, SpeedMin: 1, SpeedMax: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sched.NewProblem(base, radio.DefaultParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pr
}

// advanceRebind is one step of tracking a Trace: it moves the trace
// forward, rebinds pr onto the new snapshot through Problem.Rebind
// (naming every link whose sender moved) instead of rebuilding the
// problem, and returns the snapshot for fresh-build comparisons along
// with how many links were re-bound.
func advanceRebind(t *testing.T, tr *Trace, pr *sched.Problem, slots int) (*network.LinkSet, int) {
	t.Helper()
	before := tr.Positions()
	tr.Advance(slots)
	var moved []int
	for i, p := range tr.Positions() {
		if p != before[i] {
			moved = append(moved, i)
		}
	}
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Rebind(snap, moved); err != nil {
		t.Fatal(err)
	}
	return snap, len(moved)
}

// TestEditorMoveToSamePosition: a move that "repositions" a link onto
// its current coordinates is still a valid event — the patched row and
// column recompute to the same values, the schedule cannot change, and
// the differential oracle still holds. This pins Rebind's behavior on
// zero displacement (no special-casing, no drift).
func TestEditorMoveToSamePosition(t *testing.T) {
	ed := editorFixture(t, 12, 21)
	links := ed.Links()
	before := ed.Prepared().Schedule(sched.Greedy{})
	factorBefore := ed.Prepared().Problem().Factor(3, 7)

	s, r := links[3].Sender, links[3].Receiver
	if err := ed.Move(3, &s, &r); err != nil {
		t.Fatalf("move to same position rejected: %v", err)
	}
	if ed.Rebinds() != 1 {
		t.Fatalf("rebinds = %d, want 1 (zero displacement is still a rebind)", ed.Rebinds())
	}
	if got := ed.Prepared().Problem().Factor(3, 7); got != factorBefore {
		t.Fatalf("Factor(3,7) drifted on a zero-displacement rebind: %v → %v", factorBefore, got)
	}
	after := ed.Prepared().Schedule(sched.Greedy{})
	if !after.Equal(before) {
		t.Fatalf("schedule changed on zero displacement: %v → %v", before, after)
	}
	assertEditorMatchesFresh(t, ed)
}

// TestRebindThenDeriveSiblings pins the supported ordering of the
// Derive-vs-Rebind exclusion: siblings derived AFTER a rebind read the
// patched field correctly (ε never enters the stored factors), for
// every rebind in an interleaved sequence. Siblings must be re-derived
// per generation — a pre-rebind sibling keeps its stale link set, which
// is exactly why Editor.Retune drops the old handle.
func TestRebindThenDeriveSiblings(t *testing.T) {
	tr, pr := traceFixture(t, 30)
	prep := sched.NewPrepared(pr)
	for step := 0; step < 4; step++ {
		snap, _ := advanceRebind(t, tr, pr, 2)
		for _, eps := range []float64{0.05, 0.1, 0.3} {
			p := pr.Params
			p.Eps = eps
			sib, err := prep.Derive(p)
			if err != nil {
				t.Fatalf("step %d eps %v: %v", step, eps, err)
			}
			fresh, err := sched.NewProblem(snap, p)
			if err != nil {
				t.Fatal(err)
			}
			got := sib.Schedule(sched.Greedy{})
			want := (sched.Greedy{}).Schedule(fresh)
			if !got.Equal(want) {
				t.Fatalf("step %d eps %v: derived-after-rebind %v ≠ fresh %v", step, eps, got, want)
			}
		}
	}
}

// TestTrackerMatchesFreshProblem is the tracking loop's core contract
// on both backends: after every advance, the incrementally patched
// field is indistinguishable from a problem built from scratch on the
// current snapshot — same factors, same noise terms, same schedules.
func TestTrackerMatchesFreshProblem(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []sched.Option
	}{
		{"dense", nil},
		{"sparse", []sched.Option{sched.WithSparseField(sched.SparseOptions{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, pr := traceFixture(t, 60, tc.opts...)
			for step := 0; step < 5; step++ {
				snap, moved := advanceRebind(t, tr, pr, 3)
				if moved == 0 {
					t.Fatalf("step %d: no links re-bound despite movement", step)
				}
				fresh, err := sched.NewProblem(snap, pr.Params, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < fresh.N(); j++ {
					if pr.NoiseTerm(j) != fresh.NoiseTerm(j) {
						t.Fatalf("step %d: NoiseTerm(%d) = %v, fresh %v",
							step, j, pr.NoiseTerm(j), fresh.NoiseTerm(j))
					}
					for i := 0; i < fresh.N(); i++ {
						if pr.Factor(i, j) != fresh.Factor(i, j) {
							t.Fatalf("step %d: Factor(%d,%d) = %v, fresh %v",
								step, i, j, pr.Factor(i, j), fresh.Factor(i, j))
						}
					}
				}
				got := (sched.Greedy{}).Schedule(pr)
				want := (sched.Greedy{}).Schedule(fresh)
				if !got.Equal(want) {
					t.Fatalf("step %d: tracked schedule %v, fresh %v", step, got, want)
				}
			}
		})
	}
}

// TestTrackerPreparedMatchesFresh checks a Prepared handle stays
// coherent across the tracking loop: Rebind bumps the problem
// generation, so the handle's cached geometry (sender index, median
// length, pick orders) refreshes and every post-move solve matches a
// fresh problem built from the current snapshot. The handle is built
// once and reused — the cheap path a re-planning loop would use. A
// trace moves whole links, so a last step stretches the shortest link
// past every other, moving it from first to last in both the greedy
// and the elimination pick order (rates are uniform).
func TestTrackerPreparedMatchesFresh(t *testing.T) {
	tr, pr := traceFixture(t, 60)
	prep := sched.NewPrepared(pr)
	algos := []sched.Algorithm{sched.Greedy{}, sched.RLE{}, sched.ApproxDiversity{}}
	check := func(step int, snap *network.LinkSet) {
		t.Helper()
		fresh, err := sched.NewProblem(snap, pr.Params)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range algos {
			got := prep.Schedule(a)
			want := a.Schedule(fresh)
			if !got.Equal(want) {
				t.Fatalf("step %d %s: tracked %v ≠ fresh %v", step, a.Name(), got, want)
			}
		}
	}
	var snap *network.LinkSet
	for step := 0; step < 4; step++ {
		snap, _ = advanceRebind(t, tr, pr, 5)
		check(step, snap)
	}
	check(4, stretchShortest(t, pr, snap))
}

// stretchShortest re-binds pr onto snap with its shortest link's
// receiver pushed out along the link to 1.5× the longest link's
// length, and returns the new link set. With uniform rates the link
// goes from first to last in both length-keyed pick orders, which the
// function checks by rank.
func stretchShortest(t *testing.T, pr *sched.Problem, snap *network.LinkSet) *network.LinkSet {
	t.Helper()
	rank := func(ls *network.LinkSet, k int) int { // position in ascending (length, index) order
		r := 0
		for i := 0; i < ls.Len(); i++ {
			if ls.Length(i) < ls.Length(k) || (ls.Length(i) == ls.Length(k) && i < k) {
				r++
			}
		}
		return r
	}
	k, longest := 0, 0.0
	for i := 0; i < snap.Len(); i++ {
		if snap.Length(i) < snap.Length(k) {
			k = i
		}
		longest = max(longest, snap.Length(i))
		if snap.Rate(i) != snap.Rate(0) {
			t.Fatal("rates differ: length alone would not order the greedy picks")
		}
	}
	links := snap.Links()
	l, stretch := links[k], 1.5*longest/snap.Length(k)
	links[k].Receiver.X = l.Sender.X + (l.Receiver.X-l.Sender.X)*stretch
	links[k].Receiver.Y = l.Sender.Y + (l.Receiver.Y-l.Sender.Y)*stretch
	moved, err := network.NewLinkSet(links)
	if err != nil {
		t.Fatal(err)
	}
	if was, now := rank(snap, k), rank(moved, k); was != 0 || now != snap.Len()-1 {
		t.Fatalf("link %d went from rank %d to %d, want 0 to %d", k, was, now, snap.Len()-1)
	}
	if err := pr.Rebind(moved, []int{k}); err != nil {
		t.Fatal(err)
	}
	return moved
}

// TestTrackerInterleavedRebindSolve alternates trace advances (each a
// Rebind of the moved links) with buffer-recycled Greedy and RLE solves
// on one Prepared handle — the replanning loop a session runs — and
// checks every solve against a fresh problem. It also pins the
// zero-alloc steady-state solve path under interleaved rebinds (the
// geometry caches refresh, the buffers don't churn).
func TestTrackerInterleavedRebindSolve(t *testing.T) {
	tr, pr := traceFixture(t, 50)
	prep := sched.NewPrepared(pr)
	ctx := context.Background()
	algos := []sched.Algorithm{sched.Greedy{}, sched.RLE{}}
	active := make([][]int, len(algos))
	for step := 0; step < 8; step++ {
		snap, _ := advanceRebind(t, tr, pr, 1)
		fresh, err := sched.NewProblem(snap, pr.Params)
		if err != nil {
			t.Fatal(err)
		}
		for ai, a := range algos {
			sch, err := prep.ScheduleInto(ctx, a, active[ai])
			if err != nil {
				t.Fatal(err)
			}
			active[ai] = sch.Active
			if want := a.Schedule(fresh); !sch.Equal(want) {
				t.Fatalf("step %d %s: interleaved %v ≠ fresh %v", step, a.Name(), sch, want)
			}
		}
	}

	// Steady state reached: further advance+solve rounds must not
	// allocate on the solve side. (The rebind itself allocates; measure
	// only the solve.)
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	advanceRebind(t, tr, pr, 1)
	for ai, a := range algos {
		allocs := testing.AllocsPerRun(20, func() {
			sch, err := prep.ScheduleInto(ctx, a, active[ai])
			if err != nil {
				t.Fatal(err)
			}
			active[ai] = sch.Active
		})
		if allocs > 0 {
			t.Fatalf("%s: steady-state solve allocated %.1f times per run after rebinds", a.Name(), allocs)
		}
	}
}
