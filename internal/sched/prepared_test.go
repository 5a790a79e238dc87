package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
)

func preparedTestInstance(t testing.TB, n int, seed uint64) *network.LinkSet {
	t.Helper()
	ls, err := network.Generate(network.PaperConfig(n), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// preparedTestAlgorithms is every registered algorithm cheap enough to
// run on a few hundred links, each reaching scheduleWith through its
// solve method.
func preparedTestAlgorithms() []Algorithm {
	return []Algorithm{
		Greedy{}, RLE{}, RLE{C2: 0.3}, ApproxDiversity{}, ApproxLogN{}, LDP{},
		DLS{Seed: 7}, DLS{Seed: 7, Rounds: 5},
	}
}

// TestPreparedMatchesDirect pins that a prepared solve is the same
// computation as a direct solve — same dispatch, same
// scratch-parameterized code path — so the schedules must be
// identical, on both field backends, solve after solve.
func TestPreparedMatchesDirect(t *testing.T) {
	ls := preparedTestInstance(t, 250, 42)
	p := radio.DefaultParams()
	for _, backend := range []struct {
		name string
		opts []Option
	}{
		{"dense", nil},
		{"sparse", []Option{WithSparseField(SparseOptions{})}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			pr, err := NewProblem(ls, p, backend.opts...)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := Prepare(ls, p, backend.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range preparedTestAlgorithms() {
				want, err := ScheduleContext(context.Background(), a, pr)
				if err != nil {
					t.Fatalf("%s direct: %v", a.Name(), err)
				}
				// Twice: the second run exercises a warm (pooled) scratch.
				for run := 0; run < 2; run++ {
					got, err := prep.ScheduleContext(context.Background(), a)
					if err != nil {
						t.Fatalf("%s prepared run %d: %v", a.Name(), run, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s run %d: prepared %v != direct %v", a.Name(), run, got.Active, want.Active)
					}
				}
			}
		})
	}
}

// TestPreparedDerive checks that one built field serves many ε
// configurations: derived handles must reproduce the schedules of
// problems built from scratch with those parameters.
func TestPreparedDerive(t *testing.T) {
	ls := preparedTestInstance(t, 200, 7)
	base := radio.DefaultParams()
	prep, err := Prepare(ls, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.001, 0.05, 0.2} {
		p := base
		p.Eps = eps
		drv, err := prep.Derive(p)
		if err != nil {
			t.Fatalf("Derive(eps=%v): %v", eps, err)
		}
		if drv.Problem().Field() != prep.Problem().Field() {
			t.Fatalf("Derive(eps=%v) did not share the field", eps)
		}
		fresh, err := NewProblem(ls, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []Algorithm{RLE{}, Greedy{}} {
			want := a.Schedule(fresh)
			got := drv.Schedule(a)
			if !got.Equal(want) {
				t.Fatalf("%s eps=%v: derived %v != fresh %v", a.Name(), eps, got.Active, want.Active)
			}
		}
	}

	// Field-shaping parameter changes must be refused.
	bad := base
	bad.Alpha = 4
	if _, err := prep.Derive(bad); err == nil {
		t.Fatal("Derive with different alpha: want error")
	}
	// The sparse default cutoff derives from γ_ε, so ε is pinned there.
	sparse, err := Prepare(ls, base, WithSparseField(SparseOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	pe := base
	pe.Eps = 0.05
	if _, err := sparse.Derive(pe); err == nil {
		t.Fatal("sparse Derive with different eps: want error")
	}
	if _, err := sparse.Derive(base); err != nil {
		t.Fatalf("sparse Derive with identical params: %v", err)
	}
}

// TestPreparedConcurrent hammers one handle from many goroutines (the
// schedd worker-pool shape); -race runs in CI via scripts/check.sh.
func TestPreparedConcurrent(t *testing.T) {
	ls := preparedTestInstance(t, 150, 3)
	prep, err := Prepare(ls, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	algorithms := []Algorithm{Greedy{}, RLE{}, ApproxDiversity{}, DLS{Seed: 7}}
	want := make([]Schedule, len(algorithms))
	for i, a := range algorithms {
		want[i] = prep.Schedule(a)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				i := (g + it) % len(algorithms)
				got, err := prep.ScheduleContext(context.Background(), algorithms[i])
				if err != nil {
					errc <- err
					return
				}
				if !got.Equal(want[i]) {
					errc <- fmt.Errorf("%s: concurrent solve diverged", algorithms[i].Name())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPreparedDeriveConcurrentOrders races Derive'd siblings at four ε
// values, sharing one cold handle's caches, to build and read the pick
// orders no ε changes (greedy's, the elimination core's) and the
// receiver positions: 16 goroutines solve every sibling with Greedy,
// RLE, ApproxDiversity, greedy-sharded, LDP and ApproxLogN, and each
// schedule must equal a one-shot handle's solve of a fresh problem at
// that ε. -race runs it in scripts/check.sh.
func TestPreparedDeriveConcurrentOrders(t *testing.T) {
	ls := preparedTestInstance(t, 150, 3)
	base, err := Prepare(ls, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	algorithms := []Algorithm{Greedy{}, RLE{}, ApproxDiversity{}, Sharded{Shards: 4}, LDP{}, ApproxLogN{}}
	var siblings []*Prepared
	var want [][]Schedule
	for _, eps := range []float64{0.005, 0.01, 0.02, 0.05} {
		p := radio.DefaultParams()
		p.Eps = eps
		sib, err := base.Derive(p)
		if err != nil {
			t.Fatal(err)
		}
		siblings = append(siblings, sib)
		ref := MustNewProblem(ls, p)
		var w []Schedule
		for _, a := range algorithms {
			w = append(w, a.Schedule(ref))
		}
		want = append(want, w)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for it := 0; it < len(siblings)*len(algorithms); it++ {
				k := (g + it) % (len(siblings) * len(algorithms))
				s, a := k/len(algorithms), k%len(algorithms)
				got := siblings[s].Schedule(algorithms[a])
				if !got.Equal(want[s][a]) {
					errc <- fmt.Errorf("sibling %d %s: concurrent solve %v, one-shot %v",
						s, algorithms[a].Name(), got.Active, want[s][a].Active)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPreparedRebindReordersPicks pins the pick orders a Prepared
// keeps to its geometry: a Rebind that stretches the shortest link past
// every other moves it from first to last in both greedy's and the
// elimination core's order (rates are uniform, so length decides
// both). Solves through the handle, whose orders were cached before
// the move, must equal a fresh build's, and so must the cached orders.
func TestPreparedRebindReordersPicks(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{{"dense", nil}, {"sparse", []Option{WithSparseField(SparseOptions{})}}} {
		t.Run(tc.name, func(t *testing.T) {
			ls := preparedTestInstance(t, 120, 5)
			p := radio.DefaultParams()
			prep, err := Prepare(ls, p, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			algorithms := []Algorithm{Greedy{}, RLE{}, ApproxDiversity{}, Sharded{Shards: 4}}
			for _, a := range algorithms {
				_ = prep.Schedule(a) // cache both orders at generation 0
			}

			k, longest := 0, 0.0
			for i := 0; i < ls.Len(); i++ {
				if ls.Length(i) < ls.Length(k) {
					k = i
				}
				longest = max(longest, ls.Length(i))
			}
			links := ls.Links()
			l, stretch := links[k], 1.5*longest/ls.Length(k)
			links[k].Receiver.X = l.Sender.X + (l.Receiver.X-l.Sender.X)*stretch
			links[k].Receiver.Y = l.Sender.Y + (l.Receiver.Y-l.Sender.Y)*stretch
			ls2, err := network.NewLinkSet(links)
			if err != nil {
				t.Fatal(err)
			}
			if err := prep.Problem().Rebind(ls2, []int{k}); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewProblem(ls2, p, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range algorithms {
				if got, want := prep.Schedule(a), a.Schedule(fresh); !got.Equal(want) {
					t.Fatalf("%s after the move: prepared %v, fresh %v", a.Name(), got.Active, want.Active)
				}
			}
			before := MustNewProblem(ls, p, tc.opts...)
			for _, o := range []struct {
				name string
				kind pickKind
			}{{"greedy", greedyPick}, {"elimination", eliminationPick}} {
				var scr Scratch
				was := slices.Index(pickSorts[o.kind](before, &scr), k)
				want := slices.Clone(pickSorts[o.kind](fresh, &scr))
				if now := slices.Index(want, k); was != 0 || now != len(want)-1 {
					t.Fatalf("%s order: link %d moved from rank %d to %d, want 0 to %d", o.name, k, was, now, len(want)-1)
				}
				pscr := prep.getScratch()
				got := pscr.pickOrder(prep.Problem(), o.kind)
				prep.putScratch(pscr)
				if !slices.Equal(got, want) {
					t.Fatalf("%s order cached after the move differs from a fresh sort", o.name)
				}
			}
		})
	}
}

// TestPreparedRebindRefreshesCaches drives the mobility contract on
// both backends: after Problem.Rebind every factor and noise term
// equals a fresh build's on the moved link set (the dense backend
// drops the moved rows, the sparse one rebuilds), and the handle's
// geometry caches (sender index, median length) refresh, so solves
// match the fresh problem too.
func TestPreparedRebindRefreshesCaches(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{{"dense", nil}, {"sparse", []Option{WithSparseField(SparseOptions{})}}} {
		t.Run(tc.name, func(t *testing.T) {
			ls := preparedTestInstance(t, 120, 5)
			p := radio.DefaultParams()
			prep, err := Prepare(ls, p, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			_ = prep.Schedule(RLE{}) // warm the caches at generation 0

			// Move every link by its own offset (identities preserved),
			// so the interference geometry really changes.
			links := ls.Links()
			moved := make([]int, len(links))
			for i := range links {
				dx, dy := 11+float64(i%7)*5, 7-float64(i%3)*4
				links[i].Sender.X += dx
				links[i].Sender.Y += dy
				links[i].Receiver.X += dx
				links[i].Receiver.Y += dy
				moved[i] = i
			}
			ls2, err := network.NewLinkSet(links)
			if err != nil {
				t.Fatal(err)
			}
			if err := prep.Problem().Rebind(ls2, moved); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewProblem(ls2, p, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got := prep.Problem()
			for j := 0; j < fresh.N(); j++ {
				if got.NoiseTerm(j) != fresh.NoiseTerm(j) {
					t.Fatalf("NoiseTerm(%d) = %v, fresh %v", j, got.NoiseTerm(j), fresh.NoiseTerm(j))
				}
				for i := 0; i < fresh.N(); i++ {
					if got.Factor(i, j) != fresh.Factor(i, j) {
						t.Fatalf("Factor(%d,%d) = %v, fresh %v", i, j, got.Factor(i, j), fresh.Factor(i, j))
					}
				}
			}
			for _, a := range []Algorithm{RLE{}, Greedy{}} {
				want := a.Schedule(fresh)
				got := prep.Schedule(a)
				if !got.Equal(want) {
					t.Fatalf("%s after rebind: prepared %v != fresh %v", a.Name(), got.Active, want.Active)
				}
			}

			// Links keep their identities: a set of another size or a
			// moved index out of range is refused.
			short, err := network.NewLinkSet(links[1:])
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Rebind(short, nil); err == nil {
				t.Error("rebind onto a smaller link set accepted")
			}
			if err := got.Rebind(ls2, []int{len(links)}); err == nil {
				t.Error("rebind with an out-of-range moved index accepted")
			}
		})
	}
}

// TestPreparedSolveZeroAllocs is the tentpole's allocation gate: once
// warm, the greedy/RLE/elimination/DLS solve path through ScheduleInto
// (scratch from the pool, result into a recycled buffer) performs zero
// heap allocations per solve.
func TestPreparedSolveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	ls := preparedTestInstance(t, 300, 42)
	prep, err := Prepare(ls, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, a := range []Algorithm{Greedy{}, RLE{}, ApproxDiversity{}, DLS{Seed: 7}} {
		a := a
		// Warm: grow every scratch buffer and populate the shared caches.
		s, err := prep.ScheduleInto(ctx, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := s.Active
		// Hold one scratch explicitly so the measurement is independent
		// of sync.Pool retention across GC cycles.
		scr := prep.getScratch()
		allocs := testing.AllocsPerRun(20, func() {
			s := scheduleScratchFor(t, a, prep, scr, buf)
			buf = s.Active
		})
		prep.putScratch(scr)
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warm solve, want 0", a.Name(), allocs)
		}

		// The pooled public path should match in steady state (no GC
		// pressure exists when nothing allocates).
		s, err = prep.ScheduleInto(ctx, a, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = s.Active
		allocs = testing.AllocsPerRun(20, func() {
			s, err := prep.ScheduleInto(ctx, a, buf)
			if err != nil {
				t.Fatal(err)
			}
			buf = s.Active
		})
		if allocs != 0 {
			t.Errorf("%s via ScheduleInto: %v allocs per warm solve, want 0", a.Name(), allocs)
		}
	}
}

func scheduleScratchFor(t *testing.T, a Algorithm, prep *Prepared, scr *Scratch, dst []int) Schedule {
	s, err := a.(solver).solve(context.Background(), prep.Problem(), scr, dst)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScheduleIntoBuffer checks the dst contract: the active set lands
// in the caller's buffer when capacity suffices.
func TestScheduleIntoBuffer(t *testing.T) {
	ls := preparedTestInstance(t, 80, 9)
	prep, err := Prepare(ls, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 80)
	s, err := prep.ScheduleInto(context.Background(), RLE{}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Active) == 0 {
		t.Fatal("empty schedule")
	}
	if &s.Active[0] != &buf[:1][0] {
		t.Error("ScheduleInto did not reuse the caller's buffer")
	}
	want := RLE{}.Schedule(prep.Problem())
	if !s.Equal(want) {
		t.Fatalf("ScheduleInto %v != direct %v", s.Active, want.Active)
	}
}

func BenchmarkPreparedSolve(b *testing.B) {
	ls := preparedTestInstance(b, 600, 42)
	for _, a := range []Algorithm{Greedy{}, RLE{}, DLS{Seed: 7}} {
		b.Run(a.Name(), func(b *testing.B) {
			prep, err := Prepare(ls, radio.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			s, err := prep.ScheduleInto(ctx, a, nil)
			if err != nil {
				b.Fatal(err)
			}
			buf := s.Active
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := prep.ScheduleInto(ctx, a, buf)
				if err != nil {
					b.Fatal(err)
				}
				buf = s.Active
			}
		})
	}
}
