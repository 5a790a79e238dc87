package sched

import (
	"context"
	"fmt"
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

// TestPreparedRebindRefreshesCaches drives the mobility contract: after
// Problem.Rebind the handle's geometry caches (sender index, median
// length) must refresh, so solves match a problem built fresh from the
// moved link set.
func TestPreparedRebindRefreshesCaches(t *testing.T) {
	ls := preparedTestInstance(t, 120, 5)
	p := radio.DefaultParams()
	prep, err := Prepare(ls, p)
	if err != nil {
		t.Fatal(err)
	}
	_ = prep.Schedule(RLE{}) // warm the caches at generation 0

	// Move every link by a fixed offset (identities preserved).
	links := ls.Links()
	moved := make([]int, len(links))
	for i := range links {
		links[i].Sender.X += 11
		links[i].Sender.Y += 7
		links[i].Receiver.X += 11
		links[i].Receiver.Y += 7
		moved[i] = i
	}
	ls2, err := network.NewLinkSet(links)
	if err != nil {
		t.Fatal(err)
	}
	if err := prep.Problem().Rebind(ls2, moved); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewProblem(ls2, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Algorithm{RLE{}, Greedy{}} {
		want := a.Schedule(fresh)
		got := prep.Schedule(a)
		if !got.Equal(want) {
			t.Fatalf("%s after rebind: prepared %v != fresh %v", a.Name(), got.Active, want.Active)
		}
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
