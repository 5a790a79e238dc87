package sched

import (
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/radio"
)

// TestShardedMatchesFeasibility — the Monte-Carlo differential oracle —
// lives in shard_mc_test.go (package sched_test): internal/mc imports
// this package, so the oracle must sit in the external test package.

// TestShardedLegacyEntryPoints pins that the non-prepared path
// (Schedule on a fresh scratch) produces the same schedule as the
// prepared path.
func TestShardedLegacyEntryPoints(t *testing.T) {
	ls := genLinkSet(t, 300, 3, 500)
	pr := MustNewProblem(ls, radio.DefaultParams())
	a := Sharded{Shards: 8}
	want := NewPrepared(pr).Schedule(a)
	got := a.Schedule(pr)
	if len(got.Active) != len(want.Active) {
		t.Fatalf("legacy path: %d active, prepared path %d", len(got.Active), len(want.Active))
	}
	for i := range got.Active {
		if got.Active[i] != want.Active[i] {
			t.Fatalf("legacy path Active[%d]=%d, prepared %d", i, got.Active[i], want.Active[i])
		}
	}
}

// TestShardedTileConcurrency is the -race tile-parallelism gate: many
// goroutines solve the same prepared instance concurrently (each solve
// itself fanning out tile workers that share the admission arena), and
// every result must be byte-identical — the solver's determinism must
// not depend on worker interleaving or on which pooled Scratch a solve
// draws.
func TestShardedTileConcurrency(t *testing.T) {
	ls := genLinkSet(t, 800, 21, 500*math.Sqrt(800.0/300))
	pr := MustNewProblem(ls, radio.DefaultParams(), WithSparseField(SparseOptions{}))
	prep := NewPrepared(pr)
	a := Sharded{Shards: 25}
	want := prep.Schedule(a)
	if want.Len() == 0 {
		t.Fatal("reference solve scheduled nothing")
	}
	const solvers = 8
	results := make([]Schedule, solvers)
	done := make(chan int, solvers)
	for g := 0; g < solvers; g++ {
		go func(g int) {
			results[g] = prep.Schedule(a)
			done <- g
		}(g)
	}
	for i := 0; i < solvers; i++ {
		<-done
	}
	for g, s := range results {
		if len(s.Active) != len(want.Active) {
			t.Fatalf("solver %d: %d active links, want %d", g, len(s.Active), len(want.Active))
		}
		for i := range s.Active {
			if s.Active[i] != want.Active[i] {
				t.Fatalf("solver %d: Active[%d]=%d, want %d", g, i, s.Active[i], want.Active[i])
			}
		}
	}
}

// TestShardedReserveExtremes pins that correctness is independent of
// the reservation: with ρ≈0 (tiles admit greedily, merge repairs the
// boundary damage) and ρ at the cap (tiles starve, merge does the
// work) the schedule stays feasible.
func TestShardedReserveExtremes(t *testing.T) {
	ls := genLinkSet(t, 400, 5, 500)
	pr := MustNewProblem(ls, radio.DefaultParams())
	prep := NewPrepared(pr)
	for _, reserve := range []float64{1e-9, 0.1, 0.5, maxShardReserve, 5} {
		s := prep.Schedule(Sharded{Shards: 16, Reserve: reserve})
		if !Feasible(pr, s) {
			t.Errorf("reserve=%v: infeasible merged schedule", reserve)
		}
		if s.Len() == 0 {
			t.Errorf("reserve=%v: empty schedule", reserve)
		}
	}
}

// TestShardedAutoCount sanity-checks the Shards=0 heuristic: tiny
// instances take the unsharded-identical path, large ones shard.
func TestShardedAutoCount(t *testing.T) {
	a := Sharded{}
	if k := a.tileCount(shardAutoMinLinks - 1); k != 1 {
		t.Errorf("auto tileCount(%d) = %d, want 1", shardAutoMinLinks-1, k)
	}
	if k := a.tileCount(100000); k < 2 {
		t.Errorf("auto tileCount(100000) = %d, want ≥ 2", k)
	}
	if k := a.tileCount(100000); k > MaxShards {
		t.Errorf("auto tileCount(100000) = %d, exceeds MaxShards", k)
	}
	if k := (Sharded{Shards: 1 << 30}).tileCount(100000); k != MaxShards {
		t.Errorf("tileCount clamps to %d, got %d", MaxShards, k)
	}
	if k := (Sharded{Shards: 64}).tileCount(10); k != 10 {
		t.Errorf("tileCount clamps to n, got %d", k)
	}
}

// TestShardedScalesSparse is the sharded counterpart of the n=20000
// sparse scale test: the tile-parallel path must complete and verify
// on an instance whose dense matrix would be 3.2 GB.
func TestShardedScalesSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	const n = 20000
	cfg := network.GenConfig{N: n, Region: 20000, MinLinkLen: 5, MaxLinkLen: 20, Rate: 1}
	ls, err := network.Generate(cfg, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := radio.DefaultParams()
	p.Alpha = 4.5
	pr, err := NewProblem(ls, p, WithSparseField(SparseOptions{Cutoff: 1e-7}))
	if err != nil {
		t.Fatal(err)
	}
	prep := NewPrepared(pr)
	s := prep.Schedule(Sharded{})
	if s.Len() < n/100 {
		t.Fatalf("sharded scheduled only %d of %d links", s.Len(), n)
	}
	if v := Verify(pr, s); len(v) != 0 {
		t.Fatalf("sharded schedule infeasible at scale: %d violations, first %v", len(v), v[0])
	}
	g := prep.Schedule(Greedy{})
	t.Logf("n=%d: sharded %d links vs greedy %d (%.1f%%)",
		n, s.Len(), g.Len(), 100*float64(s.Len())/float64(g.Len()))
	if s.Len() < g.Len()/2 {
		t.Fatalf("sharded quality collapsed: %d links vs greedy %d", s.Len(), g.Len())
	}
}

// FuzzShardedFeasible drives the partition/solve/merge path with
// fuzzer-chosen tile counts, reservations, and deployment shapes
// (including heavy clustering that piles every link into few tiles).
// Invariants: the merged schedule always passes verification, and
// shards=1 is bit-identical to unsharded greedy.
func FuzzShardedFeasible(f *testing.F) {
	f.Add(uint64(1), 60, 4, 0, 1.0, 0.25)
	f.Add(uint64(2), 200, 64, 3, 5.0, 0.01)
	f.Add(uint64(3), 120, 1, 1, 2.0, 0.9)
	f.Add(uint64(4), 80, 1000, 2, 50.0, 0.5)
	f.Fuzz(func(t *testing.T, seed uint64, n, shards, clusters int, spread, reserve float64) {
		if n < 2 || n > 300 {
			t.Skip()
		}
		if shards < 0 || shards > 2*MaxShards {
			t.Skip()
		}
		if clusters < 0 || clusters > 8 {
			t.Skip()
		}
		if !(spread > 0) || spread > 1000 || math.IsNaN(reserve) || math.IsInf(reserve, 0) {
			t.Skip()
		}
		cfg := network.GenConfig{N: n, Region: 400, MinLinkLen: 5, MaxLinkLen: 20, Rate: 1}
		if clusters > 0 {
			cfg.Clusters, cfg.ClusterSpread = clusters, spread
		}
		ls, err := network.Generate(cfg, seed, 0)
		if err != nil {
			t.Skip()
		}
		pr := MustNewProblem(ls, radio.DefaultParams(), WithSparseField(SparseOptions{}))
		prep := NewPrepared(pr)
		s := prep.Schedule(Sharded{Shards: shards, Reserve: reserve})
		if !Feasible(pr, s) {
			t.Fatalf("seed=%d n=%d shards=%d reserve=%v: merged schedule infeasible", seed, n, shards, reserve)
		}
		if shards == 1 {
			g := prep.Schedule(Greedy{})
			if len(s.Active) != len(g.Active) {
				t.Fatalf("shards=1 not identical: %d vs %d active", len(s.Active), len(g.Active))
			}
			for i := range s.Active {
				if s.Active[i] != g.Active[i] {
					t.Fatalf("shards=1 Active[%d]=%d, greedy %d", i, s.Active[i], g.Active[i])
				}
			}
		}
	})
}
