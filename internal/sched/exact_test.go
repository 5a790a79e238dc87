package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/radio"
)

// bruteForce enumerates all 2^N subsets and returns the best feasible
// throughput — the oracle the branch-and-bound is checked against.
func bruteForce(pr *Problem) (float64, []int) {
	n := pr.N()
	bestRate := 0.0
	var bestSet []int
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		s := NewSchedule("", set)
		if !Feasible(pr, s) {
			continue
		}
		if r := s.Throughput(pr); r > bestRate {
			bestRate, bestSet = r, set
		}
	}
	return bestRate, bestSet
}

func smallProblem(t testing.TB, n int, seed uint64, region float64) *Problem {
	t.Helper()
	cfg := network.PaperConfig(n)
	cfg.Region = region
	ls, err := network.Generate(cfg, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return MustNewProblem(ls, radio.DefaultParams())
}

func TestExactMatchesBruteForce(t *testing.T) {
	// Dense little instances (small region → real conflicts) across
	// several seeds; N up to 12 keeps the 2^N oracle fast.
	for _, n := range []int{4, 8, 12} {
		for seed := uint64(1); seed <= 4; seed++ {
			pr := smallProblem(t, n, seed, 120)
			want, _ := bruteForce(pr)
			s := (Exact{}).Schedule(pr)
			if !Feasible(pr, s) {
				t.Fatalf("n=%d seed=%d: exact schedule infeasible", n, seed)
			}
			if got := s.Throughput(pr); math.Abs(got-want) > 1e-9 {
				t.Errorf("n=%d seed=%d: exact %v, brute force %v", n, seed, got, want)
			}
		}
	}
}

func TestExactMatchesBruteForceHeterogeneousRates(t *testing.T) {
	cfg := network.PaperConfig(10)
	cfg.Region = 100
	cfg.RateMax = 9
	for seed := uint64(1); seed <= 3; seed++ {
		ls, err := network.Generate(cfg, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		pr := MustNewProblem(ls, radio.DefaultParams())
		want, _ := bruteForce(pr)
		got := (Exact{}).Schedule(pr).Throughput(pr)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d: exact %v, brute force %v", seed, got, want)
		}
	}
}

func TestExactDominatesHeuristics(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		pr := smallProblem(t, 14, seed, 150)
		opt := (Exact{}).Schedule(pr).Throughput(pr)
		for _, a := range fadingAlgorithms() {
			if got := a.Schedule(pr).Throughput(pr); got > opt+1e-9 {
				t.Errorf("seed %d: %s throughput %v exceeds optimum %v", seed, a.Name(), got, opt)
			}
		}
	}
}

func TestExactSplitDepthInvariance(t *testing.T) {
	pr := smallProblem(t, 13, 7, 150)
	base := Exact{SplitDepth: 1}.Schedule(pr).Throughput(pr)
	for _, d := range []int{2, 4, 6, 13} {
		if got := (Exact{SplitDepth: d}.Schedule(pr)).Throughput(pr); math.Abs(got-base) > 1e-9 {
			t.Errorf("split depth %d changes the optimum: %v vs %v", d, got, base)
		}
	}
}

// TestExactDeterministicUnderTies: unit rates make equal-throughput
// optima common, and the parallel subtree tasks race to find them; the
// returned set must still be the same on every run.
func TestExactDeterministicUnderTies(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		pr := smallProblem(t, 12, seed, 120)
		want := (Exact{}).Schedule(pr).Active
		for run := 0; run < 30; run++ {
			if got := (Exact{}).Schedule(pr).Active; !slices.Equal(got, want) {
				t.Fatalf("seed %d run %d: exact returned %v, first run %v", seed, run, got, want)
			}
		}
	}
}

// exactFormerOrder is the decision order Exact used to sort for
// itself: a stable sort by descending rate, ties by ascending length.
func exactFormerOrder(pr *Problem) []int {
	order := make([]int, pr.N())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(pr.Links.Rate(b), pr.Links.Rate(a)); c != 0 {
			return c
		}
		return cmp.Compare(pr.Links.Length(a), pr.Links.Length(b))
	})
	return order
}

// TestExactOrderIsGreedyPickOrder: Exact decides in Greedy's cached
// pick order, which must be exactly the order it used to sort itself,
// so its search, tie-breaks and counters are unchanged. Checked where
// ties decide: a 5×5 grid with every rate and length tied, paper sets
// with integer rates 1–3, and those sets with every third link's
// length forced equal.
func TestExactOrderIsGreedyPickOrder(t *testing.T) {
	check := func(t *testing.T, name string, links []network.Link) {
		t.Helper()
		pr := MustNewProblem(network.MustNewLinkSet(links), radio.DefaultParams())
		want := exactFormerOrder(pr)
		if got := handleScratch(t, pr).pickOrder(pr, greedyPick); !slices.Equal(got, want) {
			t.Fatalf("%s: greedy pick order %v\nformer Exact order %v", name, got, want)
		}
	}
	var grid []network.Link
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			s := geom.Point{X: float64(100 * x), Y: float64(100 * y)}
			grid = append(grid, network.Link{Sender: s, Receiver: geom.Point{X: s.X + 10, Y: s.Y}, Rate: 1})
		}
	}
	check(t, "grid", grid)
	for seed := uint64(1); seed <= 4; seed++ {
		ls, err := network.Generate(network.PaperConfig(60), seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		links := ls.Links()
		for i := range links {
			links[i].Rate = float64(1 + (i*7+int(seed))%3)
		}
		check(t, fmt.Sprintf("seed %d", seed), links)
		for i := 0; i < len(links); i += 3 {
			// Whole-unit senders keep the 10-unit offset exact, so these
			// lengths tie bit for bit.
			s := geom.Point{X: math.Round(links[i].Sender.X), Y: math.Round(links[i].Sender.Y)}
			links[i].Sender, links[i].Receiver = s, geom.Point{X: s.X + 10, Y: s.Y}
		}
		check(t, fmt.Sprintf("seed %d, equal lengths", seed), links)
	}
}

func TestExactRefusesHugeInstance(t *testing.T) {
	pr := paperProblem(t, 40, 1)
	defer func() {
		if recover() == nil {
			t.Error("Exact accepted a 40-link instance")
		}
	}()
	(Exact{}).Schedule(pr)
}

func TestExactMaxNOverride(t *testing.T) {
	pr := smallProblem(t, 18, 2, 400)
	s := Exact{MaxN: 18}.Schedule(pr)
	if !Feasible(pr, s) {
		t.Error("exact with raised MaxN returned infeasible schedule")
	}
}

// TestTheorem42EmpiricalRatio checks the LDP guarantee on instances
// small enough to solve exactly: OPT/LDP ≤ 16·g(L).
func TestTheorem42EmpiricalRatio(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		pr := smallProblem(t, 12, seed, 100)
		opt := (Exact{}).Schedule(pr).Throughput(pr)
		ldp := (LDP{}).Schedule(pr).Throughput(pr)
		if ldp == 0 {
			t.Fatalf("seed %d: LDP scheduled nothing", seed)
		}
		bound := LDPApproximationBound(pr.Links.Diversity())
		if ratio := opt / ldp; ratio > bound {
			t.Errorf("seed %d: OPT/LDP = %v exceeds 16·g = %v", seed, ratio, bound)
		}
	}
}

// TestTheorem44EmpiricalRatio measures the RLE approximation ratio on
// exactly-solvable uniform-rate instances against the paper's claimed
// constant 3^α·5ε/(c₂(1−ε)γ_th) + 1.
//
// Reproduction finding (recorded in EXPERIMENTS.md): the literal
// constant does NOT hold empirically — e.g. seed 5 below yields
// OPT/RLE = 4 against a claimed bound of ≈3.73 at the paper's own
// parameters. The implementation follows Algorithm 2 verbatim, and the
// paper's appendix proof carries visible constant typos (budgets
// written c₂γ_εγ_th, a z missing its c₂ factor), so we treat the bound
// as correct up to a modest constant: the test enforces a 2× envelope
// and requires the majority of seeds to satisfy the literal constant.
func TestTheorem44EmpiricalRatio(t *testing.T) {
	p := radio.DefaultParams()
	bound := RLEApproximationBound(p, DefaultC2)
	violations := 0
	const seeds = 6
	for seed := uint64(1); seed <= seeds; seed++ {
		pr := smallProblem(t, 12, seed, 100)
		opt := (Exact{}).Schedule(pr).Throughput(pr)
		rle := (RLE{}).Schedule(pr).Throughput(pr)
		if rle == 0 {
			t.Fatalf("seed %d: RLE scheduled nothing", seed)
		}
		ratio := opt / rle
		if ratio > 2*bound {
			t.Errorf("seed %d: OPT/RLE = %v exceeds even 2× the paper bound %v", seed, ratio, bound)
		}
		if ratio > bound {
			violations++
			t.Logf("seed %d: OPT/RLE = %v exceeds the literal Theorem 4.4 constant %v (known finding)",
				seed, ratio, bound)
		}
	}
	if violations > seeds/2 {
		t.Errorf("literal Theorem 4.4 constant violated on %d/%d seeds — worse than the recorded finding", violations, seeds)
	}
}

func TestILPEquivalence(t *testing.T) {
	// The big-M matrix form must accept exactly the feasible schedules:
	// sweep all subsets of a small dense instance and compare verdicts.
	pr := smallProblem(t, 8, 3, 80)
	ilp := BuildILP(pr)
	n := pr.N()
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]bool, n)
		var set []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				x[i] = true
				set = append(set, i)
			}
		}
		setForm := Feasible(pr, NewSchedule("", set))
		matrixForm := ilp.FeasibleAssignment(x)
		if setForm != matrixForm {
			t.Fatalf("mask %b: set-form %v, ILP %v", mask, setForm, matrixForm)
		}
		wantObj := NewSchedule("", set).Throughput(pr)
		if got := ilp.Objective(x); math.Abs(got-wantObj) > 1e-12 {
			t.Fatalf("mask %b: objective %v, want %v", mask, got, wantObj)
		}
	}
}

func TestILPBigMSufficient(t *testing.T) {
	// M must dominate any achievable left-hand side so x_j = 0 rows are
	// vacuous: the all-on assignment's worst row is the certificate.
	pr := smallProblem(t, 10, 5, 60)
	ilp := BuildILP(pr)
	n := pr.N()
	for j := 0; j < n; j++ {
		var lhs float64
		for i := 0; i < n; i++ {
			lhs += ilp.Coeff(i, j)
		}
		if lhs > ilp.M {
			t.Errorf("row %d: max lhs %v exceeds M %v", j, lhs, ilp.M)
		}
	}
}

func TestILPWriteLP(t *testing.T) {
	pr := smallProblem(t, 4, 1, 100)
	ilp := BuildILP(pr)
	var buf testWriter
	if err := ilp.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	out := string(buf)
	for _, tok := range []string{"Maximize", "Subject To", "Binary", "End", "x0", "c3"} {
		if !contains(out, tok) {
			t.Errorf("LP output missing %q", tok)
		}
	}
}

type testWriter []byte

func (w *testWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkExact16(b *testing.B) {
	pr := smallProblem(b, 16, 1, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := (Exact{}).Schedule(pr)
		if s.Len() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkLDP300(b *testing.B) {
	pr := paperProblem(b, 300, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(LDP{}).Schedule(pr)
	}
}

func BenchmarkRLE300(b *testing.B) {
	pr := paperProblem(b, 300, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(RLE{}).Schedule(pr)
	}
}

func BenchmarkProblemConstruction300(b *testing.B) {
	ls, err := network.Generate(network.PaperConfig(300), 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	params := radio.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewProblem(ls, params); err != nil {
			b.Fatal(err)
		}
	}
}
