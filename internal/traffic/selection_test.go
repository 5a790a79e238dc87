package traffic

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/sched"
)

// quadrantPrepared is a dense n-link set at the paper's density (300
// links per 500×500), drawn as four tiles and listed quadrant by
// quadrant like the load benchmark's sets. n must be a multiple of 4.
func quadrantPrepared(t testing.TB, n int, seed uint64) *sched.Prepared {
	t.Helper()
	half := 250 * math.Sqrt(float64(n)/300)
	cfg := network.PaperConfig(n / 4)
	cfg.Region = half
	var links []network.Link
	for q := 0; q < 4; q++ {
		dx, dy := float64(q%2)*half, float64(q/2)*half
		ls, err := network.Generate(cfg, seed, uint64(q))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ls.Links() {
			l.Sender, l.Receiver = l.Sender.Add(dx, dy), l.Receiver.Add(dx, dy)
			links = append(links, l)
		}
	}
	pp, err := sched.Prepare(network.MustNewLinkSet(links), radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// scalePrepared is the sparse scale class: region side
// 20000·√(n/20000), α = 4.5, truncated field with cutoff 1e-7.
func scalePrepared(t testing.TB, n int, seed uint64) *sched.Prepared {
	t.Helper()
	cfg := network.PaperConfig(n)
	cfg.Region = 20000 * math.Sqrt(float64(n)/20000)
	ls, err := network.Generate(cfg, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := radio.DefaultParams()
	p.Alpha = 4.5
	pp, err := sched.Prepare(ls, p, sched.WithSparseField(sched.SparseOptions{Cutoff: 1e-7}))
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// fullScanWeighted is the selection-restricted greedy as it ran before
// it listed its candidates: it stable-sorts all n links by the pick
// keys, skips the links the selection excludes, and folds each
// admitted sender's whole factor row into the accumulator. It is kept
// here only as the reference TestWeightedSelectionMatchesFullScan
// compares against.
func fullScanWeighted(pp *sched.Prepared) func(context.Context, sched.Selection, []int) (sched.Schedule, error) {
	pr := pp.Problem()
	return func(ctx context.Context, sel sched.Selection, _ []int) (sched.Schedule, error) {
		if err := ctx.Err(); err != nil {
			return sched.Schedule{}, err
		}
		n := pr.N()
		k1, k2 := make([]float64, n), make([]float64, n)
		order := make([]int, n)
		for i := range order {
			order[i] = i
			if sel.Weights == nil {
				k1[i], k2[i] = -pr.Links.Rate(i), pr.Links.Length(i)
			} else {
				k1[i], k2[i] = -sel.Weights[i], -pr.Links.Rate(i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			i, j := order[a], order[b]
			if k1[i] != k1[j] {
				return k1[i] < k1[j]
			}
			return k2[i] < k2[j]
		})
		acc := sched.NewAccum(pr)
		var active []int
		for _, i := range order {
			if (sel.Mask != nil && !sel.Mask[i]) || (sel.Weights != nil && sel.Weights[i] <= 0) {
				continue
			}
			if !pr.Params.Informed(acc.Load(i)) {
				continue
			}
			ok := true
			for _, j := range active {
				if !pr.Params.Informed(acc.Load(j) + acc.Contribution(i, j)) {
					ok = false
					break
				}
			}
			if ok {
				acc.AddLink(i)
				active = append(active, i)
			}
		}
		return sched.NewSchedule("greedy", active), nil
	}
}

// TestWeightedSelectionMatchesFullScan is the differential gate for
// backlog-sized slots: engine runs whose per-slot solve lists only the
// selected links must equal, field for field, runs through a copy of
// the full-scan loop — every policy, light to saturated arrivals, on a
// dense quadrant-listed set and a sparse scale-class set.
func TestWeightedSelectionMatchesFullScan(t *testing.T) {
	sets := []struct {
		name string
		pp   func(seed uint64) *sched.Prepared
	}{
		{"dense-quadrant", func(seed uint64) *sched.Prepared { return quadrantPrepared(t, 600, seed) }},
		{"sparse-scale", func(seed uint64) *sched.Prepared { return scalePrepared(t, 160, seed) }},
	}
	for _, set := range sets {
		for seed := uint64(1); seed <= 3; seed++ {
			pp := set.pp(seed)
			for _, pol := range []Policy{PolicyBacklog, PolicyMaxQueue, PolicyMaxWeight} {
				for _, rate := range []float64{0.01, 0.05, 1} {
					t.Run(fmt.Sprintf("%s/seed=%d/%s/p=%v", set.name, seed, pol, rate), func(t *testing.T) {
						cfg := Config{Slots: 30, Arrivals: Bernoulli{P: rate}, Policy: pol, Seed: seed}
						want := runWith(t, pp, cfg, fullScanWeighted(pp))
						got := mustRun(t, pp, cfg)
						if got.Delivered == 0 {
							t.Fatal("nothing delivered: the run exercises no solve")
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("listed-candidate run diverged from the full scan:\n got %+v\nwant %+v", got, want)
						}
					})
				}
			}
		}
	}
}

// runWith runs cfg on pp with solve standing in for the engine's
// per-slot selection solve.
func runWith(t *testing.T, pp *sched.Prepared, cfg Config, solve func(context.Context, sched.Selection, []int) (sched.Schedule, error)) Result {
	t.Helper()
	eng, err := New(pp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.solve = solve
	return eng.Run(context.Background())
}

// TestTrafficRunSpanCountsCandidates: the traffic_run span reports the
// selected links summed over slots, the m each slot's solve costs.
func TestTrafficRunSpanCountsCandidates(t *testing.T) {
	pp := paperPrepared(t, 300, 5)
	var want int64
	count := func(ctx context.Context, sel sched.Selection, dst []int) (sched.Schedule, error) {
		for _, w := range sel.Weights {
			if w > 0 {
				want++
			}
		}
		return pp.ScheduleWeightedInto(ctx, sel, dst)
	}
	tr := obs.NewTraceCap("0123456789abcdef", "POST /v1/traffic", 64)
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	eng, err := New(pp, Config{Slots: 40, Arrivals: Bernoulli{P: 0.05}, Policy: PolicyMaxWeight, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng.solve = count
	eng.Run(ctx)
	tr.Finish(200)
	if want == 0 {
		t.Fatal("no link was ever selected")
	}
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "traffic_run" {
			if got := sp.Attrs["candidates"]; got != want {
				t.Fatalf("traffic_run candidates = %v, want %d", got, want)
			}
			return
		}
	}
	t.Fatal("no traffic_run span")
}
