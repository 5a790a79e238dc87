package sched

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/rng"
)

// paperRegion is the region side that keeps the paper's §V density
// (300 links on a 500×500 square) at n links.
func paperRegion(n int) float64 { return 500 * math.Sqrt(float64(n)/300) }

// quadrantLinks is an n-link deployment at the paper's density, drawn
// as four paper-density tiles, one per quadrant of the region, and
// listed quadrant by quadrant — the shape of the load benchmark's link
// sets. n must be a multiple of 4.
func quadrantLinks(t testing.TB, n int, seed uint64) *network.LinkSet {
	t.Helper()
	half := paperRegion(n) / 2
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
	ls, err := network.NewLinkSet(links)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// uniformLinks is the same density drawn over the whole region at once,
// so link indices carry no spatial order.
func uniformLinks(t testing.TB, n int, seed uint64) *network.LinkSet {
	t.Helper()
	cfg := network.PaperConfig(n)
	cfg.Region = paperRegion(n)
	ls, err := network.Generate(cfg, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// TestDLSElectionMatchesAllPairs is the differential gate for the
// rank-ordered leader election: DLS must produce the schedule and the
// round counters of a copy of the all-pairs election it replaced, on
// quadrant-listed and uniformly listed paper-density sets over the
// load benchmark's ε range. The short-link instance (one link of
// length 0.5) drives most priorities u^((d/δ)²) to exactly 0; it is
// spread over 36 times the paper's area, so tied links often contend
// only with each other and the index tie-break decides the election.
func TestDLSElectionMatchesAllPairs(t *testing.T) {
	const n = 2000
	type instance struct {
		name string
		ls   *network.LinkSet
		seed uint64
	}
	var insts []instance
	for seed := uint64(1); seed <= 3; seed++ {
		insts = append(insts,
			instance{fmt.Sprintf("quadrant/seed=%d", seed), quadrantLinks(t, n, seed), seed},
			instance{fmt.Sprintf("uniform/seed=%d", seed), uniformLinks(t, n, seed), seed})
	}
	cfg := network.PaperConfig(600)
	cfg.Region = 6 * paperRegion(600)
	spread, err := network.Generate(cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	short := spread.Links()
	short[0].Receiver = short[0].Sender.Add(0.5, 0)
	sls := network.MustNewLinkSet(short)
	zeros := 0
	for i := 0; i < sls.Len(); i++ {
		u := rng.Stream(4, "dls-prio", uint64(i)<<20).Float64Open()
		if w := sls.Length(i) / 0.5; math.Pow(u, w*w) == 0 {
			zeros++
		}
	}
	if zeros < 2 {
		t.Fatalf("only %d round-0 priorities underflow to 0: the index tie-break goes untested", zeros)
	}
	insts = append(insts, instance{"min-length-0.5", sls, 4})

	for _, in := range insts {
		prep, err := Prepare(in.ls, radio.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.005, 0.01, 0.03, 0.05} {
			t.Run(fmt.Sprintf("%s/eps=%v", in.name, eps), func(t *testing.T) {
				p := radio.DefaultParams()
				p.Eps = eps
				pp, err := prep.Derive(p)
				if err != nil {
					t.Fatal(err)
				}
				a := DLS{Seed: in.seed}
				wantTr, gotTr := obs.NewTracer(), obs.NewTracer()
				want, err := allPairsDLS(obs.WithTracer(context.Background(), wantTr), a, pp.Problem(), new(Scratch))
				if err != nil {
					t.Fatal(err)
				}
				got, err := pp.ScheduleInto(obs.WithTracer(context.Background(), gotTr), a, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("ranked election %v != all-pairs %v", got.Active, want.Active)
				}
				ws, gs := wantTr.Stats(), gotTr.Stats()
				for _, k := range []string{obs.KeyRounds, obs.KeyWinner, obs.KeyNacks, obs.KeyGaveUp} {
					if ws.Counter(k) != gs.Counter(k) {
						t.Errorf("%s: ranked %d != all-pairs %d", k, gs.Counter(k), ws.Counter(k))
					}
				}
				if gs.Counter(obs.KeyContentionChecks) == 0 && gs.Counter(obs.KeyWinner) > 1 {
					t.Error("contention_checks not reported")
				}
			})
		}
	}
}

// allPairsDLS is DLS as it ran before the rank-ordered election: each
// undecided link is tested against every other undecided link, in
// index order, until one that contends with it outranks it. It is kept
// here only as the reference TestDLSElectionMatchesAllPairs compares
// against.
func allPairsDLS(ctx context.Context, a DLS, pr *Problem, scr *Scratch) (Schedule, error) {
	tr := obs.TracerFrom(ctx)
	rounds := a.Rounds
	if rounds == 0 {
		rounds = 48
	}
	c2 := a.C2
	if c2 == 0 {
		c2 = DefaultC2
	}
	retries := a.MaxRetries
	if retries == 0 {
		retries = 3
	}
	n := pr.N()
	hb, spread, usable := pr.headroomIn(boolsIn(&scr.usable, n))
	c1 := rleC1For(pr.Params, hb, spread, c2)
	budget := c2 * hb

	state := intsLikeStates(&scr.state, n)
	for i := range state {
		if !usable[i] {
			state[i] = dlsGaveUp
		}
	}
	retry := intsIn(&scr.retry, n)
	clear(retry)
	acc := scr.zeroAccum(pr)
	active := scr.activeBuf(n)

	contends := func(i, j int) bool {
		return pr.Links.Link(j).Sender.Dist(pr.Links.Link(i).Receiver) < c1*pr.Links.Length(i) ||
			pr.Links.Link(i).Sender.Dist(pr.Links.Link(j).Receiver) < c1*pr.Links.Length(j)
	}

	var ranRounds, totalWinners, totalNacks int64
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return Schedule{}, err
		}
		ranRounds++
		undecided := undecidedLinks(state, &scr.undecided)
		if len(undecided) == 0 {
			break
		}
		for _, i := range undecided {
			if acc.Load(i) > budget {
				state[i] = dlsGaveUp
				continue
			}
			for _, j := range active {
				if pr.Links.Link(i).Sender.Dist(pr.Links.Link(j).Receiver) < c1*pr.Links.Length(j) {
					state[i] = dlsGaveUp
					break
				}
			}
		}
		undecided = undecidedLinks(state, &scr.undecided)
		if len(undecided) == 0 {
			break
		}

		delta, _ := pr.Links.MinLength()
		prio := floatsIn(&scr.prio, n)
		for _, i := range undecided {
			u := rng.Stream(a.Seed, "dls-prio", uint64(i)<<20|uint64(round)).Float64Open()
			w := pr.Links.Length(i) / delta
			prio[i] = math.Pow(u, w*w)
		}

		winners := scr.winners[:0]
		for _, i := range undecided {
			won := true
			for _, j := range undecided {
				if i == j || !contends(i, j) {
					continue
				}
				if prio[j] > prio[i] || (prio[j] == prio[i] && j < i) {
					won = false
					break
				}
			}
			if won {
				winners = append(winners, i)
			}
		}
		scr.winners = winners
		if len(winners) == 0 {
			continue
		}

		totalWinners += int64(len(winners))
		_, nacks := a.commitRound(budget, state, retry, retries, acc, &active, winners, scr)
		totalNacks += nacks
	}
	var gaveUp int64
	for _, s := range state {
		if s == dlsGaveUp {
			gaveUp++
		}
	}
	tr.Count(obs.KeyRounds, ranRounds)
	tr.Count(obs.KeyWinner, totalWinners)
	tr.Count(obs.KeyNacks, totalNacks)
	tr.Count(obs.KeyGaveUp, gaveUp)
	return finishSchedule(a.Name(), active, nil), nil
}

// BenchmarkDLS times one warm DLS solve on an n=2000 paper-density set
// listed quadrant by quadrant, like the load benchmark's link sets, at
// the ends of its ε range. contention-checks/op is the election's
// deterministic work count.
func BenchmarkDLS(b *testing.B) {
	prep, err := Prepare(quadrantLinks(b, 2000, 1), radio.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0.01, 0.05} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			p := radio.DefaultParams()
			p.Eps = eps
			pp, err := prep.Derive(p)
			if err != nil {
				b.Fatal(err)
			}
			var a Algorithm = DLS{Seed: 1}
			tr := obs.NewTracer()
			s, err := pp.ScheduleInto(obs.WithTracer(context.Background(), tr), a, nil) // fills the rows the solve reads
			if err != nil {
				b.Fatal(err)
			}
			checks := tr.Stats().Counter(obs.KeyContentionChecks)
			buf := s.Active
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := pp.ScheduleInto(ctx, a, buf)
				if err != nil {
					b.Fatal(err)
				}
				buf = s.Active
			}
			b.ReportMetric(float64(checks), "contention-checks/op")
			b.ReportMetric(float64(len(buf)), "links")
		})
	}
}
