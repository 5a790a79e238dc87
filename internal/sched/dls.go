package sched

import (
	"context"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/rng"
)

// DLS is a decentralized link scheduler. The paper's conclusion claims
// a decentralized algorithm of this name but its body never defines
// one; this implementation is a reconstruction (documented as an
// extension in DESIGN.md) that follows the standard
// contention/probing/backoff recipe while enforcing the same
// Corollary 3.1 budgets as RLE:
//
//  1. Every undecided link draws a fresh random priority each round
//     from its own seeded stream.
//  2. A link wins its round when its priority beats every undecided
//     link it mutually contends with (either sender inside the other's
//     c₁-elimination disk — the same radius RLE uses).
//  3. Winners tentatively activate. Each receiver then "probes the
//     channel": if any active receiver's interference budget c₂·γ_ε is
//     violated, the tentative winner contributing most to the worst
//     violation backs off (NACK), up to MaxRetries per link, after
//     which the link gives up permanently.
//  4. Undecided links whose budget is already exhausted by the active
//     set, or whose sender sits inside an active receiver's
//     elimination disk, give up — the RLE elimination rules, applied
//     locally.
//
// The active set is feasible after every round by construction of the
// rollback, so the final schedule is feasible regardless of when the
// round limit stops the protocol.
type DLS struct {
	// Seed drives all priority draws; the schedule is a deterministic
	// function of (Problem, Seed, Rounds, C2, MaxRetries).
	Seed uint64
	// Rounds caps the number of synchronous rounds. Zero means 48,
	// enough for every deployment in the evaluation to quiesce.
	Rounds int
	// C2 splits the budget exactly as in RLE; zero means DefaultC2.
	C2 float64
	// MaxRetries is how many NACKs a link absorbs before giving up.
	// Zero means 3.
	MaxRetries int
}

// Name implements Algorithm.
func (a DLS) Name() string { return "dls" }

type dlsState int

const (
	dlsUndecided dlsState = iota
	dlsActive
	dlsGaveUp
)

// Schedule implements Algorithm.
func (a DLS) Schedule(pr *Problem) Schedule { return schedule(a, pr) }

// solve implements solver. Cancellation is checked at each synchronous
// round boundary — the natural preemption point of the protocol, since
// a half-executed round may leave the tentative set infeasible. On
// cancellation ctx.Err() is returned and the partial active set is
// discarded. All per-round state — priorities, winner lists, the
// tentative accumulator — lives in the scratch, so the round loop
// stops churning slices once the scratch is warm.
//
// The one phase, "rounds", counts the rounds the protocol actually ran
// (quiescence can end it early), total round winners, NACK backoffs,
// links that gave up, and leader-election contention checks.
func (a DLS) solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	ph := obs.SpanFrom(ctx).Child("rounds")
	defer ph.End()
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
	// Headroom handles the noise / heterogeneous-power extensions; on
	// the paper's model hb = γ_ε, spread = 1, all links usable.
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
	acc := scr.zeroAccum(pr) // factor on each receiver from active set
	active := scr.activeBuf(n)

	// contends reports the mutual-interference relation of step 2.
	contends := func(i, j int) bool {
		return pr.Links.Link(j).Sender.Dist(pr.Links.Link(i).Receiver) < c1*pr.Links.Length(i) ||
			pr.Links.Link(i).Sender.Dist(pr.Links.Link(j).Receiver) < c1*pr.Links.Length(j)
	}

	// Step 1's priority scale δ, the shortest link length, is fixed for
	// the whole run.
	delta, _ := pr.Links.MinLength()
	prio := floatsIn(&scr.prio, n)

	var ranRounds, totalWinners, totalNacks, checks int64
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return Schedule{}, err
		}
		ranRounds++
		// Local elimination (step 4): links the active set already rules out.
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

		// Step 1: fresh priorities, biased toward short links: raising a
		// uniform draw to the power (d_ii/δ)² makes a link of length d
		// win contention against one of length d' with probability
		// d'²/(d²+d'²). This is the decentralized analogue of RLE's
		// shortest-first pick rule — each node needs only its own link
		// length and δ (a deployment constant) to compute it. prio is
		// indexed by link; only undecided entries are written and read.
		for _, i := range undecided {
			u := rng.Stream(a.Seed, "dls-prio", uint64(i)<<20|uint64(round)).Float64Open()
			w := pr.Links.Length(i) / delta
			prio[i] = math.Pow(u, w*w)
		}

		// Step 2: local leader election. Link j outranks link i when its
		// priority is higher, or equal with the lower index (which keeps
		// the election deterministic on equal draws, as when long links'
		// priorities underflow to 0). A link wins when no contending
		// undecided link outranks it, so ranking the undecided links once
		// lets each check only the links above it and stop at the first
		// contender. Winners leave in index order, which commitRound's
		// NACK tie-break depends on.
		ps := scr.pickSorterBufs(len(undecided), false)
		for k, i := range undecided {
			ps.order[k], ps.k1[k] = i, -prio[i]
		}
		sort.Stable(ps)
		winners := scr.winners[:0]
		for r, i := range ps.order {
			won := true
			for _, j := range ps.order[:r] {
				checks++
				if contends(i, j) {
					won = false
					break
				}
			}
			if won {
				winners = append(winners, i)
			}
		}
		sort.Ints(winners)
		scr.winners = winners
		if len(winners) == 0 {
			continue
		}

		// Step 3: tentative activation + probing rollback.
		totalWinners += int64(len(winners))
		_, nacks := a.commitRound(budget, state, retry, retries, acc, &active, winners, scr)
		totalNacks += nacks
	}
	scr.active = active
	if ph.Enabled() {
		var gaveUp int64
		for _, s := range state {
			if s == dlsGaveUp {
				gaveUp++
			}
		}
		ph.Add(obs.KeyRounds, ranRounds)
		ph.Add(obs.KeyWinner, totalWinners)
		ph.Add(obs.KeyNacks, totalNacks)
		ph.Add(obs.KeyGaveUp, gaveUp)
		ph.Add(obs.KeyContentionChecks, checks)
	}
	return finishSchedule(a.Name(), active, dst), nil
}

// commitRound applies one round's winners with the NACK rollback and
// returns how many survived plus how many NACK backoffs the probing
// issued. acc and active are updated in place; scr supplies the
// tentative accumulator, the in-winner mask, and the members buffer.
func (a DLS) commitRound(budget float64, state []dlsState, retry []int, maxRetries int, acc *Accum, active *[]int, winners []int, scr *Scratch) (joined int, nacks int64) {
	// Tentative view of interference with all winners in.
	tent := &scr.acc2
	acc.CloneInto(tent)
	for _, w := range winners {
		tent.AddLink(w)
	}
	in := boolsIn(&scr.inWin, len(state))
	for _, w := range winners {
		in[w] = true
	}
	members := func() []int {
		out := append(scr.members[:0], *active...)
		for _, w := range winners {
			if in[w] {
				out = append(out, w)
			}
		}
		sort.Ints(out)
		scr.members = out
		return out
	}
	for {
		// Find the worst violated receiver among the tentative set.
		worst, worstOver := -1, 0.0
		for _, j := range members() {
			if over := tent.Load(j) - budget; over > worstOver+1e-15 {
				worst, worstOver = j, over
			}
		}
		if worst < 0 {
			break // feasible under the c₂ budget
		}
		// NACK: the tentative winner contributing most to the worst
		// receiver backs off. Established active links never back off.
		nack, contrib := -1, -1.0
		for _, w := range winners {
			if !in[w] || w == worst {
				continue
			}
			if c := acc.Contribution(w, worst); c > contrib {
				nack, contrib = w, c
			}
		}
		if nack < 0 {
			// The violated receiver is itself the only removable
			// tentative link: drop it.
			if in[worst] {
				nack = worst
			} else {
				break // violation among established links cannot happen; defensive
			}
		}
		in[nack] = false
		tent.RemoveLink(nack)
		nacks++
		retry[nack]++
		if retry[nack] >= maxRetries {
			state[nack] = dlsGaveUp
		}
	}
	for _, w := range winners {
		if in[w] {
			state[w] = dlsActive
			*active = append(*active, w)
			joined++
		}
	}
	acc.CopyFrom(tent)
	return joined, nacks
}

// undecidedLinks collects the still-undecided link indices into *buf.
func undecidedLinks(state []dlsState, buf *[]int) []int {
	out := (*buf)[:0]
	for i, s := range state {
		if s == dlsUndecided {
			out = append(out, i)
		}
	}
	*buf = out
	return out
}

func init() {
	mustRegister(DLS{Seed: 1})
}
