package sched

// Repair turns an infeasible schedule into a feasible one by greedy
// violation-driven elimination: while any receiver exceeds its budget,
// drop the scheduled link contributing the largest interference factor
// to the worst-violated receiver (dropping the violated link itself
// when it is its own worst enemy — i.e. its noise term dominates).
//
// Repair(pr, s) is idempotent and returns s unchanged when s is
// already feasible. It is the composition tool for running the
// deterministic baselines — or any schedule from outside the fading
// model — safely under Rayleigh fading, and for salvaging
// LDP/RLE schedules on inputs outside their proven regime (extreme
// power spreads).
func Repair(pr *Problem, s Schedule) Schedule {
	active := append([]int(nil), s.Active...)
	// acc tracks noise_j + Σ factors from the alive set onto each j,
	// maintained incrementally as links are dropped.
	acc := NewAccum(pr)
	for _, i := range active {
		acc.AddLink(i)
	}
	alive := make(map[int]bool, len(active))
	for _, i := range active {
		alive[i] = true
	}
	gammaEps := pr.GammaEps()
	for {
		worst, worstVal := -1, 0.0
		for _, j := range active {
			if !alive[j] {
				continue
			}
			if v := acc.Load(j); !pr.Params.InformedBudget(v, gammaEps) && v > worstVal {
				worst, worstVal = j, v
			}
		}
		if worst < 0 {
			break
		}
		// Biggest contributor to the worst receiver; the receiver's own
		// noise can exceed every contribution, in which case the link
		// is unsalvageable and is dropped itself.
		drop, contrib := worst, pr.NoiseTerm(worst)
		for _, i := range active {
			if i == worst || !alive[i] {
				continue
			}
			if c := acc.Contribution(i, worst); c > contrib {
				drop, contrib = i, c
			}
		}
		alive[drop] = false
		acc.RemoveLink(drop)
	}
	var kept []int
	for _, i := range active {
		if alive[i] {
			kept = append(kept, i)
		}
	}
	return NewSchedule(s.Algorithm+"+repair", kept)
}
