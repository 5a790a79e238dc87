package sched

import (
	"context"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/obs"
)

// LDP is the paper's Link Diversity Partition algorithm (§IV-A,
// Algorithm 1): for each length class L_k it tiles the plane with
// squares of side 2^{h_k+1}·β·δ, 4-colors them, picks the
// highest-rate receiver per same-color square, and returns the best of
// the 4·g(L) candidate schedules. Feasibility is Theorem 4.1;
// the O(g(L)) guarantee is Theorem 4.2.
type LDP struct {
	// Banded switches to the original [14]-style disjoint length
	// classes (both lower- and upper-bounded). The paper's improvement
	// is the nested classes used when Banded is false; the ablation
	// experiment measures the difference.
	Banded bool
}

// Name implements Algorithm.
func (a LDP) Name() string {
	if a.Banded {
		return "ldp-banded"
	}
	return "ldp"
}

// Schedule implements Algorithm.
func (a LDP) Schedule(pr *Problem) Schedule { return schedule(a, pr) }

// solve implements solver: phases "classes" (length decomposition +
// headroom) and "partition" (grid tiling and candidate selection), the
// latter counting length classes, grid cells bucketed, and candidate
// schedules compared.
func (a LDP) solve(ctx context.Context, pr *Problem, scr *Scratch, dst []int) (Schedule, error) {
	sp := obs.SpanFrom(ctx)
	ph := sp.Child("classes")
	classes := pr.Links.LengthClasses()
	if a.Banded {
		classes = pr.Links.BandedLengthClasses()
	}
	budget, spread, usable := pr.headroomIn(boolsIn(&scr.usable, pr.N()))
	classes = filterClasses(classes, usable)
	beta := ldpBetaFor(pr.Params, budget, spread)
	ph.End()
	best := gridPartitionBest(pr, scr.receiversOf(pr), classes, beta, sp)
	return finishSchedule(a.Name(), best, dst), nil
}

// filterClasses drops class members the headroom analysis marked
// unusable (noise eating more than half their budget). A no-op on the
// paper's zero-noise model.
func filterClasses(classes []network.LengthClass, usable []bool) []network.LengthClass {
	out := make([]network.LengthClass, len(classes))
	for k, c := range classes {
		out[k] = network.LengthClass{H: c.H, Ceiling: c.Ceiling}
		for _, i := range c.Members {
			if usable[i] {
				out[k].Members = append(out[k].Members, i)
			}
		}
	}
	return out
}

// gridPartitionBest runs the shared diversity-partition scheduling core
// for a given class decomposition and grid constant over pr's receiver
// positions, returning the candidate with the highest total rate. It is
// shared verbatim between LDP (fading β) and ApproxLogN (deterministic
// β): the paper's comparison isolates exactly this one constant. The
// partition phase and its cell/candidate counters record under sp.
func gridPartitionBest(pr *Problem, receivers []geom.Point, classes []network.LengthClass, beta float64, sp obs.Span) []int {
	if pr.N() == 0 {
		return nil
	}
	ph := sp.Child("partition")
	defer ph.End()
	region := geom.BoundingBox(receivers)
	var (
		best       []int
		bestRate   float64
		nClasses   int64
		nCells     int64
		candidates int64
	)
	for _, class := range classes {
		if len(class.Members) == 0 {
			continue
		}
		nClasses++
		side := class.Ceiling * beta // 2^{h_k+1}·δ·β (Eq. 37 applied to Eq. 36)
		grid := geom.NewGrid(region, side)
		// Bucket the class's receivers by square; member order keeps
		// index-ascending iteration for deterministic tie-breaks.
		buckets := make(map[geom.Cell][]int)
		for _, i := range class.Members {
			c := grid.CellOf(receivers[i])
			buckets[c] = append(buckets[c], i)
		}
		nCells += int64(len(buckets))
		for color := 0; color < 4; color++ {
			candidates++
			var cand []int
			var rate float64
			for cell, members := range buckets {
				if cell.Color() != color {
					continue
				}
				pick := members[0]
				for _, i := range members[1:] {
					if pr.Links.Rate(i) > pr.Links.Rate(pick) {
						pick = i
					}
				}
				cand = append(cand, pick)
				rate += pr.Links.Rate(pick)
			}
			if rate > bestRate || (rate == bestRate && betterTie(cand, best)) {
				best, bestRate = cand, rate
			}
		}
	}
	ph.Add(obs.KeyClasses, nClasses)
	ph.Add(obs.KeyGridCells, nCells)
	ph.Add(obs.KeyCandidates, candidates)
	return best
}

// betterTie makes the candidate choice deterministic when two
// schedules have equal rate: prefer more links, then lexicographically
// smaller sorted index set. Map iteration order must not leak into
// results.
func betterTie(cand, best []int) bool {
	if best == nil {
		return true
	}
	if len(cand) != len(best) {
		return len(cand) > len(best)
	}
	cs := NewSchedule("", cand)
	bs := NewSchedule("", best)
	for k := range cs.Active {
		if cs.Active[k] != bs.Active[k] {
			return cs.Active[k] < bs.Active[k]
		}
	}
	return false
}

func init() {
	mustRegister(LDP{})
	mustRegister(LDP{Banded: true})
}
