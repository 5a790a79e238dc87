// Package mc is the Monte-Carlo channel simulator behind the paper's
// Fig. 5 measurement: given a schedule, it draws independent Rayleigh
// fading realizations for a number of time slots, decides every
// scheduled receiver's realized SINR against γ_th, and counts failed
// transmissions (SINR < γ_th).
//
// Coherence blocks (one slot each under i.i.d. fading) fan out over a
// bounded worker pool. Block b draws from its own
// rng.Stream(seed, "mc-slot", BlockOffset+b), one 64-bit value per
// (sender, receiver) pair, so the counted failures are bit-identical
// at any GOMAXPROCS. radio.RowOutcome decides each receiver once per
// block from those draws: exponentials are evaluated only for the
// signals and for the rows its bracket leaves undecided
// (Result.ExactRows), and the outcomes equal those of the exact draws.
// The engine also reports the closed-form expectation from Theorem 3.1
// so the harness can cross-check simulation against analysis on every
// figure point.
package mc
