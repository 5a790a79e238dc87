// Package radio implements the two channel models of the paper:
//
//   - the Rayleigh-fading model (paper §II): instantaneous received
//     power Z_ij is exponential with mean P·d_ij^{−α}; Theorem 3.1 gives
//     the closed-form success probability and Corollary 3.1 its linear
//     interference-factor equivalent, both exposed here;
//   - the deterministic SINR ("physical") model used by the baseline
//     algorithms ApproxLogN [14] and ApproxDiversity [15], in which the
//     received power is exactly P·d^{−α}.
//
// The package also draws instantaneous channel realizations so the
// Monte-Carlo engine can count the failed transmissions of a schedule
// under real fading — the measurement behind the paper's Fig. 5.
// RowOutcome is that measurement's kernel, shared with the traffic
// engine: it decides one receiver's slot outcome from the row's draws,
// evaluating only the signal's exponential unless the bit-length
// bracket on the interferers' exponentials straddles γ_th.
//
// Noise is ignored throughout (paper Eq. 8, following [14,15,19]); the
// Params type still carries N0 so callers can enable it and quantify
// how little it changes verdicts (the radio tests do exactly that).
package radio
