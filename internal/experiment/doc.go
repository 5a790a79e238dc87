// Package experiment regenerates every table and figure of the paper's
// evaluation (§V) plus the ablations DESIGN.md calls out.
//
// Each figure is a Spec: an x-axis sweep, a set of algorithms, and a
// metric (Monte-Carlo failed transmissions for Fig. 5, throughput for
// Fig. 6). Run executes the spec — instances × algorithms × slots fan
// out over a worker pool — and returns a Table whose rows are series
// points with means and 95% confidence intervals. Tables render as
// aligned plain text (the repository's figures are numeric, not
// graphical) and as CSV for external plotting.
//
// Every cell of every table is a deterministic function of the spec
// and the base seed, bit for bit at any worker count: results fold
// into the table in (x, instance) order.
package experiment
