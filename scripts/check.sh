#!/bin/sh
# check.sh — the repository's pre-merge gate: formatting, vet, build,
# and the full test suite under the race detector. Run from anywhere;
# it cds to the repo root. `make check` is the usual entry point.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
# -short skips the 20000-link sparse scale test (race-slowed past
# usefulness) and the golden Fig 5 regeneration; `make test-full`
# runs both. ./... covers every package, including the schedd serving
# stack (internal/server, cmd/schedd) whose suites double as the
# concurrency race tests for the pool, cache, and metrics.
go test -race -short ./...

echo "== observability race pass"
# Re-run the obs registry and serving stack uncached: these suites hold
# the scrape-vs-record and span/counter concurrency race tests.
go test -race -count=1 ./internal/obs ./internal/server

echo "== obs overhead gate"
# TestSpanZeroAlloc is the hard 0 allocs/op gate on the span lifecycle
# (child, attributes, counter Add, End) for both a recording and the
# inert span every untraced solve runs against; BenchmarkSpanInert run
# alongside prints the ns/op evidence.
go test -run TestSpanZeroAlloc -bench BenchmarkSpanInert -benchtime 1000x -count=1 ./internal/obs

echo "== solver conformance gate"
# Under -race, uncached: the one solver-contract table (every
# registered algorithm plus extra configurations, n=24 and n=250, dense
# and sparse; every entry point bit-identical, deterministic,
# Verify-clean for the fading-aware algorithms, shards=1 equal to
# greedy, dead contexts and unknown names refused) and the stats golden
# (phase names and counters folded from each solve's span tree equal
# the recorded testdata/solve_stats_golden.json).
go test -race -run 'TestSolverConformance|TestSolveStatsGolden' -count=1 ./internal/sched/

echo "== prepared zero-alloc gate"
# The steady-state 0 allocs/op contract on greedy/RLE/diversity/DLS
# solves through a Prepared handle. Skipped automatically under -race
# (the detector instruments allocations), so this is the run that
# counts.
go test -run 'TestPreparedSolveZeroAllocs|TestPreparedConcurrent' -count=1 ./internal/sched/

echo "== session stream gate"
# The streaming-session layer uncached under -race: the per-event
# differential oracle, the byte-exact resume/replay contract, TTL and
# drain lifecycle, and the pinned-Prepared cache-pressure regression.
# The fuzz pass then walks the same full HTTP event path for a few
# seconds with the seeded differential corpus.
go test -race -run 'TestSession|TestPrepCache' -count=1 ./internal/server/
go test -fuzz FuzzSessionEvents -fuzztime 5s -run '^$' ./internal/server/

echo "== traffic engine race pass"
# The traffic engine suite uncached under -race: the determinism,
# differential-vs-legacy, and truncation tests all run here.
go test -race -short -count=1 ./internal/traffic/

echo "== traffic zero-alloc gate"
# The steady-state 0 allocs/op contract on the n=1000 slot loop, in a
# saturated shape (bounded queues at their caps) and a light one
# (Bernoulli 0.01, maxweight, unbounded queues). Skipped automatically
# under -race, so this non-race run is the one that counts.
go test -run TestEngineSlotZeroAllocs -count=1 ./internal/traffic/

echo "== backlog-sized slot and ranked election differential gate"
# Under -race, uncached: traffic runs whose per-slot greedy lists only
# the selected links against a copy of the full-scan loop (every
# policy, Bernoulli 0.01/0.05/1, three seeds, a dense quadrant-listed
# and a sparse scale-class set; Results deeply equal), and DLS's
# rank-ordered leader election against a copy of the all-pairs one
# (quadrant-listed and uniform n=2000 sets, four ε, three seeds, plus
# a 0.5-length link that forces priority ties; schedules and round
# counters equal).
go test -race -run 'TestWeightedSelectionMatchesFullScan|TestTrafficRunSpanCountsCandidates' -count=1 ./internal/traffic/
go test -race -run 'TestDLSElectionMatchesAllPairs' -count=1 ./internal/sched/

echo "== fading kernel differential gate"
# Under -race, uncached: radio.RowOutcome's bit-length bounds bracket
# −math.Log for every class (and the 2⁻⁴⁰ margin is needed), random and
# fuzz-corpus rows give both callers' verdicts equal to the exact loop,
# Monte-Carlo Results deeply equal a copy of the former gains-table
# loop (paper-density n = 100/600/2000, five schedules, four ε, noise,
# per-link power, coherence, 1/2/4 workers, block offsets), and traffic
# Results deeply equal runs through the former exact draw. The fuzz
# pass then walks random rows for a few seconds; the traffic zero-alloc
# gate above covers the kernel in the slot loop.
go test -race -run 'TestExpBounds|TestRowOutcome|FuzzRowOutcome' -count=1 ./internal/radio/
go test -race -run 'TestSimulateMatchesExactLoop|TestAdaptive' -count=1 ./internal/mc/
go test -race -run 'TestTransmitMatchesExactLoop|TestTrafficRunSpanCountsExactRows' -count=1 ./internal/traffic/
go test -fuzz FuzzRowOutcome -fuzztime 5s -run '^$' ./internal/radio/

echo "== kernel differential gate"
# The field-build kernels against their references, uncached: the
# α-specialized pow family within 1 ulp of correctly rounded, the
# positive-domain log1p bit-identical to the stdlib, and the
# Factor/FactorRow/FactorSpan consistency contract that keeps the
# dense and sparse backends bit-equal.
go test -run 'TestHalfPow|TestLog1pPos|TestFieldKernel|TestFactorRowSpan' -count=1 ./internal/mathx/ ./internal/radio/

echo "== sparse construction gate"
# The sparse backend must stay conservative-only (stored factors
# bit-identical to dense, truncation never over-admits) and its build
# must beat filling every dense row at scale (n=8000): the n² work a
# dense field pays once every row is read.
go test -run 'TestSparseStoredFactorsExact|TestSparseNeverOverAdmits|TestSparseWorkerCountBitIdentical|TestSparseBuildBeatsDenseAtScale' -count=1 ./internal/sched/

echo "== demand-fill gate"
# The dense field fills a sender's factor row on first use. Under
# -race, uncached: every registered algorithm on a fresh field against
# a fully resident one (several seeds and a Derive'd ε; schedules and
# Assess bit-identical), concurrent solves of every algorithm racing
# to fill rows of one fresh Prepared (matching serial solves), and a
# rebind of a partly resident field (every Factor equal to a fresh
# build's).
go test -race -run 'TestDense' -count=1 ./internal/sched/

echo "== verify-once differential gate"
# sched.Assess (one load pass for violations, success probabilities
# and expected failures) against a copy of the former three-pass code:
# bit-identical over dense and sparse fields, every registered
# algorithm, and random infeasible subsets.
go test -run 'TestAssessMatchesLegacyThreePass' -count=1 ./internal/sched/

echo "== sharded solver gate"
# The tile-sharded solver under -race: the tile-worker concurrency
# test, the shards=1 ≡ greedy bit-identity and Monte-Carlo feasibility
# oracles, and the clustered-layout fuzz seeds (`make test-shard`).
go test -race -run 'TestSharded|FuzzShardedFeasible' -count=1 ./internal/sched/

echo "== experiment determinism gate"
# Every table folds its (x, instance) results in index order, so its
# output is byte-identical at any worker count: the CSV-bytes test at
# 1, 2 and 4 workers under -race, then the full `-fig all` run at
# GOMAXPROCS=4 compared with every file committed under results/
# (about 10 s on a 2-vCPU box).
go test -race -run 'TestRunDeterministic|TestStalenessTable' -count=1 ./internal/experiment/
exp_tmp=$(mktemp -d)
trap 'rm -rf "$exp_tmp"' EXIT
GOMAXPROCS=4 go run ./cmd/experiments -fig all -csv "$exp_tmp" > "$exp_tmp/experiments.txt"
for f in results/*.csv results/experiments.txt; do
    cmp "$f" "$exp_tmp/$(basename "$f")"
done

echo "== bench smoke"
# One-iteration pass over the prepared/batch/sharded/traffic benchmarks
# proving the JSON emitter works end to end; the full run is
# `make bench-json`.
sh scripts/bench.sh -quick -o /tmp/bench_smoke.json

echo "== bench regression gate"
# The converged fast subset (warm prepared solves, session events,
# traffic slot loop, the Monte-Carlo solve_mc shape, span lifecycle)
# against the committed baseline, recorded at 2 CPUs. The per-op work
# counts (links, active, exact_rows/op) must equal the baseline's
# exactly on any box: changing one means committing a new baseline.
# Two concessions to the shared CI box for ns/op: it is reported but
# not gated when the baseline was recorded at a different CPU count
# (ns/op across core counts is meaningless for parallel benchmarks),
# and the threshold is 40% with one retry — the box's effective CPU
# speed was measured swinging ±40% minute-to-minute
# (BenchmarkSpanLifecycle 159→223 ns on identical code), so a tighter
# wall-clock gate flakes on quiet trees. benchcmp's 10% default
# remains for manual same-conditions comparisons.
baseline=BENCH_PR17.json
base_procs=$(sed -n 's/.*"maxprocs": *\([0-9][0-9]*\).*/\1/p' "$baseline")
cur_procs=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
sh scripts/bench.sh -gate -o /tmp/bench_gate.json
if [ -n "$base_procs" ] && [ "$base_procs" != "$cur_procs" ]; then
    echo "bench gate: baseline at $base_procs CPUs, runner has $cur_procs — ns/op advisory, counts gated"
    sh scripts/benchcmp.sh "$baseline" /tmp/bench_gate.json off
elif ! sh scripts/benchcmp.sh "$baseline" /tmp/bench_gate.json 40; then
    echo "bench gate: retrying once (shared-runner noise)"
    sh scripts/bench.sh -gate -o /tmp/bench_gate.json
    sh scripts/benchcmp.sh "$baseline" /tmp/bench_gate.json 40
fi

echo "== load benchmark smoke"
# benchmark/ is its own module, so `go test ./...` above skips it: every
# workload at n ≤ 300 with 1 s windows against a freshly built schedd,
# checking each metric BENCHMARK.json names is reported (~5 s).
go -C benchmark test -count=1 ./...

echo "== serve smoke"
# Boot the daemon end to end: listen, solve one instance over HTTP,
# scrape metrics, drain cleanly.
go test -race -run TestServeSmoke -count=1 ./cmd/schedd/

echo "== metrics smoke"
# Boot again with JSON logs: Prometheus scrape, solver stats in the
# response, trace ID joined across header and access log.
go test -race -run TestMetricsSmoke -count=1 ./cmd/schedd/

echo "== trace smoke"
# Boot once more: a traced n=2000 solve plus a streaming-session event
# must land in the flight recorder with their field-build, solver, and
# session-event spans, and the per-trace endpoint must export loadable
# Chrome trace_event JSON.
go test -race -run TestTraceSmoke -count=1 ./cmd/schedd/

echo "ok"
