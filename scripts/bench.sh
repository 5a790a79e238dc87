#!/bin/sh
# bench.sh — run the repository performance suite and emit a
# machine-readable record (BENCH_PR22.json by default): ns/op, B/op,
# and allocs/op for the figure-regeneration bench (Fig 5a), the
# Monte-Carlo solve_mc shape (BenchmarkSimulateWarm, with its active
# links and exact-replay rows per op),
# interference-field construction, cold-build vs warm-prepared solves
# (traced and untraced — the traced/untraced delta is the ≤5%
# span-overhead gate, and BenchmarkSpanLifecycle documents the
# 0 allocs/op warm span path), warm greedy re-solves of a resident
# n=2000 field over four ε with the admission test's factor reads per
# op, the schedd end-to-end paths (cold /
# prepared-field / response-cache-warm / batch), the request decode of
# an n=2000 body fresh and through the link memo, the traffic engine
# (per-slot cost, the ≥1M-packet n=5000 throughput run with its
# packets/sec metric, the light n=2000 max-weight run the load
# benchmark's traffic has with the rows it leaves resident, the same
# field at Bernoulli 0.03 where rented rows fill, and the light traffic
# on the sparse n=2500 solve-scale shape), the DLS solve on a quadrant-listed
# n=2000 set, the streaming-session event loop at n=2000, and
# the tile-sharded scale records: sharded-vs-unsharded greedy at
# n=5000/20000 plus the n=100000 sparse build + sharded solve.
#
#   scripts/bench.sh              full run, writes BENCH_PR22.json
#   scripts/bench.sh -quick       1-iteration smoke (check.sh uses this)
#   scripts/bench.sh -gate        converged fast subset (benchcmp gate)
#   scripts/bench.sh -o out.json  choose the output path
#
# BENCHTIME overrides the per-benchmark budget (default 1s; -quick
# forces 1x). Field-construction benchmarks (BenchmarkNewProblem) run
# under a fixed -count=1 -benchtime=3s budget so the n=5000 builds get
# multiple iterations; any result that still lands at one iteration is
# flagged "low_iter" in the JSON so single-sample numbers are never
# mistaken for converged ones (benchcmp warns instead of failing on
# them). -gate runs only the high-iteration, stable benchmarks —
# check.sh compares that subset against the committed baseline with
# scripts/benchcmp.sh and fails on large ns/op regressions (the CI
# threshold is wider than benchcmp's 10% default to absorb the shared
# runner's measured speed variance; see check.sh).
set -eu

cd "$(dirname "$0")/.."

out=BENCH_PR22.json
benchtime=${BENCHTIME:-1s}
buildbenchtime=3s
mode=full
while [ $# -gt 0 ]; do
    case "$1" in
    -quick)
        mode=quick
        benchtime=1x
        buildbenchtime=1x
        ;;
    -gate)
        mode=gate
        ;;
    -o)
        out=$2
        shift
        ;;
    *)
        echo "usage: bench.sh [-quick|-gate] [-o file]" >&2
        exit 2
        ;;
    esac
    shift
done

tmp=$(mktemp)
part=$(mktemp)
trap 'rm -f "$tmp" "$part"' EXIT

run() { # run <package> <bench regex> [benchtime]
    # Capture first, append on success: a pipeline into tee would hide
    # go test's exit status from `set -e`.
    bt=${3:-$benchtime}
    if ! go test -run '^$' -bench "$2" -benchtime "$bt" -count=1 "$1" >"$part" 2>&1; then
        cat "$part" >&2
        echo "bench.sh: go test -bench $2 $1 failed" >&2
        exit 1
    fi
    cat "$part"
    cat "$part" >>"$tmp"
}

case "$mode" in
quick)
    run . 'BenchmarkSolveColdBuild$|BenchmarkSolveWarmPrepared$|BenchmarkSolveWarmTraced$|BenchmarkSolveWarmGreedy$'
    run . 'BenchmarkShardedVsGreedy$'
    run ./internal/server/ 'BenchmarkSolveBatch$|BenchmarkSessionEvents$'
    run ./internal/traffic/ 'BenchmarkEngineStep$|BenchmarkEngineLight$'
    run ./internal/sched/ 'BenchmarkDLS$'
    run ./internal/mc/ 'BenchmarkSimulateWarm$'
    run ./internal/obs/ 'BenchmarkSpanLifecycle$'
    ;;
gate)
    # The regression-gate subset: every benchmark here converges to
    # dozens (BenchmarkSimulateWarm) to hundreds of iterations inside
    # the default budget, so a >10% ns/op move is signal, not
    # scheduler noise; the per-op counts (links, active,
    # exact_rows/op, admission_reads/op) are constants benchcmp
    # compares exactly.
    run . 'BenchmarkSolveWarmPrepared$|BenchmarkSolveWarmTraced$|BenchmarkSolveWarmGreedy$'
    run ./internal/server/ 'BenchmarkSessionEvents$'
    run ./internal/traffic/ 'BenchmarkEngineStep$'
    run ./internal/mc/ 'BenchmarkSimulateWarm$'
    run ./internal/obs/ 'BenchmarkSpanLifecycle$'
    ;;
*)
    run . 'BenchmarkFig5a$'
    # Field builds get a fixed multi-iteration budget (see header).
    run . 'BenchmarkNewProblem$' "$buildbenchtime"
    run . 'BenchmarkSolveColdBuild$|BenchmarkSolveWarmPrepared$|BenchmarkSolveWarmTraced$|BenchmarkSolveWarmGreedy$'
    # Sharded-vs-unsharded at n=5000/20000: a fixed 3-iteration budget
    # (the n=20000 sharded solve runs hundreds of ms per iteration).
    run . 'BenchmarkShardedVsGreedy$' 3x
    # The n=100000 scale record is single-iteration by design; its
    # low_iter flag keeps benchcmp advisory on it.
    run . 'BenchmarkSharded100k$' 1x
    run ./internal/server/ 'BenchmarkSolveColdVsWarm$|BenchmarkSolveBatch$|BenchmarkSessionEvents$|BenchmarkDecodeRequest$'
    run ./internal/traffic/ 'BenchmarkEngineStep$|BenchmarkEngineThroughput$|BenchmarkEngineLight$|BenchmarkEngineMid$|BenchmarkEngineLightSparse$'
    run ./internal/sched/ 'BenchmarkDLS$'
    run ./internal/mc/ 'BenchmarkSimulateWarm$'
    # The span-tracing overhead record: the warm span lifecycle must
    # stay 0 allocs/op, the inert path near-free.
    run ./internal/obs/ 'BenchmarkSpanLifecycle$|BenchmarkSpanInert$'
    ;;
esac

# Parse `go test -bench` result lines into JSON. A line is
#   BenchmarkName-P  iters  v1 unit1  v2 unit2 ...
# where the units are ns/op, B/op, allocs/op, and any custom
# b.ReportMetric units; each becomes a key with '/' spelled _per_.
{
    printf '{\n'
    printf '  "id": "%s",\n' "$(basename "$out" .json)"
    printf '  "generated_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
    # The CPU count the record was taken at: comparing ns/op across
    # different core counts is meaningless for parallel benchmarks, so
    # check.sh's regression gate skips the comparison on a mismatch.
    printf '  "maxprocs": %s,\n' "$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
    printf '  "benchtime": "%s",\n' "$benchtime"
    printf '  "benchmarks": [\n'
    awk '
        /^Benchmark/ && NF >= 4 {
            if (n++) printf ",\n"
            printf "    {\"name\": \"%s\", \"iters\": %s", $1, $2
            if ($2 + 0 == 1) printf ", \"low_iter\": true"
            for (i = 3; i < NF; i += 2) {
                key = $(i + 1)
                gsub(/\//, "_per_", key)
                gsub(/[^A-Za-z0-9_]/, "_", key)
                printf ", \"%s\": %s", key, $i
            }
            printf "}"
        }
        END { if (n) printf "\n" }
    ' "$tmp"
    printf '  ]\n'
    printf '}\n'
} >"$out"

echo "wrote $out"
