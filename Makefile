GO ?= go

.PHONY: check test test-full test-stream test-shard bench bench-field bench-json bench-serve bench-obs bench-shard bench-traffic build fmt vet fuzz serve serve-smoke metrics-smoke trace-smoke loc

## check: formatting + vet + build + race-enabled test suite (the gate)
check:
	sh scripts/check.sh

## build: compile every package and command
build:
	$(GO) build ./...

## test: fast suite (skips the 20000-link scale test)
test:
	$(GO) test -short ./...

## test-full: everything, including the large sparse scale test
test-full:
	$(GO) test ./...

## test-stream: the streaming-session suite under the race detector —
## differential oracle, byte-exact resume, drain, cache pinning
test-stream:
	$(GO) vet ./internal/server/ ./internal/mobility/ ./internal/network/
	$(GO) test -race -run 'TestSession|TestPrepCache|TestEditor|TestRebind|TestTracker' -count=1 ./internal/server/ ./internal/mobility/

## bench: interference-backend construction/scheduling benchmarks
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkNewProblem|BenchmarkFieldBackends' -benchtime 2x .

## bench-field: field-construction kernels at a converged budget —
## dense vs sparse builds (n up to 5000), a full n=2000 matrix of dense
## row fills (what a field costs once every row is resident), and the
## log1p/pow micro-kernels
bench-field:
	$(GO) test -run '^$$' -bench 'BenchmarkNewProblem$$' -benchtime 3s -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkFieldFill' -benchtime 2s -count=1 ./internal/radio/
	$(GO) test -run '^$$' -bench 'BenchmarkLog1pPos$$|BenchmarkLog1pStdlib$$|BenchmarkHalfPow' -count=1 ./internal/mathx/

## bench-json: the full performance suite → BENCH_PR22.json
## (Fig 5a, the Monte-Carlo solve_mc shape, field build, cold vs warm-prepared solve traced and
## untraced, warm greedy re-solves over four ε with the admission
## test's factor reads, sharded-vs-unsharded greedy plus the n=100k scale record,
## schedd end-to-end, request decode fresh and memoised, traffic
## engine, streaming-session event loop,
## span-lifecycle overhead)
bench-json:
	sh scripts/bench.sh

## bench-shard: the tile-sharded scale benches — sharded vs unsharded
## greedy at n=5000/20000 and the n=100000 sparse build + sharded solve
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardedVsGreedy$$' -benchtime 3x -count=1 .
	$(GO) test -run '^$$' -bench 'BenchmarkSharded100k$$' -benchtime 1x -count=1 .

## test-shard: the tile-sharded solver suite under the race detector —
## tile-worker concurrency, the tile pass and the pruned greedy
## insertion against their plain-loop references, the shards=1 ≡
## greedy bit-identity and Monte-Carlo feasibility oracles, tile passes
## renting rows of a fresh dense field against a fully resident one,
## and the clustered-layout fuzz seeds
test-shard:
	$(GO) test -race -run 'TestSharded|TestGreedyInsertMatchesPlainLoop|TestDenseScopedWalksMatchResident|FuzzShardedFeasible' -count=1 ./internal/sched/

## bench-traffic: traffic-engine per-slot cost (0 allocs/op), the
## ≥1M-packet n=5000 throughput run with its packets/sec metric, and
## the max-weight runs (dense n=2000 light and at Bernoulli 0.03,
## sparse n=2500 light) with their slots/sec metric
bench-traffic:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineStep$$|BenchmarkEngineThroughput$$|BenchmarkEngineLight$$|BenchmarkEngineMid$$|BenchmarkEngineLightSparse$$' ./internal/traffic/

## bench-serve: schedd cold/prepared-field/warm cache benchmark (n=1000)
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkSolveColdVsWarm|BenchmarkSolveBatch' ./internal/server/

## serve: run the scheduling daemon on the default ports
serve:
	$(GO) run ./cmd/schedd

## serve-smoke: boot schedd, solve one instance over HTTP, assert clean shutdown
serve-smoke:
	$(GO) test -race -run TestServeSmoke -count=1 -v ./cmd/schedd/

## metrics-smoke: boot schedd, check /metrics, response stats, and trace-ID logs agree
metrics-smoke:
	$(GO) test -race -run TestMetricsSmoke -count=1 -v ./cmd/schedd/

## trace-smoke: boot schedd, drive a traced solve and a session event,
## assert /debug/requests retains the field-build and solver spans and
## the per-trace export is loadable trace_event JSON
trace-smoke:
	$(GO) test -race -run TestTraceSmoke -count=1 -v ./cmd/schedd/

## bench-obs: span overhead (the inert span untraced solves run against
## and the warm span lifecycle must both stay 0 allocs/op)
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkSpan' ./internal/obs/

## fuzz: a short fuzzing pass over the sparse-safety, fast-pow, and
## decoder targets
fuzz:
	$(GO) test -fuzz FuzzSparseNeverOverAdmits -fuzztime 30s ./internal/sched/
	$(GO) test -fuzz FuzzShardedFeasible -fuzztime 30s ./internal/sched/
	$(GO) test -fuzz FuzzHalfPowRaise -fuzztime 30s ./internal/mathx/
	$(GO) test -fuzz 'FuzzRead$$' -fuzztime 30s ./internal/network/
	$(GO) test -fuzz FuzzReadLinkSet -fuzztime 30s ./internal/network/
	$(GO) test -fuzz FuzzSessionEvents -fuzztime 30s ./internal/server/

## loc: lines in the non-test .go files outside benchmark/,
## .bench_build/ and .git/ — the size figure ROADMAP.md and CHANGES.md
## quote
loc:
	@find . \( -path ./benchmark -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
