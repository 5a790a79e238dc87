#!/usr/bin/env bash
# Builds and runs schedd's load benchmark. Run it from the repository
# root; arguments go to the benchmark program, for example
#
#   bash benchmark/run.sh --workload solve-warm --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write — Go's build cache and
# telemetry, the benchmark and schedd binaries, temporary files — stays
# under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
