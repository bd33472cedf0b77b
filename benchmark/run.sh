#!/bin/bash
# Entry point named by BENCHMARK.json. `go run ./benchmark` would keep its
# build cache under $HOME, and the driver requires that a run reads and
# writes only inside its checkout, so this builds the benchmark with the
# Go cache and temp files under benchmark/out/ (git-ignored) and runs the
# binary with the driver's arguments:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. In a directory without the module's go.mod
# the build fails and this script exits non-zero without printing a result.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 1
fi
build="$PWD/benchmark/out/_build" # "_": go's ./... patterns skip it
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -o "$build/cudele-benchmark" ./benchmark
exec "$build/cudele-benchmark" "$@"
