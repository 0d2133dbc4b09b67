#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh            # all four workloads, every metric
#   bash benchmark/run.sh -aa        # A/A check of the benchmark itself
#
# The Go build cache, GOPATH and the binary live in .bench_build/ under the
# checkout root, so nothing is read or written outside it (the toolchain
# itself excepted). The first run in a fresh checkout compiles the standard
# library into that cache; later runs only relink what changed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOENV=off \
  GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"
go build -C "$here" -o "$build/grafbench" .
cd "$root"
exec "$build/grafbench" "$@"
