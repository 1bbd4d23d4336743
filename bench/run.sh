#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout:
#
#   bash bench/run.sh --workload sim.steady --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, the
# live workloads' WAL and trace files) stays under .bench_build/ in the
# checkout. bench/ is a module of its own (bench/go.mod replaces the
# repository's module with ../), so the build fails, and this script exits
# non-zero, anywhere the repository's sources are missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pgcs-bench" .)
cd "$root"
exec "$build/pgcs-bench" "$@"
