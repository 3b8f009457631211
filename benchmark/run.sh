#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags. Everything the
# build leaves behind (Go's build cache, its temporary files, the binary)
# goes under .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
