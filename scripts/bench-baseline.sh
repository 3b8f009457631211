#!/usr/bin/env bash
# Regenerates the committed benchmark baseline at the root of the repo:
#
#   BENCH_RESULTS.jsonl  seeds 1-5 x {--trace 0, --trace 1} x every workload
#                        at --seconds 12, in benchmark/'s results.jsonl format,
#                        so `go run ./benchmark -compare BENCH_RESULTS.jsonl x`
#                        and scripts/bench-gate.py read it as it is
#   BENCH_LAYERS.txt     the per-layer `go test -bench` table, -count 5
#
# It writes those two files and nothing else: the build and the run's own
# output go under .bench_build/, as benchmark/run.sh does. It takes about
# 20 minutes on a 2-core host; run it on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
tmp=$(mktemp -d "$PWD/.bench_build/baseline.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

for seed in 1 2 3 4 5; do
	for trace in 0 1; do
		bash benchmark/run.sh --workload all --seed "$seed" --seconds 12 --trace "$trace" --out "$tmp" >&2
	done
done
go test -run '^$' -bench 'RunKernelLoop|WorkerExec|Shard|EncodeMsg|DecodeMsg|RoundTrip|SubmitFloor|ProbeRound|SimEvent|SimSimple|RuntimeSimple' \
	-benchmem -count 5 ./internal/isa ./internal/cluster ./internal/istructure ./internal/sim ./internal/podsrt >"$tmp/layers.txt"

mv "$tmp/results.jsonl" BENCH_RESULTS.jsonl
mv "$tmp/layers.txt" BENCH_LAYERS.txt
