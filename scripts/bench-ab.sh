#!/usr/bin/env bash
# Paired A/B runs of one benchmark workload: a base revision against the
# checkout as it stands (uncommitted edits included).
#
#   scripts/bench-ab.sh [-b REV] [-n PAIRS] [-s SEED] [-m METRIC] WORKLOAD
#
#   -b REV     base revision (default HEAD~1; pass HEAD to measure
#              uncommitted work against the last commit)
#   -n PAIRS   number of pairs (default 10)
#   -s SEED    seed of the first pair; pair i runs seed SEED+i (default 1)
#   -m METRIC  end-to-end metric to judge (default wall_s)
#
# The base revision is exported with `git archive` and the checkout is
# built as it is, once each, into .bench_build/ab/. Every pair then runs
# the two binaries back to back on the same seed, at BENCHMARK.json's
# run_seconds, with the side that goes first alternating from pair to pair.
# The script prints each side's median and quartiles (as Python's
# statistics.quantiles cuts them, the cut `benchmark -compare` uses), the
# per-pair ratios change/base, and the pairs the change won. A gain holds
# when the change wins at least nine pairs in ten and the medians differ
# by more than the base's interquartile range. It then prints one line per
# end-to-end metric of BENCHMARK.json: both medians, their ratio, and
# whether the change's median is worse by more than the metric's bound.
#
# Everything it writes (the exported tree, Go's build cache and temporary
# files, the binaries, each run's output) goes under .bench_build/ at the
# root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

base=HEAD~1 pairs=10 seed=1 metric=wall_s
while getopts b:n:s:m: opt; do
	case $opt in
	b) base=$OPTARG ;;
	n) pairs=$OPTARG ;;
	s) seed=$OPTARG ;;
	m) metric=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -ne 1 ]; then
	echo "usage: $0 [-b REV] [-n PAIRS] [-s SEED] [-m METRIC] WORKLOAD" >&2
	exit 2
fi
workload=$1

root=$PWD
ab=$root/.bench_build/ab
mkdir -p "$ab/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$ab/tmp"

read -r seconds better < <(python3 -c '
import json, sys
b = json.load(open("BENCHMARK.json"))
m = [e for e in b["end_to_end"] if e["name"] == sys.argv[1]]
if not m:
    sys.exit("unknown end-to-end metric " + sys.argv[1])
print(b["run_seconds"], m[0]["better"])' "$metric")

sha=$(git rev-parse --verify "$base^{commit}")
rm -rf "$ab/base"
mkdir -p "$ab/base"
git archive "$sha" | tar -x -C "$ab/base"
(cd "$ab/base" && go build -o "$ab/base.bin" ./benchmark)
go build -o "$ab/change.bin" ./benchmark
echo "base $sha, change = checkout; $workload, $pairs pairs at $seconds s, $metric ($better is better)"

runs=$ab/runs.tsv
rm -f "$ab"/*.out
: >"$runs"
for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	order="base change"
	if ((i % 2)); then order="change base"; fi
	for side in $order; do
		out=$ab/$side-$s.out
		"$ab/$side.bin" -workload "$workload" -seed "$s" -seconds "$seconds" -trace 0 >"$out"
		v=$(tail -n 1 "$out" | python3 -c '
import json, sys
r = json.load(sys.stdin)
print(r["metrics"][sys.argv[1]]["value"], r["failed"])' "$metric")
		printf '%d\t%s\t%s\n' "$s" "$side" "$v" >>"$runs"
		echo "pair $((i + 1)) seed $s $side: $metric $v"
	done
done

python3 - "$runs" "$better" "$ab" <<'EOF'
import json, statistics, sys
rows = [l.split() for l in open(sys.argv[1])]
lower = sys.argv[2] == "lower"
val = {(int(s), side): float(v) for s, side, v, _ in rows}
failed = {side: 0 for _, side, _, _ in rows}
for _, side, _, f in rows:
    failed[side] += int(f)
seeds = sorted({s for s, _ in val})
for side in ("base", "change"):
    xs = [val[s, side] for s in seeds]
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    print(f"{side:6s} median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}  failed jobs {failed[side]}")
ratios = [val[s, "change"] / val[s, "base"] for s in seeds]
print("ratios change/base:", " ".join(f"{r:.3f}" for r in ratios))
won = sum(1 for r in ratios if (r < 1 if lower else r > 1))
print(f"median ratio {statistics.median(ratios):.3f}; change won {won} of {len(ratios)} pairs")

# Every end-to-end metric, judged as `benchmark -compare` judges one: the
# change's median is worse than the base's by more than the bound.
def metrics(side, s):
    with open(f"{sys.argv[3]}/{side}-{s}.out") as f:
        return json.loads(f.read().splitlines()[-1])["metrics"]
runs = {side: [metrics(side, s) for s in seeds] for side in ("base", "change")}
for e in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name = e["name"]
    mb, mc = (statistics.median(m[name]["value"] for m in runs[side]) for side in ("base", "change"))
    worse = (mc - mb) / mb if mb else (0.0 if mc == mb else float("inf"))
    if e["better"] == "higher":
        worse = -worse
    verdict = "worse by more than the bound" if worse > e["bound"] else "within bound"
    ratio = f"{mc / mb:.3f}" if mb else "-"
    print(f"{name:16s} base {mb:.6g}  change {mc:.6g}  ratio {ratio}  bound {e['bound']}: {verdict}")
EOF
