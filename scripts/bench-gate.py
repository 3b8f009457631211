#!/usr/bin/env python3
"""Gate a benchmark run on the committed baseline's deterministic counters.

usage: scripts/bench-gate.py BASELINE RESULTS

Both files are benchmark/ results.jsonl files (BASELINE is normally
BENCH_RESULTS.jsonl). The gate fails when a RESULTS record has a failed job,
or when a GATED column that reads the same in every traced BASELINE record
of a workload reads differently in a traced RESULTS record of that
workload. Columns that only happened to coincide between runs (go.num_gc,
trace.sp_dispatches) are not on the list. The calibrated end-to-end medians
are printed, baseline vs results, for information only.
"""
import json
import math
import statistics
import sys

# Instruction counts, program sizes and the simulator's virtual time: the
# columns that repeat on a workload whatever the host or its load.
GATED = (
    "isa.program_instrs", "isa.program_templates", "isa.pods_bytes",
    "cluster.instrs",
    "sim.virtual_ms", "sim.ctx_switches", "sim.small_msgs", "sim.page_msgs",
    "sim.eu_utilization", "sim.virtual_speedup",
)
# Some gated columns are means over a run's job count, which rounds in the
# last bit differently for some counts (sim.virtual_ms on simple_sim at 23
# jobs), so "the same" is within 1e-12 relative: far below one unit of any
# gated count (1 ns in 91 s of virtual time is 1.1e-11).
REL_TOL = 1e-12
END_TO_END = ("setup_s", "wall_s", "jobs_per_s", "latency_tail_ms", "alloc_mb_per_job")


def same(a, b):
    return a is not None and b is not None and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(argv):
    if len(argv) != 3:
        print("usage: scripts/bench-gate.py BASELINE RESULTS", file=sys.stderr)
        return 2
    base, runs = load(argv[1]), load(argv[2])
    workloads = list(dict.fromkeys(r["workload"] for r in base + runs))
    problems = [
        f"{r['workload']} seed {r['seed']} trace {r['trace']}: {r['failed']} of {r['attempted']} jobs failed"
        for r in runs if r["failed"] > 0
    ]

    checked = 0
    for wl in workloads:
        traced = [r for r in runs if r["workload"] == wl and r["trace"] == 1]
        pinned = []
        for col in GATED:
            vals = [r["metrics"].get(col) for r in base if r["workload"] == wl and r["trace"] == 1]
            if not vals or not all(same(v, vals[0]) for v in vals):
                continue
            want = vals[0]
            pinned.append(col)
            for r in traced:
                checked += 1
                got = r["metrics"].get(col)
                if not same(got, want):
                    problems.append(f"{wl} seed {r['seed']}: {col} = {got}, baseline {want}")
        if traced:
            print(f"{wl}: {len(traced)} traced run(s) checked on {', '.join(pinned) or 'nothing'}")

    print(f"\n{'workload':<18} {'metric':<18} {'baseline':>12} {'results':>12} {'ratio':>8}  (calibrated medians, not gated)")
    for wl in workloads:
        for m in END_TO_END:
            a = [r["metrics"][m] for r in base if r["workload"] == wl and r["trace"] == 0 and m in r["metrics"]]
            b = [r["metrics"][m] for r in runs if r["workload"] == wl and m in r["metrics"]]
            if a and b:
                ma, mb = statistics.median(a), statistics.median(b)
                print(f"{wl:<18} {m:<18} {ma:>12.6g} {mb:>12.6g} {mb / ma if ma else float('nan'):>8.4f}")

    if checked == 0:
        problems.append("no traced record in the results matches a baseline workload: nothing was gated")
    for p in problems:
        print("FAIL", p, file=sys.stderr)
    print(f"\n{checked} gated values checked, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
