#!/usr/bin/env python3
"""Compare two benchmark result files (benchmark/run.sh --out FILE).

    benchmark/compare.py A.json B.json

A is the baseline (the parent commit), B the candidate. Both files hold
runs stamped with their host; the host keys must match (nproc, build
type, compiler, fault-injection flag) or the comparison is refused —
only the commit may differ. Runs are paired by order within each
workload, so record them alternating: A, B, A, B, ...

For every (workload, metric) it prints each side's median and quartiles
and a verdict, following choosing-metrics §6 and §8:

  worse       B's median is worse than A's by more than the metric's bound
              (BENCHMARK.json), and the spread does not hide it;
  unresolved  the run-to-run spread is wider than the bound and not every
              B run reads better than every A run. The spread is the IQR
              of the paired ratios B_i / A_i: paired runs share a seed
              and a stretch of time, so seed-to-seed differences and slow
              host drift cancel out of it;
  better      >= 10 pairs, B wins >= 9/10 of them (ties count for
              neither), and the medians differ by more than A's IQR;
  unchanged   otherwise.

Operations that failed have an absolute bound of 0. Metrics outside
BENCHMARK.json's end_to_end list (per-layer metrics of traced runs, and
printed-only lines such as rw_mix's update_p50_us) have no bound and are
listed for information. Exit status: 1 if any row is worse or
unresolved, 2 on unusable input, else 0.
"""
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "build_type", "compiler", "fault_injection")
# setup_s may also move by this many seconds before it counts as worse.
ABSOLUTE_FLOOR = {"setup_s": 0.005}


def load(path):
    with open(path) as f:
        data = json.load(f)
    return data.get("host", {}), data.get("runs", [])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a, b, bound, lower_is_better, floor):
    """The verdict of one (workload, metric) row; a, b in run order."""
    sign = 1 if lower_is_better else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a)
    allowed = max(bound * abs(med_a), floor)
    b_better_all = all(sign * (y - x) < 0 for x in a for y in b)
    b_worse_all = all(sign * (y - x) > 0 for x in a for y in b)
    ratios = [y / x for x, y in zip(a, b) if x]
    too_wide = len(ratios) > 1 and spread(ratios) * abs(med_a) > allowed
    if worse_by > allowed and (not too_wide or b_worse_all):
        return "worse"
    if too_wide and not b_better_all:
        return "unresolved"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    q1, _, q3 = quartiles(a)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -worse_by > q3 - q1:
        return "better"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    host_a, runs_a = load(argv[1])
    host_b, runs_b = load(argv[2])
    print(f"A: {argv[1]}  {json.dumps(host_a, sort_keys=True)}")
    print(f"B: {argv[2]}  {json.dumps(host_b, sort_keys=True)}")
    mismatched = [k for k in HOST_KEYS if host_a.get(k) != host_b.get(k)]
    if mismatched:
        print(f"refused: host keys differ: {', '.join(mismatched)}", file=sys.stderr)
        return 2
    if host_a.get("build_type") != "Release":
        print("warning: not a Release build", file=sys.stderr)

    bounded = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    bad = 0
    header = f"{'workload':<11} {'metric':<28} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} {'delta':>8}  verdict"
    print(header)
    for workload in workloads:
        for traced in (False, True):
            a_runs = [r for r in runs_a if r["workload"] == workload and r["trace"] == traced]
            b_runs = [r for r in runs_b if r["workload"] == workload and r["trace"] == traced]
            if not a_runs or not b_runs:
                continue
            fa = sum(r["failed"] for r in a_runs)
            fb = sum(r["failed"] for r in b_runs)
            v = "worse" if fb > 0 else "unchanged"
            bad += v == "worse"
            print(f"{workload:<11} {'failed operations':<28} {fa:>34} {fb:>34} {'':>8}  {v}")
            names = list(bounded) if not traced else []
            for r in a_runs:
                names += [n for n in r["metrics"] if n not in names]
            for name in names:
                a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
                b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
                if not a or not b:
                    continue
                qa, qb = quartiles(a), quartiles(b)
                delta = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else 0.0
                spec = bounded.get(name) if not traced else None
                if spec is None:
                    v = "info"
                else:
                    v = verdict(a, b, spec["bound"], spec["better"] == "lower",
                                ABSOLUTE_FLOOR.get(name, 0.0))
                    bad += v in ("worse", "unresolved")
                cell = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                print(f"{workload:<11} {name:<28} {cell(qa):>34} {cell(qb):>34} {delta:>+7.1f}%  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
