#!/usr/bin/env bash
# Self-test of the benchmark itself (not of the engine's speed). Runs every
# workload with --smoke (1 s windows, small documents), untraced and
# traced, and checks that
#   - every BENCHMARK.json metric appears, with its unit, for every workload;
#   - no operation failed (failed == 0, failed_frac == 0);
#   - every trace file parses, its spans point at earlier spans, and each
#     ladder rung takes at least as long as the rung beneath it.
# Usage: benchmark/selftest.sh      (exit 0 = pass; takes about a minute)
set -euo pipefail
cd "$(dirname "$0")/.."

benchmark/run.sh --smoke --seed 1 --out benchmark/out/selftest.json
benchmark/run.sh --smoke --traced --seed 1 --out benchmark/out/selftest-traced.json

python3 - <<'EOF'
import json
import sys

bench = json.load(open("BENCHMARK.json"))
workloads = sorted(w["name"] for w in bench["workloads"])
problems = []


def check_runs(path, key):
    runs = json.load(open(path))["runs"]
    if sorted(r["workload"] for r in runs) != workloads:
        problems.append(f"{path}: ran {sorted(r['workload'] for r in runs)}")
    for r in runs:
        w = r["workload"]
        if not r["correct"] or r["failed"] != 0:
            problems.append(f"{w}: {r['failed']} failed ({r['first_error']})")
        if r["metrics"].get("failed_frac", {}).get("value") != 0:
            problems.append(f"{w}: failed_frac is not 0")
        for m in bench[key]:
            got = r["metrics"].get(m["name"])
            if got is None:
                problems.append(f"{w}: {m['name']} missing")
            elif got["unit"] != m["unit"]:
                problems.append(f"{w}: {m['name']} in {got['unit']}, not {m['unit']}")


check_runs("benchmark/out/selftest.json", "end_to_end")
check_runs("benchmark/out/selftest-traced.json", "per_layer")

# (upper rung, rung beneath it): the upper one calls through the lower.
LADDER = [
    ("server.roundtrip", "core.session"),
    ("core.session", "core.facade_hot"),
    ("core.facade_hot", "eval.dom"),
    ("core.facade_cold", "core.facade_hot"),
    ("core.facade_cold", "rewrite.rewrite"),
    ("core.facade_cold", "rxpath.parse"),
    ("eval.batch_serial", "xml.tokenize"),
    ("update.commit", "update.dry_run"),
]
SLACK = 0.9  # smoke runs repeat each rung only a few times
for w in workloads:
    path = f"benchmark/out/trace-{w}.json"
    try:
        trace = json.load(open(path))
    except (OSError, ValueError) as e:
        problems.append(f"{path}: {e}")
        continue
    spans = trace["spans"]
    if not spans:
        problems.append(f"{path}: no spans")
    for s in spans:
        if not -1 <= s["parent"] < s["id"] or s["end_ns"] < s["start_ns"]:
            problems.append(f"{path}: bad span {s}")
            break
    rungs = trace["rungs"]
    for upper, lower in LADDER:
        if rungs[lower] > 0 and rungs[upper] < SLACK * rungs[lower]:
            problems.append(f"{w}: rung {upper} ({rungs[upper]:.1f} us) "
                            f"below {lower} ({rungs[lower]:.1f} us)")

for p in problems:
    print("selftest:", p, file=sys.stderr)
print("selftest:", "FAIL" if problems else "pass", file=sys.stderr)
sys.exit(1 if problems else 0)
EOF
