#!/usr/bin/env bash
# smoqe-bench: builds the benchmark driver (Release, default options) and
# runs the workloads, each in its own process. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--smoke] [--traced] [--out FILE] [--append]
#       Runs all five workloads with 20 s windows (1 s with --smoke),
#       prints "workload metric value unit" lines and writes every run,
#       stamped with the host, to FILE (default benchmark/out/results.json;
#       --append adds to the runs already there). Exit 1 if any run failed.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       Runs one workload; the last stdout line is its JSON result.
#
# Everything it writes stays inside the checkout: the build in
# .bench_build/, results and traces in benchmark/out/.
set -euo pipefail

cd "$(dirname "$0")/.."
build=.bench_build
out=benchmark/out
workloads=(serve_hot adhoc_cold scan_batch deep_dom rw_mix)

mkdir -p "$build" "$out"
if ! { cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target smoqe_bench -j 4; } \
     >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 2
fi
bin="$build/smoqe_bench"
commit=unknown
if [[ -e .git ]]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

for arg in "$@"; do
  if [[ "$arg" == --workload ]]; then
    exec "$bin" --commit "$commit" --out "$out" "$@"
  fi
done

seed=1 seconds=20 results="$out/results.json" append=0
flags=()
while (($#)); do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --out) results=$2; shift 2 ;;
    --smoke) flags+=(--smoke); seconds=1; shift ;;
    --traced) flags+=(--trace 1); shift ;;
    --append) append=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

records="$out/records.jsonl"
: >"$records"
status=0
for w in "${workloads[@]}"; do
  rm -f "$out"/run-"$w"*.json
  if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --commit "$commit" --out "$out" "${flags[@]}" | grep -v '^{'; then
    echo "run.sh: workload $w (seed $seed) failed" >&2
    status=1
  fi
  cat "$out"/run-"$w"*.json >>"$records" 2>/dev/null || true
done

python3 - "$records" "$results" "$append" <<'EOF'
import json, os, sys
runs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
if sys.argv[3] == "1" and os.path.exists(sys.argv[2]):
    runs = json.load(open(sys.argv[2]))["runs"] + runs
host = runs[0]["host"] if runs else {}
with open(sys.argv[2], "w") as f:
    json.dump({"host": host, "runs": runs}, f, indent=1)
    f.write("\n")
EOF
echo "run.sh: wrote $results" >&2
exit $status
