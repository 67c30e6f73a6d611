#!/usr/bin/env bash
# Self-test of the repo benchmark:
#   1. a smoke run (1 rep, horizons / 20) of every workload, plain and
#      traced, must pass its correctness checks within 30 s each;
#   2. every metric named in BENCHMARK.json must be printed, with its unit,
#      for every workload, and each JSON result line must carry exactly
#      the end-to-end (plain) or per-layer (traced) metrics;
#   3. unknown flags and malformed values must exit 2.
# Usage: bash benchmark/selftest.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
run="$root/benchmark/run.sh"
bash "$run" --workload dumbbell_fig9 --smoke >/dev/null  # build first
tmp="$root/build-bench/selftest"
mkdir -p "$tmp"
for trace in 0 1; do
  start=$SECONDS
  bash "$run" --smoke --trace "$trace" >"$tmp/smoke$trace.txt"
  elapsed=$((SECONDS - start))
  echo "smoke run (--trace $trace): ${elapsed} s"
  [ "$elapsed" -lt 30 ] || { echo "FAIL: smoke run took ${elapsed} s" >&2; exit 1; }
done

python3 - "$root/BENCHMARK.json" "$tmp/smoke0.txt" "$tmp/smoke1.txt" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
workloads = [w["name"] for w in bench["workloads"]]
failures = []
for path, key in ((sys.argv[2], "end_to_end"), (sys.argv[3], "per_layer")):
    wanted = {m["name"]: m["unit"] for m in bench[key]}
    sections, results = {}, []
    current = None
    for line in open(path):
        if line.startswith("qnetp_bench "):
            current = line.split()[1]
            sections[current] = {}
        elif line.startswith('{"correct"'):
            results.append(json.loads(line))
        elif current and line.startswith("  ") and len(line.split()) >= 2:
            fields = line.split()
            sections[current][fields[0]] = fields[-1]
    if sorted(sections) != sorted(workloads):
        failures.append(f"{path}: workloads printed {sorted(sections)}")
    for w in workloads:
        for name, unit in wanted.items():
            if sections.get(w, {}).get(name) != unit:
                failures.append(f"{w}: {name} not printed with unit {unit}")
    for w, res in zip(workloads, results):
        if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
            failures.append(f"{w}: result keys {sorted(res)}")
        if not res["correct"] or res["attempted"] < 1:
            failures.append(f"{w}: smoke result not correct")
        if {k: v["unit"] for k, v in res["metrics"].items()} != wanted:
            failures.append(f"{w}: result metrics differ from {key}")
for f in failures:
    print("FAIL:", f)
sys.exit(1 if failures else 0)
EOF
echo "metric coverage: ok"

expect_usage_error() {
  local status=0
  "$@" >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: '$*' exited $status, expected 2" >&2
    exit 1
  fi
}
bench="$root/build-bench/qnetp_bench"
expect_usage_error bash "$run" --bogus
expect_usage_error bash "$run" --workload
expect_usage_error bash "$run" --workload nosuch --smoke
expect_usage_error bash "$run" --workload dumbbell_fig9 --seed abc
expect_usage_error bash "$run" --workload dumbbell_fig9 --seconds -1
expect_usage_error bash "$run" --workload dumbbell_fig9 --trace 2
expect_usage_error bash "$run" --workload dumbbell_fig9 --seconds 1x
expect_usage_error "$bench"
expect_usage_error "$bench" --workload dumbbell_fig9 --seed=1x
expect_usage_error "$bench" --workload dumbbell_fig9 --smoke=1
echo "usage errors: ok"
echo "selftest passed"
