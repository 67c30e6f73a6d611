#!/usr/bin/env bash
# Digests of the six gate benches at --quick settings.
#
# Usage: scripts/gate_digests.sh BUILD_DIR OUT_DIR
#
# Runs chaos_soak, exp_scaling, multiflow_topologies, routing_churn,
# shard_scaling and traffic_soak from BUILD_DIR with --quick, writes each
# bench's JSON into OUT_DIR (BENCH_<name>_smoke.json) and prints one
# sorted `bench config jobs shards digest` line per sweep point on
# stdout. Only the JSON files this run wrote are read: other files in
# OUT_DIR (another bench's output, or a stale copy left by an earlier
# run) never reach the listing. The benches' own tables and gate lines
# go to stderr. Exits 1 when any bench fails a gate or writes no JSON,
# after running all six.
#
# To check that a change keeps every digest, diff two trees:
#   diff <(scripts/gate_digests.sh PARENT/build /tmp/a 2>/dev/null) \
#        <(scripts/gate_digests.sh build /tmp/b 2>/dev/null)
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: scripts/gate_digests.sh BUILD_DIR OUT_DIR" >&2
  exit 2
fi
BUILD_DIR="$1"
OUT_DIR="$2"
mkdir -p "$OUT_DIR"

status=0
jsons=()
run() {
  local bench="$1" json="$OUT_DIR/$2"
  shift 2
  rm -f "$json"
  if ! "$BUILD_DIR/$bench" --quick "$@" --out="$json" >&2; then
    echo "gate_digests: $bench failed a gate" >&2
    status=1
  fi
  if [ -f "$json" ]; then
    jsons+=("$json")
  else
    echo "gate_digests: $bench wrote no $json" >&2
    status=1
  fi
}
run chaos_soak BENCH_chaos_smoke.json
run exp_scaling BENCH_exp_smoke.json
run multiflow_topologies BENCH_topo_smoke.json
run routing_churn BENCH_routing_smoke.json
run shard_scaling BENCH_shard_smoke.json --shards=4
run traffic_soak BENCH_traffic_smoke.json

python3 - "${jsons[@]}" <<'PY'
import json
import sys

lines = []
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    for p in doc["sweep"]:
        lines.append(f'{doc["benchmark"]} {p["config"]} {p["jobs"]} '
                     f'{p["shards"]} {p["digest"]}')
print("\n".join(sorted(lines)))
PY
exit "$status"
