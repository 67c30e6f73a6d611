#!/usr/bin/env bash
# Build qnetp_bench and run the repo benchmark (benchmark/README.md).
#
#   bash benchmark/run.sh [--workload NAME]... [--seed N] [--seconds S]
#                         [--trace [0|1]] [--smoke]
#
# Builds build-bench/ (RelWithDebInfo) from the checkout's sources, then
# runs each selected workload (default: all four) in its own process.
# Each process prints its metrics with units and a JSON result as its last
# line, and writes build-bench/results/<workload>.json; --trace adds a
# traced rep, the per-layer table and build-bench/trace/<workload>.jsonl.
# Unknown flags and malformed values exit 2.
set -euo pipefail

usage() {
  echo "usage: run.sh [--workload NAME]... [--seed N] [--seconds S]" \
       "[--trace [0|1]] [--smoke]" >&2
  exit 2
}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
selected=()
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload)
      [ $# -ge 2 ] || usage
      selected+=("$2")
      shift 2 ;;
    --workload=*)
      selected+=("${1#*=}")
      shift ;;
    --seed | --seconds)
      [ $# -ge 2 ] || usage
      pass+=("$1" "$2")
      shift 2 ;;
    --seed=* | --seconds=* | --trace=*)
      pass+=("$1")
      shift ;;
    --trace)
      if [ $# -ge 2 ] && [[ "$2" != --* ]]; then
        pass+=(--trace "$2")
        shift 2
      else
        pass+=(--trace 1)
        shift
      fi ;;
    --smoke)
      pass+=(--smoke)
      shift ;;
    *)
      echo "run.sh: unknown argument: $1" >&2
      usage ;;
  esac
done
[ ${#selected[@]} -gt 0 ] ||
  selected=(dumbbell_fig9 grid_overload regions4_sharded chaos_linkstate)

jobs="$(nproc 2>/dev/null || echo 1)"
[ "$jobs" -le 4 ] || jobs=4
if [ ! -f "$build/Makefile" ] && [ ! -f "$build/build.ninja" ]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target qnetp_bench -j "$jobs" >&2

# Provenance: the commit, only when the checkout is itself a git work tree.
QNETP_BENCH_GIT=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" &&
   [ "$top" = "$root" ]; then
  QNETP_BENCH_GIT="$(git -C "$root" rev-parse HEAD)"
  if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    QNETP_BENCH_GIT="$QNETP_BENCH_GIT-dirty"
  fi
fi
export QNETP_BENCH_GIT

cd "$root"
status=0
for workload in "${selected[@]}"; do
  "$build/qnetp_bench" --workload "$workload" --out "$build" \
    ${pass[@]+"${pass[@]}"} || status=$?
done
exit "$status"
