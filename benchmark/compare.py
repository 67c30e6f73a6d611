#!/usr/bin/env python3
"""Compare two commits (or two saved result sets) on the repo benchmark.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--seconds S] [--seed 1] [--workload NAME]...
    python3 benchmark/compare.py --saved PARENT_RESULTS CHANGE_RESULTS

The first form runs `bash benchmark/run.sh` in two checkouts, alternating
which side goes first, for --pairs pairs per workload; pair i uses seed
--seed + i on both sides, and --seconds defaults to BENCHMARK.json's
run_seconds. The second form reads result sets saved by
earlier runs: each directory holds one sub-directory per invocation with a
<workload>.json per workload (benchmark/baseline/set1 is one); invocations
are paired in name order.

Each (metric, workload) row shows both sides' median and quartiles and a
verdict, using the bound and direction of the metric in BENCHMARK.json:
  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  REGRESSION  the change's median is worse than the parent's by more than
              the bound;
  unresolved  either side's spread (IQR / median) is wider than the bound,
              unless every change run beats every parent run;
  ok          none of the above.
Any rise of op_fail_ratio in a pair is flagged. Exit status: 0 when no row
regresses, no op_fail_ratio rises and every run passed its checks; 1
otherwise; 2 on bad usage.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_once(checkout, workload, seed, seconds):
    """One benchmark invocation in `checkout`; returns its results file."""
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    results = Path(checkout) / "build-bench" / "results" / f"{workload}.json"
    if proc.returncode not in (0, 1) or not results.exists():
        sys.exit(f"compare.py: {' '.join(cmd)} failed in {checkout} "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(results.read_text())


def collect_runs(parent, change, workloads, pairs, seconds, seed):
    runs = {w: ([], []) for w in workloads}
    for i in range(pairs):
        for w in workloads:
            order = [(0, parent), (1, change)] if i % 2 == 0 else [(1, change), (0, parent)]
            for side, checkout in order:
                runs[w][side].append(run_once(checkout, w, seed + i, seconds))
            print(f"pair {i + 1}/{pairs} {w} done", file=sys.stderr)
    return runs


def load_saved(parent, change, workloads):
    runs = {w: ([], []) for w in workloads}
    for side, root in enumerate((parent, change)):
        for inv in sorted(p for p in Path(root).iterdir() if p.is_dir()):
            for w in workloads:
                f = inv / f"{w}.json"
                if f.exists():
                    runs[w][side].append(json.loads(f.read_text()))
    for w, (p, c) in runs.items():
        if len(p) != len(c) or len(p) < 2:
            sys.exit(f"compare.py: {w}: need equal numbers (>= 2) of saved runs, "
                     f"got {len(p)} and {len(c)}")
    return runs


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(q1, med, q3):
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric, parent, change):
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (pm - cm) if higher else (cm - pm)
    if spread(p1, pm, p3) > bound or spread(c1, cm, c3) > bound:
        all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
        v = "gain (every run)" if all_better else "unresolved"
    elif worse_by > bound * abs(pm):
        v = "REGRESSION"
    elif wins >= 0.9 * len(parent) and -worse_by > (p3 - p1):
        v = "gain"
    else:
        v = "ok"
    return (p1, pm, p3), (c1, cm, c3), wins, v


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--saved", action="store_true",
                    help="compare saved result sets instead of running checkouts")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        ap.error("--pairs and --seconds must be >= 1, --seed >= 0")
    workloads = args.workload or WORKLOADS

    if args.saved:
        runs = load_saved(args.parent, args.change, workloads)
    else:
        runs = collect_runs(args.parent, args.change, workloads, args.pairs,
                            args.seconds, args.seed)

    status = 0
    fmt = "{:<18} {:<20} {:>33} {:>33} {:>6}  {}"
    print(fmt.format("workload", "metric", "parent q1 / median / q3",
                     "change q1 / median / q3", "wins", "verdict"))
    for w in workloads:
        parent, change = runs[w]
        bad = [r for r in parent + change if not r["correct"]]
        if bad:
            status = 1
            print(f"{w}: {len(bad)} run(s) failed their correctness checks")
        for metric in BENCH["end_to_end"]:
            name = metric["name"]
            pq, cq, wins, v = verdict(metric, [r["metrics"][name]["value"] for r in parent],
                                      [r["metrics"][name]["value"] for r in change])
            if v == "REGRESSION":
                status = 1
            print(fmt.format(w, name, " / ".join(f"{x:.5g}" for x in pq),
                             " / ".join(f"{x:.5g}" for x in cq),
                             f"{wins}/{len(parent)}", v))
        rises = sum(c["metrics"]["op_fail_ratio"]["value"] > p["metrics"]["op_fail_ratio"]["value"]
                    for p, c in zip(parent, change))
        if rises:
            status = 1
            print(f"{w}: op_fail_ratio rose in {rises}/{len(parent)} pair(s)  FLAGGED")
        same = sum(p["digest"] == c["digest"] for p, c in zip(parent, change))
        print(f"{w}: sim-time digests identical in {same}/{len(parent)} pair(s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
