#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent commit vs change.

    python3 bench/suite/compare.py runs/parent runs/change

Each directory holds BENCH_suite JSON files written by
`run.py --out-dir DIR` (trace-run files are skipped). For every
workload x end-to-end metric of BENCHMARK.json it prints both sides'
median and quartiles, the fraction of paired runs the change wins and
a verdict (README.md, "Comparing two commits"):

  improved       >= 10 pairs, the change wins >= 9/10 of them, and the
                 medians differ by more than the parent's quartile gap;
  regression     the change's median is worse by more than the bound;
  unresolved     the run-to-run spread (quartile gap / median, either
                 side) exceeds the bound, and not every change run beats
                 every parent run;
  no regression  otherwise.

Runs pair up by seed, in file-name order within a seed; ties count for
neither side. A run whose correctness gate failed is a regression of
fail_frac. Exits 1 when any verdict is a regression.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent.parent / \
    "BENCHMARK.json"
MIN_PAIRS_FOR_GAIN = 10
GAIN_WIN_FRACTION = 0.9


def load_runs(directory):
    """End-to-end result files in @directory, keyed by workload."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            run = json.load(f)
        if run.get("bench") != "suite" or "spans" in run:
            continue
        run["_file"] = path.name
        runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs_by_seed(parent, change):
    """(parent run, change run) pairs sharing a seed."""
    by_seed = {}
    for side, runs in ((0, parent), (1, change)):
        for run in runs:
            by_seed.setdefault(run["seed"], ([], []))[side].append(run)
    pairs = []
    for seed in sorted(by_seed):
        p, c = by_seed[seed]
        pairs.extend(zip(p, c))
    return pairs


def judge(metric, parent, change):
    """Verdict for one workload x metric; @metric is a BENCHMARK.json
    end_to_end entry, @parent/@change lists of runs of one workload."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pv = [r["metrics"][name]["value"] for r in parent]
    cv = [r["metrics"][name]["value"] for r in change]
    pm, cm = statistics.median(pv), statistics.median(cv)
    pq, cq = quartiles(pv), quartiles(cv)
    pairs = pairs_by_seed(parent, change)
    wins = sum(1 for p, c in pairs
               if sign * (c["metrics"][name]["value"] -
                          p["metrics"][name]["value"]) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = sign * (cm - pm)  # > 0: the change is better
    worse_by = -gain / abs(pm) if pm else 0.0
    spread = max((pq[1] - pq[0]) / abs(pm) if pm else 0.0,
                 (cq[1] - cq[0]) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in cv for p in pv)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and
            win_frac >= GAIN_WIN_FRACTION and gain > pq[1] - pq[0]):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        "metric": name, "unit": metric["unit"], "bound": bound,
        "parent_median": pm, "parent_q": pq,
        "change_median": cm, "change_q": cq,
        "delta": (cm - pm) / abs(pm) if pm else 0.0,
        "pairs": len(pairs), "win_frac": win_frac, "spread": spread,
        "verdict": verdict,
    }


def judge_failures(parent, change):
    worst = max(r["fail_frac"] for r in change)
    return {
        "metric": "fail_frac", "unit": "ratio", "bound": 0.0,
        "parent_median": statistics.median(r["fail_frac"] for r in parent),
        "parent_q": (0.0, 0.0),
        "change_median": statistics.median(r["fail_frac"] for r in change),
        "change_q": (0.0, 0.0), "delta": 0.0,
        "pairs": len(pairs_by_seed(parent, change)), "win_frac": 0.0,
        "spread": 0.0,
        "verdict": "regression" if worst > 0 else "no regression",
    }


def compare(parent_runs, change_runs, benchmark):
    """Rows of verdicts, one per workload x metric present on both
    sides, in BENCHMARK.json order."""
    rows = []
    for workload in benchmark["workloads"]:
        w = workload["name"]
        parent, change = parent_runs.get(w), change_runs.get(w)
        if not parent or not change:
            continue
        for metric in benchmark["end_to_end"]:
            rows.append(dict(judge(metric, parent, change), workload=w))
        rows.append(dict(judge_failures(parent, change), workload=w))
    return rows


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with the bounds")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    rows = compare(load_runs(args.parent), load_runs(args.change),
                   benchmark)
    if not rows:
        sys.exit("compare.py: no workload has runs on both sides")
    print(f"{'workload':16} {'metric':24} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'delta':>8} {'pairs':>5} "
          f"{'wins':>5}  verdict")
    for r in rows:
        side = "{:.6g} [{:.6g}, {:.6g}]"
        print(f"{r['workload']:16} {r['metric']:24} "
              f"{side.format(r['parent_median'], *r['parent_q']):34} "
              f"{side.format(r['change_median'], *r['change_q']):34} "
              f"{100 * r['delta']:+7.2f}% {r['pairs']:5d} "
              f"{r['win_frac']:5.2f}  {r['verdict']}")
    sys.exit(1 if any(r["verdict"] == "regression" for r in rows) else 0)


if __name__ == "__main__":
    main()
