#!/usr/bin/env python3
"""Smoke test of the benchmark suite at a tiny budget.

Runs every workload end to end and traced with CBWS_BENCH_INSTS=5000
and checks: exit status 0, a result object as the last line, every
metric BENCHMARK.json names present for every workload, no failed cell
(which includes traced results equal to untraced ones), and the
budget override recorded in the result file.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE = Path(__file__).resolve().parent
BENCHMARK = SUITE.parent.parent / "BENCHMARK.json"


def run(exe, workload, tmp, expect):
    path = Path(tmp) / f"{Path(exe).name}.{workload}.json"
    env = dict(os.environ, CBWS_BENCH_INSTS="5000")
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", "7", "--seconds", "30",
         "--json", str(path), "--scratch", str(Path(tmp) / "scratch")],
        env=env, capture_output=True, text=True)
    where = f"{Path(exe).name} --workload {workload}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n" \
        f"{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed",
                              "metrics"], f"{where}: keys {sorted(result)}"
    names = sorted(result["metrics"])
    assert names == sorted(expect), \
        f"{where}: metrics {names} != {sorted(expect)}"
    assert result["correct"] and result["failed"] == 0, \
        f"{where}: failed cells\n{proc.stderr}"
    assert result["attempted"] >= 1, where
    for line in proc.stdout.splitlines()[:-1]:
        if not line.startswith("#"):
            assert line.split()[0] == workload, f"{where}: {line!r}"
    saved = json.loads(path.read_text())
    assert saved["budget_overridden"] and saved["insts"] == 5000, where
    assert saved["fail_frac"] == 0, where


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bench", required=True)
    parser.add_argument("--trace-bench", required=True)
    args = parser.parse_args()
    benchmark = json.loads(BENCHMARK.read_text())
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    per_layer = [m["name"] for m in benchmark["per_layer"]]
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in (w["name"] for w in benchmark["workloads"]):
            run(args.bench, workload, tmp, end_to_end)
            run(args.trace_bench, workload, tmp, per_layer)
    print("suite smoke test passed")


if __name__ == "__main__":
    sys.exit(main())
