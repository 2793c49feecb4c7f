#!/usr/bin/env python3
"""Self-test of compare.py on synthetic result files."""

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))
import compare  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w1", "why": "."}, {"name": "w2", "why": "."}],
    "end_to_end": [
        {"name": "sim_ips", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "speedup", "unit": "x", "better": "higher",
         "bound": 0.02},
    ],
}


def write_runs(directory, workload, values, seeds, failed=0):
    """One result file per seed; @values maps metric -> list."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(seeds):
        run = {
            "bench": "suite", "workload": workload, "seed": seed,
            "fail_frac": failed / 10 if i == 0 else 0.0,
            "metrics": {m: {"value": v[i], "unit": "-"}
                        for m, v in values.items()},
        }
        path = directory / f"BENCH_suite.{workload}.seed{seed}.0.json"
        path.write_text(json.dumps(run))
    # A trace-run file must be ignored.
    (directory / "BENCH_suite_trace.x.json").write_text(
        json.dumps({"bench": "suite", "workload": workload, "spans": []}))


def noisy(center, rel, n, rng):
    return [center * (1 + rng.uniform(-rel, rel)) for _ in range(n)]


def main():
    rng = random.Random(1)
    seeds = list(range(10))
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        # w1: sim_ips 20% faster with 1% noise -> improved; setup_s
        # unchanged -> no regression; speedup 5% lower -> regression.
        write_runs(parent, "w1", {
            "sim_ips": noisy(1e6, 0.01, 10, rng),
            "setup_s": noisy(1.0, 0.01, 10, rng),
            "speedup": [1.2] * 10}, seeds)
        write_runs(change, "w1", {
            "sim_ips": noisy(1.2e6, 0.01, 10, rng),
            "setup_s": noisy(1.0, 0.01, 10, rng),
            "speedup": [1.14] * 10}, seeds)
        # w2: sim_ips 30% slower -> regression; setup_s with 60% noise
        # -> unresolved; speedup identical -> no regression; one failed
        # cell in the change -> fail_frac regression.
        write_runs(parent, "w2", {
            "sim_ips": noisy(1e6, 0.01, 10, rng),
            "setup_s": noisy(1.0, 0.6, 10, rng),
            "speedup": [1.0] * 10}, seeds)
        write_runs(change, "w2", {
            "sim_ips": noisy(0.7e6, 0.01, 10, rng),
            "setup_s": noisy(1.0, 0.6, 10, rng),
            "speedup": [1.0] * 10}, seeds, failed=1)

        rows = compare.compare(compare.load_runs(parent),
                               compare.load_runs(change), BENCHMARK)
        got = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
        want = {
            ("w1", "sim_ips"): "improved",
            ("w1", "setup_s"): "no regression",
            ("w1", "speedup"): "regression",
            ("w1", "fail_frac"): "no regression",
            ("w2", "sim_ips"): "regression",
            ("w2", "setup_s"): "unresolved",
            ("w2", "speedup"): "no regression",
            ("w2", "fail_frac"): "regression",
        }
        assert got == want, f"verdicts {got} != {want}"
        assert all(r["pairs"] == 10 for r in rows), rows

        # Five pairs cannot claim a gain, however clear.
        few = Path(tmp) / "few"
        write_runs(few, "w1", {
            "sim_ips": noisy(1.2e6, 0.01, 5, rng),
            "setup_s": noisy(1.0, 0.01, 5, rng),
            "speedup": [1.2] * 5}, seeds[:5])
        rows = compare.compare(compare.load_runs(parent),
                               compare.load_runs(few), BENCHMARK)
        got = {r["metric"]: r["verdict"] for r in rows}
        assert got["sim_ips"] == "no regression", got

        # The command line exits 1 on a regression, 0 without one.
        bench = Path(tmp) / "BENCHMARK.json"
        bench.write_text(json.dumps(BENCHMARK))
        cli = [sys.executable, str(SUITE / "compare.py"),
               "--benchmark", str(bench)]
        assert subprocess.run(cli + [str(parent), str(change)],
                              capture_output=True).returncode == 1
        assert subprocess.run(cli + [str(parent), str(parent)],
                              capture_output=True).returncode == 0
    print("compare.py self-test passed")


if __name__ == "__main__":
    main()
