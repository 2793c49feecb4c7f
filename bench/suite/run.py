#!/usr/bin/env python3
"""Build the benchmark suite from source and run it (see README.md).

    python3 bench/suite/run.py                        # every workload
    python3 bench/suite/run.py --workload dbms-ddr --seed 7 --seconds 30
    python3 bench/suite/run.py --workload dbms-ddr --trace 1

Each workload runs in its own process. The last line of standard output
is that process's result object; --trace 1 reports the per-layer
metrics instead of the end-to-end ones. The build goes to
.bench_build/suite under the repository root.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
WORKLOADS = ["paper-fig14", "dbms-ddr", "multicore-4", "matrix-parallel"]


def build(target):
    """Configure on first use, then bring @target up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return BUILD / target


def result_path(out_dir, workload, seed, trace):
    name = "BENCH_suite_trace" if trace else "BENCH_suite"
    if not out_dir:
        return Path(name + ".json")
    out_dir.mkdir(parents=True, exist_ok=True)
    n = 0
    while True:
        path = out_dir / f"{name}.{workload}.seed{seed}.{n}.json"
        if not path.exists():
            return path
        n += 1


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42,
                        help="trace seed (7 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget of the timed passes (they run "
                             "in full and warn when over it)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics and spans")
    parser.add_argument("--out-dir", type=Path,
                        help="keep each result file here under a unique "
                             "name (input for compare.py)")
    parser.add_argument("--trajectory", type=Path,
                        help="append one provenance-stamped line with "
                             "every workload's end-to-end metrics")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")

    exe = build("cbws_bench_trace" if args.trace else "cbws_bench")
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    for workload in workloads:
        path = result_path(args.out_dir, workload, args.seed, args.trace)
        cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--json", str(path),
               "--scratch", str(BUILD / "scratch")]
        rc = subprocess.run(cmd).returncode
        if rc != 0:
            sys.exit(rc)
        with open(path) as f:
            results[workload] = json.load(f)
        if not results[workload]["correct"]:
            print(f"run.py: {workload} failed its correctness gate "
                  f"(see {path})", file=sys.stderr)

    if args.trajectory and not args.trace:
        first = next(iter(results.values()))
        line = {
            "git_sha": git_sha() or first["provenance"]["git_sha"],
            "provenance": first["provenance"],
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {
                w: {m: v["value"] for m, v in r["metrics"].items()}
                for w, r in results.items()
            },
        }
        with open(args.trajectory, "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
