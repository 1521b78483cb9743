"""Self-test of the benchmark: traced op counts repeat exactly for one seed.

Runs ``run.py --trace 1`` twice per workload with the same seed, each in a
fresh process, and compares the deterministic counts (Polynomial
constructions, Hankel tests, fit-ramp degrees, perturbation attempts, grid
points, ...).  Exits 0 when every count matches and both runs are correct.

    python3 perfbench/selftest.py [--workload wide|desk|table] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import DETERMINISTIC, ROOT


def _traced_counts(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect outputs:\n{done.stderr}")
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["wide", "desk", "table"], action="append")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    status = 0
    for workload in args.workload or ["wide", "desk", "table"]:
        first = _traced_counts(workload, args.seed, args.seconds)
        second = _traced_counts(workload, args.seed, args.seconds)
        differing = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if differing:
            status = 1
            print(f"{workload}: FAIL, counts differ between runs: {differing}")
        else:
            print(f"{workload}: ok, {len(first)} counts repeat exactly: {first}")
    return status


if __name__ == "__main__":
    sys.exit(main())
