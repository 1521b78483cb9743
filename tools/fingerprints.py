"""Print one sha256 per benchmark cycle fingerprint, for output-parity checks.

Usage, from the root of a checkout:

    python3 tools/fingerprints.py --workload wide|desk|table --seeds 101-105

Runs every cycle of one pass of the workload for each seed, with the
workloads of this checkout's ``perfbench/workloads.py`` and the program of
its ``src/``, and prints ``<seed> <cycle> <sha256>`` per cycle.  Running it
in two checkouts and diffing the outputs checks that a change keeps every
output bit-identical.  BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["wide", "desk", "table"])
    parser.add_argument("--seeds", required=True, type=_seeds, help="one seed N or a range A-B")
    args = parser.parse_args(argv)

    import workloads

    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as workdir:
            work = workloads.WORKLOADS[args.workload](seed, workdir)
            for i in range(work.pass_length):
                _, evidence = work.run_cycle(i)
                digest = hashlib.sha256(work.fingerprint(evidence).encode()).hexdigest()
                print(seed, i, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
