"""Write ``inputs.json``, the frozen target pools of the ``wide`` and ``desk``
workloads.

Two kinds of target are screened with the program once, when the pools are
made, and never while the benchmark runs, so that a change to the program
cannot change which inputs a seed selects:

``wide``
    targets whose fit ramp stops at degree 22 on the ``wide`` geometry
    (see ``workloads.py`` for why degree 22 only);
``desk_refusal``
    targets whose fit ramp refuses s = 10^4 on the ``desk`` geometry, so
    that ``cli build`` ends in exit 4.

Each target is an inner 1/(a - z) with |a| in [2, 3] and a uniform
argument, and an outer random complex quadratic; it is stored as the pole
``a`` and the outer coefficients, each complex as [re, im].  The benchmark
picks a seeded subset of each pool.

    python3 perfbench/make_inputs.py [--out perfbench/inputs.json]

Re-running it with the pinned ``POOL_SEED`` against a changed program may
give different pools; the committed file is the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread, as in run.py.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import pade_universal.construct as construct  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20261017
WIDE_POOL = 32
DESK_REFUSAL_POOL = 16
SCREEN_CENTERS = 16


def _fit_degree_22(inner, outer) -> bool:
    """Whether the fit ramp stops at degree 22 with the ``wide`` s and levels.

    A ``d_override`` ends the build after the ramp and one measurement on
    16 centers, so no perturbation search runs: an infeasible target can
    spend minutes in one.
    """
    wide = workloads.Wide
    req = workloads.requirement(outer, SCREEN_CENTERS, wide.s, wide.levels)
    try:
        _, cert = construct.build_universal_polynomial(
            req, inner, workloads.BUILD_F, d_override=1e-12
        )
    except workloads.LIBRARY_REFUSALS:
        return False
    return cert.fit_degree == wide.fit_degree


def _fit_refuses(inner, outer) -> bool:
    """Whether the fit ramp alone refuses s = 10^4, so ``build`` exits 4.

    Most targets bottom out above 1/(2 s) = 5e-5, as the acceptance target
    does (5.4e-5); about one in twelve fits below it, and then the
    perturbation search spends seconds before exit 6.
    """
    desk = workloads.Desk
    req = workloads.requirement(outer, desk.centers, desk.refusal_s, 0)
    try:
        construct.build_universal_polynomial(req, inner, workloads.BUILD_F, d_override=1.0)
    except construct.FitFailedError:
        return True
    return False


def _pool(rng, size, accept):
    pool, tried = [], 0
    while len(pool) < size:
        tried += 1
        if tried > 20 * size:
            raise SystemExit(f"only {len(pool)} of {tried} draws accepted; the screen is off")
        entry = workloads.draw_target(rng, rng.uniform(), rng.uniform())
        if accept(*workloads.targets(entry)):
            pool.append(entry)
    return pool, tried


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "inputs.json"))
    args = parser.parse_args()
    rng = np.random.default_rng(POOL_SEED)
    wide, wide_tried = _pool(rng, WIDE_POOL, _fit_degree_22)
    desk, desk_tried = _pool(rng, DESK_REFUSAL_POOL, _fit_refuses)
    data = {
        "pool_seed": POOL_SEED,
        "screened": {"wide": [len(wide), wide_tried], "desk_refusal": [len(desk), desk_tried]},
        "wide": wide,
        "desk_refusal": desk,
    }
    # One target per line, so that a change to a pool reads as a short diff.
    fields = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in data.items() if k in ("pool_seed", "screened")]
    for name in ("wide", "desk_refusal"):
        lines = ",\n".join("  " + json.dumps(entry) for entry in data[name])
        fields.append(f" {json.dumps(name)}: [\n{lines}\n ]")
    text = "{\n" + ",\n".join(fields) + "\n}\n"
    if json.loads(text) != data:
        raise SystemExit("inputs.json would not read back as written")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wide: {len(wide)} of {wide_tried} draws; desk_refusal: {len(desk)} of {desk_tried}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
