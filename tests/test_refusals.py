"""Every refusal of a malformed input, each reached once.

One row per check that no other test runs: the readers of JSON input and
the ``family`` command, then the library's own argument checks.  A CLI row
runs :func:`pade_universal.cli.main` and is matched on its exit code and its
one diagnostic line.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from pade_universal import cli
from pade_universal.compacts import (
    Circle,
    CompactSpec,
    DomainSpec,
    exhausting_family,
    outer_family,
)
from pade_universal.construct import (
    ExtensionRequirement,
    IndexSequence,
    RequirementSpec,
    TargetFunction,
    extend_prefix,
)
from pade_universal.errors import (
    DegenerateDenominatorError,
    DegreeMismatchError,
    EmptyResultError,
    TruncationExceededError,
)
from pade_universal.exact import QComplex, exact_hankel_determinant, exact_series_divide
from pade_universal.pade import (
    RationalDerivativeEvaluator,
    RationalFunction,
    rational_table_membership,
)
from pade_universal.series import FormalPowerSeries, Polynomial, taylor_partial_sum


class Exited(Exception):
    """A CLI run that ended: its message is the exit code, then its standard error."""


def family(domain: str, mode: str = "interior", index: str = "1"):
    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["family", "--domain", domain, "--mode", mode, "--index", index])
        raise Exited(f"{code} {err.getvalue()}")

    return run


def requirement(**fields) -> dict:
    segment = {"kind": "segment", "a": [2, 0], "b": [3, 0]}
    disk = {"kind": "filled_disk", "center": [0, 0], "radius": 0.4}
    target = {"kind": "poly", "coeffs": [[1, 0]]}
    return {"K": segment, "target": target, "L": disk, "s": 50, **fields}


K = CompactSpec([Circle(2.0, 0.5)])
PSI = TargetFunction.rational([1.0], [0.0, 1.0])
F = IndexSequence([(k, 1) for k in range(8)])
DISK = DomainSpec("disk", radius=1.0)
ONE = Polynomial([1.0])
LINE = Polynomial([1.0, -1.0])

REFUSALS = {
    # reachable from JSON or from the CLI
    "target-kind": (
        lambda: TargetFunction.from_json({"kind": "spline"}),
        ValueError, "unknown target kind 'spline'",
    ),
    "primitive-kind": (
        lambda: CompactSpec.from_json({"kind": "blob"}),
        ValueError, "unknown primitive kind 'blob'",
    ),
    "domain-kind": (family("x"), Exited, "^1 .*validation.*unknown domain kind 'x'"),
    "domain-kind-json": (
        family('{"kind": "x"}'), Exited, "^1 .*validation.*unknown domain kind 'x'"
    ),
    "scenario-s-zero": (
        lambda: RequirementSpec.from_json(requirement(s=0)),
        ValueError, "precision parameter s must be >= 1",
    ),
    "scenario-levels-negative": (
        lambda: RequirementSpec.from_json(requirement(derivative_levels=-1)),
        ValueError, "derivative_levels must be nonnegative",
    ),
    "table-lengths": (
        lambda: TargetFunction.from_json({"kind": "table", "points": [[0, 0]], "values": []}),
        ValueError, "table points and values must have equal lengths",
    ),
    "table-empty": (
        lambda: TargetFunction.table([], []), ValueError, "^a table target needs at least one point$"
    ),
    "union-no-disks": (
        family(json.dumps({"kind": "disk_union", "disks": []})),
        Exited, "^1 .*validation.*disk_union needs at least one disk",
    ),
    "exhausting-index-zero": (
        family("disk", index="0"), Exited, "^1 .*validation.*family index k must be >= 1"
    ),
    "outer-index-zero": (
        family("disk", "off-closure", "0"), Exited, "^1 .*family index m must be >= 1"
    ),
    "exhausting-mode": (
        lambda: exhausting_family(DISK, 1, "off-closure"), ValueError, "unknown mode"
    ),
    "outer-mode": (lambda: outer_family(DISK, 1, "interior"), ValueError, "unknown mode"),
    "half-plane-slab": (
        family(json.dumps({"kind": "half_plane", "normal": [1, 0], "offset": -5})),
        Exited, "^1 .*validation.*half-plane slab does not meet the radius-k ball",
    ),
    "exterior-member-empty": (
        lambda: exhausting_family(DomainSpec("disk_complement", radius=2.0), 2),
        EmptyResultError, "empty for this exterior domain",
    ),
    "union-member-empty": (
        lambda: exhausting_family(DomainSpec("disk_union", disks=((10.0, 1.0),)), 1),
        EmptyResultError, "empty for this union",
    ),
    # reachable from the library
    "extension-requirement-s-zero": (
        lambda: ExtensionRequirement(K, PSI, 0), ValueError, "s must be >= 1"
    ),
    "extend-prefix-s-zero": (
        lambda: extend_prefix([0.0], K, PSI, 0, F), ValueError, "s must be >= 1"
    ),
    "extend-prefix-empty": (
        lambda: extend_prefix([], K, PSI, 10, F), ValueError, "prefix must be non-empty"
    ),
    "target-of-unknown-kind": (
        lambda: TargetFunction(kind="spline").evaluate(0.5),
        ValueError, "unknown target kind 'spline'",
    ),
    "rational-centers": (
        lambda: RationalFunction(ONE, Polynomial([1.0], 1.0), 0, 0),
        ValueError, "centers differ",
    ),
    "rational-numerator-above-p": (
        lambda: RationalFunction(LINE, ONE, 0, 0), ValueError, "numerator stores coefficients"
    ),
    "rational-denominator-above-q": (
        lambda: RationalFunction(ONE, LINE, 0, 0), ValueError, "denominator stores coefficients"
    ),
    "rational-not-normalized": (
        lambda: RationalFunction(ONE, Polynomial([2.0]), 0, 0), ValueError, "not normalized"
    ),
    "derivative-evaluator-negative-order": (
        lambda: RationalDerivativeEvaluator(RationalFunction(ONE, LINE, 0, 1), -1),
        ValueError, "derivative order must be nonnegative",
    ),
    "membership-at-a-pole": (
        lambda: rational_table_membership(RationalFunction(ONE, LINE, 0, 1), 1, 1, 1.0),
        DegreeMismatchError, "denominator vanishes at zeta",
    ),
    "coefficient-negative": (
        lambda: FormalPowerSeries([1.0, 2.0]).coefficient(-1),
        IndexError, "negative coefficient index",
    ),
    "derivative-negative": (
        lambda: ONE.derivative(-1), ValueError, "derivative order must be nonnegative"
    ),
    "plus-monomial-negative": (
        lambda: ONE.plus_monomial(1.0, -1), ValueError, "power must be nonnegative"
    ),
    "partial-sum-negative": (
        lambda: taylor_partial_sum(FormalPowerSeries([1.0]), -1),
        ValueError, "partial-sum order must be nonnegative",
    ),
    "exact-divide-by-zero-at-center": (
        lambda: exact_series_divide([QComplex.one()], [QComplex.zero(), QComplex.one()], 3),
        DegenerateDenominatorError, "denominator vanishes at the center",
    ),
    "exact-hankel-past-truncation": (
        lambda: exact_hankel_determinant([QComplex.one()] * 3, 2, 1),
        TruncationExceededError, "coefficient index 3 requested but only 3",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_refusal(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_coefficient_inside_the_truncation():
    f = FormalPowerSeries([1.0, 2.0 - 1.0j])
    assert (f.coefficient(0), f.coefficient(1)) == (1.0, 2.0 - 1.0j)
