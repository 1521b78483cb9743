"""Smoke test of the benchmark: one cycle of each workload runs and checks.

``perfbench/workloads.py`` is imported as it stands (nothing under
``perfbench/`` is written); cycle 0 of ``wide``, ``desk`` and ``table`` at
seed 101 must pass the workload's own output check.  This catches a change
to the program's API that would stop the benchmark, such as a renamed
function or a deleted argument it passes.  The Hankel oracle of ``wide``
and ``desk``, which a traced run reports, iterates the center grid of each
build, so it runs here too.  It compares the exact determinant with the
float Hankel test of each recentered row; a build's output is decided by
the degree-``p`` identity instead, so the program's verdict is checked
against the same exact determinants here.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from pade_universal.compacts import discretize
from pade_universal.construct import Certificate, build_universal_polynomial, verify_construction
from pade_universal.errors import FitFailedError
from pade_universal.exact import QComplex, exact_hankel_determinant
from pade_universal.series import Polynomial

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["wide", "desk", "table"])
def test_first_cycle_passes_its_check(name, workloads, tmp_path):
    work = workloads.WORKLOADS[name](101, str(tmp_path))
    _, evidence = work.run_cycle(0)
    assert work.check(0, evidence) == []


@pytest.mark.parametrize("name, expected", [("wide", [1024, 1024]), ("desk", [16, 16])])
def test_first_cycle_oracle_agrees_at_every_center(name, expected, workloads, tmp_path):
    work = workloads.WORKLOADS[name](101, str(tmp_path))
    _, evidence = work.run_cycle(0)
    (_, compared), = work.oracle({0: evidence}).values()
    if name == "wide":
        u, cert, req = evidence["u"], evidence["cert"], work.inputs[0][1]
    else:
        record = evidence["build"][3]
        u = Polynomial.from_json(record["artifacts"]["universal_poly"])
        cert, req = Certificate.from_json(record["certificates"][0]), work.requirements[0]
    assert cert.passed and cert.diagnostics["by_identity"] is True
    p, q = cert.selected
    pade_side = {"3", "5", "id_pade_l0"} <= set(cert.achieved)
    agree = 0
    for zeta in discretize(req.L).points:
        row = u.recenter(zeta).to_series(p + q + 1).coeffs
        exact = exact_hankel_determinant([QComplex.of(c.real, c.imag) for c in row], p, q)
        agree += pade_side == (not exact.is_zero())
    assert [agree, compared] == expected


def test_frozen_pools_keep_their_verdicts(workloads):
    """Every target of the frozen pools of ``inputs.json`` (read, not
    rewritten) still does what the pool was screened for: each ``wide``
    target certifies at 1024 centers and re-verifies bit for bit, and each
    ``desk_refusal`` target ends in ``FitFailedError`` at s = 10^4."""
    with open(workloads.INPUTS, "r", encoding="utf-8") as handle:
        pools = json.load(handle)
    wide, desk = workloads.Wide, workloads.Desk
    assert (len(pools["wide"]), len(pools["desk_refusal"])) == (32, 16)
    for entry in pools["wide"]:
        inner, outer = workloads.targets(entry)
        req = workloads.requirement(outer, wide.centers, wide.s, wide.levels)
        u, cert = build_universal_polynomial(req, inner, workloads.BUILD_F)
        verified = verify_construction(
            u, req, cert.selected, inner,
            perturbation=cert.perturbation, fit_degree=cert.fit_degree,
        )
        assert cert.passed and verified.passed and verified.achieved == cert.achieved
    for entry in pools["desk_refusal"]:
        inner, outer = workloads.targets(entry)
        req = workloads.requirement(outer, desk.centers, desk.refusal_s, 0)
        with pytest.raises(FitFailedError):
            build_universal_polynomial(req, inner, workloads.BUILD_F)


def test_tracer_spans_one_table_cycle(workloads, tmp_path):
    """The tracer finds the names it wraps in the Padé layer: a rename, or a
    signature that moves ``q`` from the third positional argument that
    ``_approx_label`` reads, fails here and not as a silently empty span."""
    import tracer

    work = workloads.WORKLOADS["table"](101, str(tmp_path))
    spans = tracer.Tracer()
    spans.install()
    try:
        work.run_cycle(0)
    finally:
        spans.remove()
    approx = {label: rec[0] for label, rec in spans.stats.items() if label.startswith("pade.approx.")}
    assert sorted(approx) == ["pade.approx.large_q", "pade.approx.small_q"]
    assert sum(approx.values()) == work.sweep_p * work.sweep_q == 240
    assert spans.stats["pade.residual"][0] > 0
    assert spans.stats["reporting.table"][0] == 1
    assert not hasattr(workloads.pade.pade_approximant, "__wrapped__")


def test_tracer_spans_one_desk_cycle(workloads, tmp_path):
    """The tracer finds the construct and compacts names it wraps: it skips a
    missing name silently, so a rename would otherwise read as a zero count."""
    import tracer

    work = workloads.WORKLOADS["desk"](101, str(tmp_path))
    spans = tracer.Tracer()
    spans.install()
    try:
        work.run_cycle(0)
    finally:
        spans.remove()
    for label in ("construct.fit.points", "construct.build", "construct.verify",
                  "construct.extend", "compacts.contains"):
        assert spans.stats.get(label, [0])[0] > 0, label
    assert not hasattr(workloads.construct.build_universal_polynomial, "__wrapped__")
