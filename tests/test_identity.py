"""Certified builder outputs against the exact oracle.

Every polynomial the builders certify has degree exactly ``p``, and the
measurement decides it by that identity, not by its float realization at
each center.  Here the claims of such certificates are re-derived in exact
rational arithmetic (``exact.py``) from the stored float coefficients:

- at sampled centers the recentered ``(p, q)`` Hankel determinant is
  nonzero;
- at the grid points of K and J, ``|u - T|`` is below ``1/s`` exactly;
- each recorded gated sup lies within the a-priori rounding bound of the
  exact sup: ``2 n eps max_z sum_k |c_k| |z|^k`` for the Horner evaluation
  of ``u`` (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
  ed., 5.1), the same bound for the target's polynomials, and an ``eps``
  per division, subtraction and modulus.

Also here: targets whose float realization refused every ``|d|``.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

from pade_universal import construct
from pade_universal.compacts import discretize
from pade_universal.construct import (
    ExtensionRequirement,
    TargetFunction,
    build_universal_polynomial,
    run_extension_schedule,
)
from pade_universal.exact import (
    QComplex,
    exact_hankel_determinant,
    exact_poly_eval,
    exact_recenter,
)

from test_construct import (
    CIRCLE_K,
    F_DEFAULT,
    F_ON_L,
    F_WIDE,
    WIDE_F_ON_L,
    desk_requirement,
    wide_requirement,
)

EPS = float(np.finfo(float).eps)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def exact(value: complex) -> QComplex:
    value = complex(value)
    return QComplex.of(value.real, value.imag)


def horner_bound(coeffs, center: complex, z: np.ndarray) -> np.ndarray:
    """``2 n eps sum_k |c_k| |z - center|^k`` at each point."""
    w = np.abs(z - center)
    return 2 * len(coeffs) * EPS * sum(abs(c) * w**k for k, c in enumerate(coeffs))


def exact_poly(poly, z: complex) -> QComplex:
    return exact_poly_eval([exact(c) for c in poly.coeffs], exact(z) - exact(poly.center))


def exact_target(target: TargetFunction, z: complex) -> QComplex:
    if target.kind == "poly":
        return exact_poly(target.numer, z)
    return exact_poly(target.numer, z) / exact_poly(target.denom, z)


def target_bound(target: TargetFunction, z: np.ndarray) -> np.ndarray:
    """The rounding bound of ``target.evaluate`` at each point."""
    if target.kind == "poly":
        return horner_bound(target.numer.coeffs, target.numer.center, z)
    numer, denom = target.numer, target.denom
    value = np.abs(numer.eval(z) / denom.eval(z))
    relative = (
        horner_bound(numer.coeffs, numer.center, z) / np.abs(numer.eval(z))
        + horner_bound(denom.coeffs, denom.center, z) / np.abs(denom.eval(z))
        + EPS
    )
    return 2 * value * relative  # first order, doubled


def assert_exact_sup(u, target, points, recorded: float, requested: float | None) -> None:
    """``recorded`` lies within the rounding bound of the exact sup of
    ``|u - T|`` at ``points``, and unless ``requested`` is None every
    ``|u - T|`` there is below it exactly."""
    requested_sq = None if requested is None else QComplex.of(requested).norm2()
    deviations = []
    for z in points:
        deviation = exact_poly(u, z) - exact_target(target, z)
        assert requested_sq is None or deviation.norm2() < requested_sq, z
        deviations.append(abs(deviation.to_complex()))
    exact_sup = max(deviations)
    values = np.abs(u.eval(points)) + np.abs(np.asarray(target.evaluate(points)))
    bound = horner_bound(u.coeffs, u.center, points) + target_bound(target, points) + 4 * EPS * values
    assert abs(recorded - exact_sup) <= float(np.max(bound)), (recorded, exact_sup)


def assert_exact_hankel(u, centers, p: int, q: int) -> None:
    coeffs = [exact(c) for c in u.coeffs]
    for zeta in centers:
        row = exact_recenter(coeffs, exact(zeta) - exact(u.center))
        row += [QComplex.zero()] * (p + q + 1 - len(row))
        assert row[p] == coeffs[p] and all(c.is_zero() for c in row[p + 1 :])
        assert not exact_hankel_determinant(row, p, q).is_zero(), zeta


def assert_build_holds_exactly(u, cert, req, f_on_l, samples: int = 4) -> None:
    """A build certificate: the Hankel conclusion at ``samples`` centers, the
    K sups "2"/"3" and J sups "4"/"5" at every grid point; a certificate that
    did not pass is only compared with the exact sups."""
    assert cert.diagnostics["by_identity"] is True
    levels = req.derivative_levels
    assert {"3", "5", *(f"id_pade_l{l}" for l in range(levels + 1))} <= set(cert.achieved)
    p, q = cert.selected
    assert len(u.coeffs) == p + 1 and u.coeffs[p] == cert.perturbation != 0
    centers = discretize(req.L).points
    assert_exact_hankel(u, centers[:: max(1, len(centers) // samples)], p, q)
    for labels, points, target in (
        (("2", "3"), discretize(req.K).points, req.target_on_K),
        (("4", "5"), discretize(req.inner_compact()).points, f_on_l),
    ):
        assert cert.achieved[labels[0]] == cert.achieved[labels[1]]
        requested = cert.requested if cert.passed else None
        assert_exact_sup(u, target, points, cert.achieved[labels[0]], requested)
    assert all(cert.achieved[key] == 0.0 for key in cert.achieved if key.startswith("id_"))


class TestCertificatesHoldExactly:
    @pytest.mark.parametrize("levels", [0, 2])
    def test_desk_builds(self, levels):
        req = desk_requirement(levels=levels)
        u, cert = build_universal_polynomial(req, F_ON_L, F_DEFAULT)
        assert cert.passed
        assert_build_holds_exactly(u, cert, req, F_ON_L)

    def test_wide_build(self):
        # (23, 2): the pair the float Hankel test could not pass below 1/s
        req = wide_requirement(64)
        u, cert = build_universal_polynomial(req, WIDE_F_ON_L, F_WIDE)
        assert cert.passed and cert.selected == (23, 2)
        assert_build_holds_exactly(u, cert, req, WIDE_F_ON_L)

    def test_desk_greedy_schedule(self):
        reciprocal = TargetFunction.rational([1.0], [0.0, 1.0])
        schedule = [
            ExtensionRequirement(CIRCLE_K, reciprocal, 10),
            ExtensionRequirement(CIRCLE_K, TargetFunction.poly([1.0, 0.0, 0.5]), 50),
            ExtensionRequirement(CIRCLE_K, reciprocal, 100),
        ]
        f_seq = construct.IndexSequence([(k, k % 3) for k in range(61)])
        coeffs, certs = run_extension_schedule([0.0], schedule, f_seq)
        points = discretize(CIRCLE_K).points
        for step, cert in zip(schedule, certs):
            p, q = cert.selected
            u = construct.Polynomial(coeffs[: p + 1])
            assert cert.passed and cert.diagnostics["by_identity"] is True
            assert u.coeffs[p] == cert.perturbation != 0
            assert_exact_hankel(u, [0j], p, q)
            assert cert.achieved["3"] == cert.achieved["2"]
            assert_exact_sup(u, step.psi, points, cert.achieved["3"], cert.requested)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    import workloads

    return workloads


def test_targets_the_float_test_refused_certify(workloads, monkeypatch):
    """The wide geometry at 16 centers, s = 1000, levels 2, with the first 8
    targets ``draw_target`` makes from ``default_rng(7)``: their fits clear
    1/s, yet the float Hankel test refused 6 of them at every ``|d|`` the
    sups allow.  Each certifies at its first pair with one measurement, and
    holds exactly."""
    calls = []
    call = construct._Measurement.__call__

    def counted(measurement, *args, **kwargs):
        calls.append(args[1:3])
        return call(measurement, *args, **kwargs)

    monkeypatch.setattr(construct._Measurement, "__call__", counted)
    rng = np.random.default_rng(7)
    for i in range(8):
        inner, outer = workloads.targets(
            workloads.draw_target(rng, rng.uniform(), rng.uniform())
        )
        req = workloads.requirement(outer, 16, 1000, 2)
        calls.clear()
        u, cert = build_universal_polynomial(req, inner, workloads.BUILD_F)
        assert calls == [cert.selected], i
        p, q = cert.selected
        assert cert.passed, i
        assert (p, q) == next(pair for pair in workloads.BUILD_F.pairs if pair[0] > cert.fit_degree)
        assert math.isfinite(cert.hankel_min) and cert.hankel_min > 0.0
        assert_build_holds_exactly(u, cert, req, inner)
