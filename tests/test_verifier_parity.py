"""Parity of the blocked verifier with the center-by-center loop it replaced.

``oracle_measure`` is that loop, built from the public scalar API only
(``recenter``, ``hankel_determinant``, ``pade_approximant``,
``rational_derivative``), with each target derivative taken one level per
call (``test_measurement_setup.reference_derivative``).  Against it the array path must reach the same
decisions and raise the same errors; every Taylor-side quantity must be
exactly equal; approximant coefficients must agree to 1e-13 normwise; and
the Pade-side sups may move only within the a-priori Horner rounding bound
``2 n eps max_{zeta, z} sum_k |P_{l,k}| |z - zeta|^k / |B(z)|^(l+1)``
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1),
computed from the oracle's own coefficients.

A builder output has degree exactly ``p`` and is decided by identity, not
by this loop; padded by one zero coefficient as a ``conftest.PerCenter``
(the same polynomial, whose degree reads as its stored length) it takes the
per-center path, which is how the builds below reach it.  The
identity itself is checked against the exact oracle (``test_identity.py``).
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from pade_universal import construct, pade
from pade_universal.compacts import (
    AnnulusSector,
    CompactSpec,
    FilledDisk,
    PointSet,
    Segment,
    discretize,
)
from pade_universal.construct import (
    IndexSequence,
    RequirementSpec,
    TargetFunction,
    _Measurement,
    _requirement_measurement,
    build_universal_polynomial,
    verify_construction,
)
from pade_universal.errors import PadeNotExistError, PoleProximityError
from pade_universal.pade import (
    HankelReport,
    hankel_determinant,
    hankel_test,
    pade_approximant,
    pade_denominators,
    rational_derivative,
)
from pade_universal.series import (
    DEFAULT_TOL,
    FormalPowerSeries,
    Polynomial,
    ToleranceConfig,
    horner,
    poly_mul,
    recentered_coefficients,
    taylor_partial_sum,
)

from conftest import PerCenter, random_coefficients
from test_identity import assert_build_holds_exactly, assert_exact_hankel
from test_measurement_setup import reference_derivative

EPS = float(np.finfo(float).eps)
SEGMENT_K = CompactSpec([Segment(2.0, 3.0)], 64)
DISK_J = CompactSpec([FilledDisk(0.0, 0.6)], 64)
F_ON_L = TargetFunction.rational([1.0], [2.0, -1.0])
F_DESK = IndexSequence([(k, k % 3) for k in range(41)])
F_WIDE = IndexSequence([(k, 1 + k % 2) for k in range(61)])


def oracle_measure(u, p, q, grid_l, grid_k, grid_j, target_k, target_j, levels, tol):
    """The per-center verifier loop; returns the measurement and the
    ``(center, approximant)`` pairs it built, or raises at the first center
    whose Hankel test fails."""
    zk = grid_k.points
    zj = grid_j.points
    zkj = np.concatenate([zk, zj])
    hk = np.asarray(target_k.evaluate(zk))
    fj = np.asarray(target_j.evaluate(zj))
    u_vals_kj = [u.derivative(l).eval(zkj) for l in range(levels + 1)]
    hk_levels = []
    fj_levels = []
    for l in range(1, levels + 1):
        tk, tj = reference_derivative(target_k, l), reference_derivative(target_j, l)
        hk_levels.append(None if tk is None else np.asarray(tk.evaluate(zk)))
        fj_levels.append(None if tj is None else np.asarray(tj.evaluate(zj)))

    hankel_min = math.inf
    hankel_tau_max = 0.0
    sup = {"2": 0.0, "3": 0.0, "4": 0.0, "5": 0.0}
    ident = {f"id_taylor_l{l}": 0.0 for l in range(levels + 1)}
    ident.update({f"id_pade_l{l}": 0.0 for l in range(levels + 1)})
    diag: dict[str, float] = {}

    def bump(key, deviation):
        diag[key] = max(diag.get(key, 0.0), float(np.max(np.abs(deviation))))

    approximants = []
    for zeta in grid_l.points:
        # the whole u recentered, then its first p + q + 1 coefficients
        series = Polynomial(u.recenter(zeta).coeffs[: p + q + 1], zeta).to_series(p + q + 1)
        report = hankel_determinant(series, p, q, tol)
        hankel_min = min(hankel_min, abs(report.value))
        hankel_tau_max = max(hankel_tau_max, report.threshold)
        if not report.nonvanishing:
            raise PadeNotExistError(report)

        partial = taylor_partial_sum(series, p)
        sup["2"] = max(sup["2"], float(np.max(np.abs(partial.eval(zk) - hk))))
        sup["4"] = max(sup["4"], float(np.max(np.abs(partial.eval(zj) - fj))))
        for l in range(levels + 1):
            s_dl = partial.derivative(l).eval(zkj)
            key = f"id_taylor_l{l}"
            ident[key] = max(ident[key], float(np.max(np.abs(s_dl - u_vals_kj[l]))))
            if l >= 1 and hk_levels[l - 1] is not None:
                bump(f"K_taylor_d{l}", s_dl[: len(zk)] - hk_levels[l - 1])
            if l >= 1 and fj_levels[l - 1] is not None:
                bump(f"J_taylor_d{l}", s_dl[len(zk):] - fj_levels[l - 1])

        approximant = pade_approximant(series, p, q, tol)
        approximants.append((zeta, approximant))
        sup["3"] = max(sup["3"], float(np.max(np.abs(approximant.eval(zk) - hk))))
        sup["5"] = max(sup["5"], float(np.max(np.abs(approximant.eval(zj) - fj))))
        for l in range(levels + 1):
            r_dl = rational_derivative(approximant, l)(zkj)
            key = f"id_pade_l{l}"
            ident[key] = max(ident[key], float(np.max(np.abs(r_dl - u_vals_kj[l]))))
            if l >= 1 and hk_levels[l - 1] is not None:
                bump(f"K_pade_d{l}", r_dl[: len(zk)] - hk_levels[l - 1])
            if l >= 1 and fj_levels[l - 1] is not None:
                bump(f"J_pade_d{l}", r_dl[len(zk):] - fj_levels[l - 1])

    achieved = dict(sup)
    achieved.update(ident)
    diagnostics = dict(diag)
    diagnostics["hankel_tau_max"] = hankel_tau_max
    for l in range(levels + 1):
        diagnostics[f"sup_u_d{l}"] = float(np.max(np.abs(u_vals_kj[l])))
    measurement = {
        "achieved": achieved,
        "hankel_min": 0.0 if math.isinf(hankel_min) else float(hankel_min),
        "diagnostics": diagnostics,
    }
    return measurement, approximants


def blocked_measure(u, p, q, grid_l, grid_k, grid_j, target_k, target_j, levels, tol,
                    requested=1.0):
    """The blocked verifier, prepared for a build's K and J against
    ``requested`` and called once at perturbation 1.0; returns the fields of
    its certificate."""
    compacts = [
        (grid_k.points, target_k, "2", "3", "K"),
        (grid_j.points, target_j, "4", "5", "J"),
    ]
    centers = np.array(grid_l.points, dtype=complex)
    measurement = _Measurement(lambda: centers, compacts, levels, tol, requested)
    cert = measurement(u, p, q, 1.0, 0)
    return {
        "achieved": cert.achieved,
        "hankel_min": cert.hankel_min,
        "diagnostics": cert.diagnostics,
        "passed": cert.passed,
    }


def horner_bounds(approximants, zkj, levels):
    """Per level ``l``: the Horner rounding bound of ``P_l / B^(l+1)``."""
    bounds = [0.0] * (levels + 1)
    for zeta, r in approximants:
        w = np.abs(zkj - zeta)
        b_abs = np.abs(r.denom.eval(zkj))
        for l in range(levels + 1):
            coeffs = np.abs(np.array(rational_derivative(r, l).numerator.coeffs))
            weight = sum(c * w**k for k, c in enumerate(coeffs)) / b_abs ** (l + 1)
            bounds[l] = max(bounds[l], 2 * len(coeffs) * EPS * float(np.max(weight)))
    return bounds


def pade_level(key: str):
    """Derivative level of a Pade-side key, ``None`` for a Taylor-side one."""
    if key in ("3", "5"):
        return 0
    match = re.fullmatch(r"(?:id_pade_l|[KJ]_pade_d)(\d+)", key)
    return int(match.group(1)) if match else None


def grids(req: RequirementSpec):
    return discretize(req.L), discretize(req.K), discretize(req.inner_compact())


def assert_parity(u, pq, req, f_on_l):
    p, q = pq
    levels = req.derivative_levels
    grid_l, grid_k, grid_j = grids(req)
    args = (u, p, q, grid_l, grid_k, grid_j, req.target_on_K, f_on_l, levels, DEFAULT_TOL)
    old, approximants = oracle_measure(*args)
    new = blocked_measure(*args, requested=req.requested)

    # the Hankel test held at every center: both sides of every label
    assert {"3", "5", *(f"id_pade_l{l}" for l in range(levels + 1))} <= set(new["achieved"])
    assert list(new["achieved"]) == list(old["achieved"])
    assert list(new["diagnostics"]) == list(old["diagnostics"])
    assert new["hankel_min"] == old["hankel_min"]
    # the pass rule at a nonzero perturbation: every sup in bounds
    sup_ok = all(v < req.requested for v in old["achieved"].values())
    assert new["passed"] == sup_ok

    zkj = np.concatenate([grid_k.points, grid_j.points])
    bounds = horner_bounds(approximants, zkj, levels)
    for table in ("achieved", "diagnostics"):
        for key, value in old[table].items():
            level = pade_level(key)
            if level is None:
                assert new[table][key] == value, key
            else:
                assert abs(new[table][key] - value) <= bounds[level], key

    if approximants:
        centers = np.array([zeta for zeta, _ in approximants], dtype=complex)
        rows = recentered_coefficients(u.coeffs, u.center, centers)[:, : p + q + 1]
        series = np.zeros((len(centers), p + q + 1), dtype=complex)
        series[:, : rows.shape[1]] = rows
        denom = pade_denominators(series, p, q)
        numer = poly_mul(series[:, : p + 1], denom)[:, : p + 1]
        for row, (_, r) in enumerate(approximants):
            for got, want in ((numer[row], r.numer.coeffs), (denom[row], r.denom.coeffs)):
                want = np.array(want)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    return new


def assert_same_refusal(u, pq, req, f_on_l, tol) -> HankelReport:
    """Both loops raise :class:`PadeNotExistError` with the same report."""
    args = (u, *pq, *grids(req), req.target_on_K, f_on_l, req.derivative_levels, tol)
    with pytest.raises(PadeNotExistError) as old:
        oracle_measure(*args)
    with pytest.raises(PadeNotExistError) as new:
        blocked_measure(*args)
    assert new.value.report == old.value.report
    return new.value.report


def desk_requirement(levels: int) -> RequirementSpec:
    return RequirementSpec(
        K=SEGMENT_K,
        target_on_K=TargetFunction.poly([0.0, 0.0, 1.0]),
        L=CompactSpec([FilledDisk(0.0, 0.4)], 16),
        s=50,
        derivative_levels=levels,
        J=DISK_J,
    )


def wide_requirement(centers: int, angle: float = 1.0) -> tuple[RequirementSpec, TargetFunction]:
    """The benchmark's wide geometry: 1/(a - z) on L and J, a quadratic on K."""
    a = 2.5 * complex(math.cos(angle), math.sin(angle))
    req = RequirementSpec(
        K=SEGMENT_K,
        target_on_K=TargetFunction.poly([0.3 - 0.2j, -0.4 + 0.1j, 0.25 + 0.5j]),
        L=CompactSpec([FilledDisk(0.0, 0.4)], centers),
        s=200,
        derivative_levels=2,
        J=DISK_J,
    )
    return req, TargetFunction.rational([1.0], [a, -1.0])


def scalar_recenter(coeffs: list[complex], delta: complex) -> list[complex]:
    """Horner shift by ``delta`` in Python complex arithmetic, one coefficient at a time."""
    a = list(coeffs)
    n = len(a)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            a[i] = a[i] + delta * a[i + 1]
    return a


def scalar_horner(coeffs: list[complex], w: np.ndarray) -> np.ndarray:
    """Horner evaluation at the offsets ``w``, one coefficient at a time."""
    acc = np.zeros_like(w, dtype=complex)
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


class TestKernels:
    """Each array kernel against a scalar loop of the same arithmetic."""

    def test_recentering_is_bitwise(self, rng):
        u = Polynomial(random_coefficients(rng, 25), 0.1 - 0.2j)
        centers = np.array(random_coefficients(rng, 40, bound=0.5) + [u.center])
        rows = recentered_coefficients(u.coeffs, u.center, centers)
        for zeta, row in zip(centers, rows):
            want = scalar_recenter(u.coeffs.tolist(), complex(zeta) - u.center)
            assert row.tolist() == want
            assert np.array_equal(u.recenter(zeta).coeffs, row)

    def test_zero_shift_keeps_the_coefficients(self, rng):
        # every center at the polynomial's own center: the rows are the
        # coefficients, equal to the scalar shift by 0 (which may only turn
        # a -0.0 into +0.0, and == does not tell those apart)
        coeffs = random_coefficients(rng, 25) + [complex(-0.0, 1.0), complex(2.0, -0.0)]
        u = Polynomial(coeffs, 0.1 - 0.2j)
        rows = recentered_coefficients(u.coeffs, u.center, np.full(3, u.center))
        want = scalar_recenter(u.coeffs.tolist(), 0j)
        assert rows.shape == (3, 27)
        for row in rows:
            assert row.tolist() == want
            assert np.array_equal(row, u.coeffs)

    def test_horner_is_bitwise(self, rng):
        coeffs = np.array([random_coefficients(rng, 24) for _ in range(7)])
        centers = np.array(random_coefficients(rng, 7, bound=0.4))
        z = np.array(random_coefficients(rng, 131, bound=3.0))
        values = horner(coeffs, z - centers[:, None])
        for row, zeta, got in zip(coeffs, centers, values):
            assert np.array_equal(scalar_horner(row.tolist(), z - zeta), got)
            assert np.array_equal(Polynomial(row, zeta).eval(z), got)

    def test_hankel_rows_are_bitwise(self, rng):
        # oracle: the scalar test in Python arithmetic, one window at a time
        for p, q in ((0, 0), (3, 1), (5, 4), (2, 5), (9, 11)):
            rows = np.array([random_coefficients(rng, p + q + 1) for _ in range(100)])
            values, scales, thresholds, exists = hankel_test(rows, p, q)
            for i, row in enumerate(rows):
                window = np.array(
                    [[row[k] if k >= 0 else 0j for k in range(p - q + 1 + r, p + 1 + r)]
                     for r in range(q)],
                    dtype=complex,
                ).reshape(q, q)
                value = complex(np.linalg.det(window)) if q else 1.0 + 0j
                scale = float(np.max(np.abs(window))) if q else 1.0
                threshold = DEFAULT_TOL.tau_det * scale**q
                assert (values[i], scales[i], thresholds[i], exists[i]) == (
                    value, scale, threshold, abs(value) > threshold
                )
                report = hankel_determinant(FormalPowerSeries(row), p, q)
                assert (report.value, report.threshold) == (value, threshold)


def padded(u: Polynomial) -> Polynomial:
    """``u`` with one more coefficient, zero, as a :class:`PerCenter`: the
    same polynomial, which the measurement takes through the denominator
    solve."""
    return PerCenter(np.append(u.coeffs, 0j), u.center)


class TestParity:
    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    def test_desk_scenario(self, levels, monkeypatch):
        req = desk_requirement(levels)
        u, cert = build_universal_polynomial(req, F_ON_L, F_DESK)
        assert cert.passed
        assert_parity(padded(u), cert.selected, req, F_ON_L)
        # blocks of three centers: running maxima across six blocks
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        assert_parity(padded(u), cert.selected, req, F_ON_L)

    def test_boundary_split_scenario(self):
        left_half = CompactSpec(
            [AnnulusSector(0.0, 0.0, 1.0, math.pi / 2, 3 * math.pi / 2)], 24
        )
        target = TargetFunction.poly([0.0, 1.0, 1.0])
        req = RequirementSpec(
            K=CompactSpec([Segment(1.0, 2.0)], 48), target_on_K=target, L=left_half,
            s=25, derivative_levels=2, J=left_half,
        )
        # F_WIDE: q >= 1 at every pair, so a zero can be padded
        u, cert = build_universal_polynomial(req, target, F_WIDE)
        assert cert.passed
        assert_parity(padded(u), cert.selected, req, target)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_polynomial(self, seed):
        # degree p + q, so the Hankel windows (and hankel_min) vary per
        # center; small top coefficients keep the poles of B far from the
        # grids, where the Horner bound of the numerator governs
        coeffs = random_coefficients(np.random.default_rng(seed), 9, bound=0.5)
        u = Polynomial(coeffs[:7] + [0.01 * c for c in coeffs[7:]])
        assert_parity(u, (6, 2), desk_requirement(1), F_ON_L)

    @pytest.mark.parametrize("seed", range(3))
    def test_polynomial_longer_than_its_window(self, seed):
        # degree p + q + 2, so no identity: at each center the approximant
        # reads the first p + q + 1 coefficients of the whole u recentered there
        coeffs = random_coefficients(np.random.default_rng(seed), 11, bound=0.5)
        u = Polynomial(coeffs[:7] + [0.01 * c for c in coeffs[7:]])
        centers = CompactSpec([PointSet([0.0, 0.2 - 0.1j, -0.3j, 0.35])], 8)
        req = dataclasses.replace(desk_requirement(1), L=centers)
        assert len(u.coeffs) > 6 + 2 + 1 and len(discretize(centers).points) == 4
        assert_parity(u, (6, 2), req, F_ON_L)

    def test_wide_geometry(self):
        # padded, u's tiny top coefficient fails the float Hankel test at
        # some center: both loops refuse the same center
        req, inner = wide_requirement(64)
        u, cert = build_universal_polynomial(req, inner, F_WIDE)
        assert cert.passed
        assert_same_refusal(padded(u), cert.selected, req, inner, DEFAULT_TOL)


def vanishing_at_center(index: int, p: int):
    """``u = (z - zeta)^(p+1)`` about the ``index``-th desk center ``zeta``:
    its ``(p, 1)`` window ``a_p`` is exactly zero there and nowhere else."""
    req = desk_requirement(2)
    zeta = discretize(req.L).points[index]
    return Polynomial([0j] * (p + 1) + [1.0], zeta), req


class TestErrorsAndMasking:
    def test_strict_pade_not_exist(self, monkeypatch):
        u, req = vanishing_at_center(7, 3)
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        report = assert_same_refusal(u, (3, 1), req, F_ON_L, DEFAULT_TOL)
        assert report.center == discretize(req.L).points[7]

    def test_one_outcome_per_measurement(self, monkeypatch):
        # a per-center u: every Pade key when its Hankel test passes at every
        # center, else the oracle's refusal of the first center where it fails
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        req = desk_requirement(2)
        # (3, 1) windows a_3(zeta) = 4 (zeta - 0.9): nonzero on L
        assert_parity(Polynomial([0j] * 4 + [1.0], 0.9), (3, 1), req, F_ON_L)
        for index in (0, 4, 15):
            u, _ = vanishing_at_center(index, 3)
            report = assert_same_refusal(u, (3, 1), req, F_ON_L, DEFAULT_TOL)
            assert report.center == discretize(req.L).points[index]

    def test_pole_proximity_names_the_same_point(self, monkeypatch):
        # the (3, 1) approximant about the 5th center has its pole on a J point
        req = desk_requirement(2)
        zeta = discretize(req.L).points[5]
        pole = discretize(req.inner_compact()).points[40]
        u = Polynomial([0j, 0j, 0j, pole - zeta, 1.0], zeta)
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        args = (u, 3, 1, *grids(req), req.target_on_K, F_ON_L, 2, DEFAULT_TOL)
        with pytest.raises(PoleProximityError) as old:
            oracle_measure(*args)
        with pytest.raises(PoleProximityError) as new:
            blocked_measure(*args)
        assert complex(new.value.point) == complex(old.value.point) == pole


    def test_first_error_in_grid_order(self, monkeypatch):
        # a loose pole guard puts poles next to some centers; which error
        # comes first then depends on where the vanishing window sits
        monkeypatch.setattr(pade, "TAU_ZERO", 0.1)
        tol = ToleranceConfig(tau_det=0.1)
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        kinds = set()
        for index in range(16):
            u, req = vanishing_at_center(index, 3)
            args = (u, 3, 1, *grids(req), req.target_on_K, F_ON_L, 2, tol)
            outcomes = []
            for measure in (lambda: oracle_measure(*args), lambda: blocked_measure(*args)):
                try:
                    measure()
                    outcomes.append(None)
                except PadeNotExistError as exc:
                    outcomes.append(exc.report)
                except PoleProximityError as exc:
                    outcomes.append(complex(exc.point))
            assert outcomes[0] == outcomes[1], index
            kinds.add(type(outcomes[0]))
        assert complex in kinds and HankelReport in kinds


class TestTaylorIsPade:
    """Builder outputs ``u = fit + d z^p``: the approximants are the Taylor
    sums, both ``u`` itself, so the measurement records ``u``'s values as
    both rows and makes no per-center pass; checked against the exact
    oracle, and against the per-center path where its float test passes."""

    @pytest.mark.parametrize("angle", [1.0, 2.0, 3.0])
    def test_wide_builds(self, angle):
        req, inner = wide_requirement(64, angle)
        u, cert = build_universal_polynomial(req, inner, F_WIDE)
        assert cert.passed
        again = verify_construction(u, req, cert.selected, inner)
        assert (again.achieved, again.hankel_min) == (cert.achieved, cert.hankel_min)
        assert_build_holds_exactly(u, cert, req, inner)

    @pytest.mark.parametrize("levels", [0, 2])
    @pytest.mark.parametrize("pq", [(13, 2), (13, 3)])
    def test_desk_builds(self, pq, levels):
        req = desk_requirement(levels)
        f_seq = IndexSequence([(k, pq[1]) for k in range(41)])
        u, cert = build_universal_polynomial(req, F_ON_L, f_seq)
        assert cert.passed and cert.selected == pq
        assert_build_holds_exactly(u, cert, req, F_ON_L)
        measurement = _requirement_measurement(req, F_ON_L, DEFAULT_TOL)
        for d in (1e-6 * cert.perturbation, 1e3 * cert.perturbation):
            trial = Polynomial(np.append(u.coeffs[:-1], d))
            trial_cert = measurement(trial, *pq, d, 0)
            assert trial_cert.passed == (abs(d) < abs(cert.perturbation))
            assert_build_holds_exactly(trial, trial_cert, req, F_ON_L)

    def test_hankel_failure_at_some_centers(self, monkeypatch):
        # q = 2 windows [[a_13, d], [d, 0]] with a_13(zeta) = 14 d (zeta - 0.5):
        # the float test fails where |zeta - 0.5| >= 0.71, first at the sixth
        # center, but each determinant is -d^2 != 0 exactly, and u holds by identity
        tol = ToleranceConfig(tau_det=0.01)
        p, q, d = 14, 2, 1e-3
        u = Polynomial([0j] * (p - 1) + [-p * 0.5 * d, d])
        req = desk_requirement(2)
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        cert = verify_construction(u, req, (p, q), F_ON_L, d, 0, tol)
        assert cert.diagnostics["by_identity"] is True
        assert {"3", "5", "id_pade_l0", "id_pade_l2"} <= set(cert.achieved)
        assert cert.hankel_min == d**2
        assert_exact_hankel(u, discretize(req.L).points, p, q)
        args = (u, p, q, *grids(req), req.target_on_K, F_ON_L, 2, tol)
        with pytest.raises(PadeNotExistError) as new:
            verify_construction(padded(u), req, (p, q), F_ON_L, d, 0, tol)
        with pytest.raises(PadeNotExistError) as old:
            oracle_measure(*args)
        assert new.value.report == old.value.report
        assert new.value.report.center == discretize(req.L).points[5]

    @pytest.mark.parametrize("levels", [0, 2])
    def test_q0_builds_against_the_oracle(self, levels):
        # at q = 0 the approximant is the partial sum, u itself
        req = desk_requirement(levels)
        u, cert = build_universal_polynomial(req, F_ON_L, IndexSequence([(13, 0)]))
        assert cert.passed and cert.selected == (13, 0)
        assert cert.hankel_min == 1.0
        assert_build_holds_exactly(u, cert, req, F_ON_L)


#: The array kernels of the per-center path, counted by ``solver_calls``.
KERNELS = ("recentered_coefficients", "hankel_test", "pade_denominators", "derivative_numerators")


@pytest.fixture
def solver_calls(monkeypatch):
    """Calls of the per-center kernels made by measurement calls (a rational
    target's derivatives are built before)."""
    calls = dict.fromkeys(("measure",) + KERNELS, 0)
    inside = []
    for name in KERNELS:
        def counted(*args, _name=name, _kernel=getattr(construct, name)):
            calls[_name] += bool(inside)
            return _kernel(*args)

        monkeypatch.setattr(construct, name, counted)
    call = _Measurement.__call__

    def measured(self, *args, **kwargs):
        calls["measure"] += 1
        inside.append(True)
        try:
            return call(self, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(_Measurement, "__call__", measured)
    return calls


class TestSolverCalls:
    """The per-center path (recentering, Hankel test, denominator solve) runs
    exactly for polynomials that are not of degree ``p`` with ``u_p != 0``."""

    @pytest.mark.parametrize("q", [0, 2])
    def test_builds_and_their_verification_solve_nothing(self, q, solver_calls):
        req = desk_requirement(2)
        f_seq = IndexSequence([(k, q) for k in range(41)])
        u, cert = build_universal_polynomial(req, F_ON_L, f_seq)
        verify_construction(u, req, cert.selected, F_ON_L)
        wide, inner = wide_requirement(64)
        w, wide_cert = build_universal_polynomial(wide, inner, F_WIDE)
        verify_construction(w, wide, wide_cert.selected, inner)
        assert solver_calls["measure"] == 4
        assert [solver_calls[k] for k in KERNELS] == [0, 0, 0, 0]

    def test_extension_solves_nothing(self, solver_calls):
        psi = TargetFunction.rational([1.5], [0.0, 1.0])
        k_compact = CompactSpec([FilledDisk(2.0, 0.5)], 32)
        f_seq = IndexSequence([(k, 2) for k in range(61)])
        construct.extend_prefix([0.0], k_compact, psi, 1000, f_seq)
        assert solver_calls["measure"] == 1
        assert [solver_calls[k] for k in KERNELS] == [0, 0, 0, 0]

    def test_other_polynomials_solve(self, solver_calls):
        req = desk_requirement(1)
        u, cert = build_universal_polynomial(req, F_ON_L, IndexSequence([(14, 2)]))
        seen = []
        for trial, pq in (
            (Polynomial(np.append(u.coeffs, 1e-300)), (14, 2)),  # nonzero above p
            (Polynomial(np.append(u.coeffs[:-1], 0j)), (14, 0)),  # u_p = 0
            (Polynomial(random_coefficients(np.random.default_rng(0), 9, 0.5)), (6, 2)),
        ):
            before = dict(solver_calls)
            verify_construction(trial, req, pq, F_ON_L, 1.0)
            seen.append([solver_calls[k] - before[k] for k in KERNELS])
        assert all(min(calls) >= 1 for calls in seen)


def test_verify_op_counts_do_not_grow_with_centers(monkeypatch):
    """``Polynomial`` constructions of one verification do not depend on |L|,
    and no center is recentered through the scalar path."""
    req, inner = wide_requirement(64)
    u, cert = build_universal_polynomial(req, inner, F_WIDE)
    counts = {"new": 0, "recenter": 0}
    init, recenter = Polynomial.__init__, Polynomial.recenter

    def counted_init(self, *args, **kwargs):
        counts["new"] += 1
        init(self, *args, **kwargs)

    def counted_recenter(self, *args, **kwargs):
        counts["recenter"] += 1
        return recenter(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "recenter", counted_recenter)
    seen = []
    for centers in (64, 256):
        wider, _ = wide_requirement(centers)
        counts.update(new=0, recenter=0)
        verify_construction(u, wider, cert.selected, inner)
        seen.append(dict(counts))
    assert seen[0]["new"] == seen[1]["new"]
    assert seen[0]["recenter"] == seen[1]["recenter"] == 0


class TestCentersOnlyWhereRead:
    """L is gridded only when the per-center path reads a center."""

    @pytest.fixture
    def grids_made(self, monkeypatch):
        made = []

        def counted(spec):
            made.append(spec)
            return discretize(spec)

        monkeypatch.setattr(construct, "discretize", counted)
        return made

    def test_build_and_its_verify_make_no_grid_of_l(self, grids_made):
        req = desk_requirement(2)
        u, cert = build_universal_polynomial(req, F_ON_L, F_WIDE)
        assert cert.diagnostics["by_identity"] is True
        assert grids_made == [req.K, req.J]
        verify_construction(u, req, cert.selected, F_ON_L)
        assert grids_made[2:] == [req.K, req.J]

    def test_per_center_verify_grids_l_once_and_keeps_its_bits(self, grids_made):
        req = desk_requirement(2)
        u, cert = build_universal_polynomial(req, F_ON_L, F_DESK)
        del grids_made[:]
        p, q = cert.selected
        lazy = verify_construction(padded(u), req, (p, q), F_ON_L, 1.0, 0)
        assert grids_made == [req.K, req.J, req.L]
        assert "by_identity" not in lazy.diagnostics
        # the measurement handed L's grid up front, as before centers were lazy
        eager = blocked_measure(
            padded(u), p, q, *grids(req), req.target_on_K, F_ON_L, 2, DEFAULT_TOL,
            requested=req.requested,
        )
        for table in ("achieved", "diagnostics"):
            got = {k: v.hex() for k, v in getattr(lazy, table).items()}
            assert got == {k: v.hex() for k, v in eager[table].items()}
        assert (lazy.hankel_min, lazy.passed) == (eager["hankel_min"], eager["passed"])
