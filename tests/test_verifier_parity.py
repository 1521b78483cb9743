"""Parity of the blocked verifier with the center-by-center loop it replaced.

``oracle_measure`` is that loop, built from the public scalar API only
(``recenter``, ``hankel_determinant``, ``pade_approximant``,
``rational_derivative``).  Against it the array path must reach the same
decisions and raise the same errors; every Taylor-side quantity must be
exactly equal; approximant coefficients must agree to 1e-13 normwise; and
the Pade-side sups may move only within the a-priori Horner rounding bound
``2 n eps max_{zeta, z} sum_k |P_{l,k}| |z - zeta|^k / |B(z)|^(l+1)``
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1),
computed from the oracle's own coefficients.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from pade_universal import construct
from pade_universal.compacts import (
    AnnulusSector,
    CompactSpec,
    FilledDisk,
    Segment,
    discretize,
)
from pade_universal.construct import (
    IndexSequence,
    RequirementSpec,
    TargetFunction,
    _assemble_certificate,
    _measure_conclusions,
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

from conftest import random_coefficients

EPS = float(np.finfo(float).eps)
SEGMENT_K = CompactSpec([Segment(2.0, 3.0)], 64)
DISK_J = CompactSpec([FilledDisk(0.0, 0.6)], 64)
F_ON_L = TargetFunction.rational([1.0], [2.0, -1.0])
F_DESK = IndexSequence([(k, k % 3) for k in range(41)])
F_WIDE = IndexSequence([(k, 1 + k % 2) for k in range(61)])


def oracle_measure(u, p, q, grid_l, grid_k, grid_j, target_k, target_j, levels, tol, strict):
    """The per-center verifier loop; returns the measurement and the
    ``(center, approximant)`` pairs it built."""
    zk = grid_k.as_array()
    zj = grid_j.as_array()
    zkj = np.concatenate([zk, zj])
    hk = np.asarray(target_k.evaluate(zk, tol))
    fj = np.asarray(target_j.evaluate(zj, tol))
    u_vals_kj = [u.derivative(l).eval(zkj) for l in range(levels + 1)]
    hk_levels = []
    fj_levels = []
    for l in range(1, levels + 1):
        tk, tj = target_k.derivative(l), target_j.derivative(l)
        hk_levels.append(None if tk is None else np.asarray(tk.evaluate(zk, tol)))
        fj_levels.append(None if tj is None else np.asarray(tj.evaluate(zj, tol)))

    hankel_min = math.inf
    hankel_tau_max = 0.0
    sup = {"2": 0.0, "3": 0.0, "4": 0.0, "5": 0.0}
    ident = {f"id_taylor_l{l}": 0.0 for l in range(levels + 1)}
    ident.update({f"id_pade_l{l}": 0.0 for l in range(levels + 1)})
    diag: dict[str, float] = {}

    def bump(key, deviation):
        diag[key] = max(diag.get(key, 0.0), float(np.max(np.abs(deviation))))

    pade_everywhere = True
    approximants = []
    for zeta in grid_l.points:
        series = u.recenter(zeta).to_series(p + q + 1)
        report = hankel_determinant(series, p, q, tol)
        hankel_min = min(hankel_min, abs(report.value))
        hankel_tau_max = max(hankel_tau_max, report.threshold)
        if not report.nonvanishing and strict:
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

        if not report.nonvanishing:
            pade_everywhere = False
            continue
        approximant = pade_approximant(series, p, q, tol)
        approximants.append((zeta, approximant))
        sup["3"] = max(sup["3"], float(np.max(np.abs(approximant.eval(zk, tol) - hk))))
        sup["5"] = max(sup["5"], float(np.max(np.abs(approximant.eval(zj, tol) - fj))))
        for l in range(levels + 1):
            r_dl = rational_derivative(approximant, l, tol)(zkj)
            key = f"id_pade_l{l}"
            ident[key] = max(ident[key], float(np.max(np.abs(r_dl - u_vals_kj[l]))))
            if l >= 1 and hk_levels[l - 1] is not None:
                bump(f"K_pade_d{l}", r_dl[: len(zk)] - hk_levels[l - 1])
            if l >= 1 and fj_levels[l - 1] is not None:
                bump(f"J_pade_d{l}", r_dl[len(zk):] - fj_levels[l - 1])

    achieved = dict(sup)
    if not pade_everywhere:
        achieved.pop("3")
        achieved.pop("5")
        for l in range(levels + 1):
            ident.pop(f"id_pade_l{l}")
    achieved.update(ident)
    diagnostics = dict(diag)
    diagnostics["hankel_tau_max"] = hankel_tau_max
    for l in range(levels + 1):
        diagnostics[f"sup_u_d{l}"] = float(np.max(np.abs(u_vals_kj[l])))
    measurement = {
        "achieved": achieved,
        "hankel_min": 0.0 if math.isinf(hankel_min) else float(hankel_min),
        "hankel_ok": pade_everywhere,
        "diagnostics": diagnostics,
    }
    return measurement, approximants


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


def assert_parity(u, pq, req, f_on_l, strict=True):
    p, q = pq
    levels = req.derivative_levels
    grid_l, grid_k, grid_j = grids(req)
    args = (u, p, q, grid_l, grid_k, grid_j, req.target_on_K, f_on_l, levels, DEFAULT_TOL)
    old, approximants = oracle_measure(*args, strict)
    new = _measure_conclusions(*args, strict=strict)

    assert new["hankel_ok"] == old["hankel_ok"]
    assert list(new["achieved"]) == list(old["achieved"])
    assert list(new["diagnostics"]) == list(old["diagnostics"])
    assert new["hankel_min"] == old["hankel_min"]
    decisions = [_assemble_certificate(m, pq, 1.0, 0, req.requested).passed for m in (old, new)]
    assert decisions[0] == decisions[1]

    zkj = np.concatenate([grid_k.as_array(), grid_j.as_array()])
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
        series = np.zeros((len(centers), p + q + 1), dtype=complex)
        series[:, : len(u.coeffs)] = recentered_coefficients(u.coeffs, u.center, centers)
        denom = pade_denominators(series, p, q)
        numer = poly_mul(series[:, : p + 1], denom)[:, : p + 1]
        for row, (_, r) in enumerate(approximants):
            for got, want in ((numer[row], r.numer.coeffs), (denom[row], r.denom.coeffs)):
                want = np.array(want)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    return new


def desk_requirement(levels: int) -> RequirementSpec:
    return RequirementSpec(
        K=SEGMENT_K,
        target_on_K=TargetFunction.poly([0.0, 0.0, 1.0]),
        L=CompactSpec([FilledDisk(0.0, 0.4)], 16),
        s=50,
        derivative_levels=levels,
        J=DISK_J,
    )


def wide_requirement(centers: int) -> tuple[RequirementSpec, TargetFunction]:
    """The benchmark's wide geometry: 1/(a - z) on L and J, a quadratic on K."""
    a = 2.5 * complex(math.cos(1.0), math.sin(1.0))
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


class TestParity:
    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    def test_desk_scenario(self, levels, monkeypatch):
        req = desk_requirement(levels)
        u, cert = build_universal_polynomial(req, F_ON_L, F_DESK)
        assert cert.passed
        assert_parity(u, cert.selected, req, F_ON_L)
        # blocks of three centers: running maxima across six blocks
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        assert_parity(u, cert.selected, req, F_ON_L)

    def test_boundary_split_scenario(self):
        left_half = CompactSpec(
            [AnnulusSector(0.0, 0.0, 1.0, math.pi / 2, 3 * math.pi / 2)], 24
        )
        target = TargetFunction.poly([0.0, 1.0, 1.0])
        req = RequirementSpec(
            K=CompactSpec([Segment(1.0, 2.0)], 48), target_on_K=target, L=left_half,
            s=25, derivative_levels=2, J=left_half,
        )
        u, cert = build_universal_polynomial(req, target, F_DESK)
        assert cert.passed
        assert_parity(u, cert.selected, req, target)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_polynomial(self, seed):
        # degree p + q, so the Hankel windows (and hankel_min) vary per
        # center; small top coefficients keep the poles of B far from the
        # grids, where the Horner bound of the numerator governs
        coeffs = random_coefficients(np.random.default_rng(seed), 9, bound=0.5)
        u = Polynomial(coeffs[:7] + [0.01 * c for c in coeffs[7:]])
        assert_parity(u, (6, 2), desk_requirement(1), F_ON_L, strict=False)

    def test_wide_geometry(self):
        req, inner = wide_requirement(64)
        u, cert = build_universal_polynomial(req, inner, F_WIDE)
        assert cert.passed
        assert_parity(u, cert.selected, req, inner)


def vanishing_at_center(index: int, p: int):
    """``u = (z - zeta)^(p+1)`` about the ``index``-th desk center ``zeta``:
    its ``(p, 1)`` window ``a_p`` is exactly zero there and nowhere else."""
    req = desk_requirement(2)
    zeta = discretize(req.L).points[index]
    return Polynomial([0j] * (p + 1) + [1.0], zeta), req


class TestErrorsAndMasking:
    def test_non_strict_partial_hankel_failure(self, monkeypatch):
        u, req = vanishing_at_center(7, 3)
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        new = assert_parity(u, (3, 1), req, F_ON_L, strict=False)
        assert not new["hankel_ok"]
        assert "3" not in new["achieved"] and "id_taylor_l2" in new["achieved"]
        assert "K_pade_d1" in new["diagnostics"]

    def test_strict_pade_not_exist(self, monkeypatch):
        u, req = vanishing_at_center(7, 3)
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        args = (u, 3, 1, *grids(req), req.target_on_K, F_ON_L, 2, DEFAULT_TOL)
        with pytest.raises(PadeNotExistError) as old:
            oracle_measure(*args, True)
        with pytest.raises(PadeNotExistError) as new:
            _measure_conclusions(*args, strict=True)
        assert new.value.report == old.value.report
        assert new.value.report.center == discretize(req.L).points[7]

    def test_pole_proximity_names_the_same_point(self, monkeypatch):
        # the (3, 1) approximant about the 5th center has its pole on a J point
        req = desk_requirement(2)
        zeta = discretize(req.L).points[5]
        pole = discretize(req.inner_compact()).points[40]
        u = Polynomial([0j, 0j, 0j, pole - zeta, 1.0], zeta)
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        args = (u, 3, 1, *grids(req), req.target_on_K, F_ON_L, 2, DEFAULT_TOL)
        with pytest.raises(PoleProximityError) as old:
            oracle_measure(*args, False)
        with pytest.raises(PoleProximityError) as new:
            _measure_conclusions(*args, strict=True)
        assert complex(new.value.point) == complex(old.value.point) == pole


    @pytest.mark.parametrize("strict", [True, False])
    def test_first_error_in_grid_order(self, strict, monkeypatch):
        # a loose pole guard puts poles next to some centers; which error
        # comes first then depends on where the vanishing window sits
        tol = ToleranceConfig(tau_zero=0.1, tau_det=0.1)
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 128)
        kinds = set()
        for index in range(16):
            u, req = vanishing_at_center(index, 3)
            args = (u, 3, 1, *grids(req), req.target_on_K, F_ON_L, 2, tol)
            outcomes = []
            for measure in (lambda: oracle_measure(*args, strict),
                            lambda: _measure_conclusions(*args, strict=strict)):
                try:
                    measure()
                    outcomes.append(None)
                except PadeNotExistError as exc:
                    outcomes.append(exc.report)
                except PoleProximityError as exc:
                    outcomes.append(complex(exc.point))
            assert outcomes[0] == outcomes[1], index
            kinds.add(type(outcomes[0]))
        assert complex in kinds and (not strict or HankelReport in kinds)


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
