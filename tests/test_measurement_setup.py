"""The measurement's set-up and identity measurement, one pass each.

A measurement differentiates its targets for all derivative levels at once
(:meth:`TargetFunction.derivatives`), evaluates ``u`` and its derivatives by
one Horner over zero-padded rows (``construct._level_values``, also for
stacked rows with their own offsets, as the per-center Taylor sums), and on
the identity path measures each deviation from a target once for both the
Taylor and the Pade label.  Each is checked here bit for bit against the
per-level code it replaced, kept below as the reference.  A sup that is not
finite is refused with :class:`NonFiniteSupError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from pade_universal import construct
from pade_universal.compacts import CompactSpec, FilledDisk, Segment, discretize
from pade_universal.construct import (
    IndexSequence,
    RequirementSpec,
    TargetFunction,
    _level_values,
    _requirement_measurement,
    build_universal_polynomial,
    verify_construction,
)
from pade_universal.errors import NonFiniteSupError
from pade_universal.pade import derivative_numerators
from pade_universal.series import DEFAULT_TOL, Polynomial, differentiate, horner, poly_mul

from conftest import random_coefficients


def reference_derivative(target: TargetFunction, order: int):
    """The target derivative as it was taken before ``derivatives``, one level per call."""
    if order == 0:
        return target
    if target.kind == "poly":
        return TargetFunction(kind="poly", numer=target.numer.derivative(order))
    if target.kind == "rational":
        den = target.denom.coeffs
        num = reference_numerators(target.numer.coeffs, den, order)[-1]
        den_power = den
        for _ in range(order):
            den_power = poly_mul(den_power, den)
        center = target.numer.center
        return TargetFunction(
            kind="rational", numer=Polynomial(num, center), denom=Polynomial(den_power, center)
        )
    return None


def reference_numerators(numer: np.ndarray, denom: np.ndarray, order: int) -> list[np.ndarray]:
    """``derivative_numerators`` with its ``np.pad`` padding."""

    def pad(c, length):
        return np.pad(c, [(0, 0)] * (c.ndim - 1) + [(0, length - c.shape[-1])])

    b_prime = differentiate(denom)
    out = [numer]
    for l in range(order):
        first = poly_mul(differentiate(out[-1]), denom)
        second = poly_mul(out[-1], b_prime)
        n = max(first.shape[-1], second.shape[-1])
        out.append(pad(first, n) - (l + 1) * pad(second, n))
    return out


def same_target(a: TargetFunction | None, b: TargetFunction | None) -> bool:
    if a is None or b is None:
        return a is b
    parts = [(a.numer, b.numer), (a.denom, b.denom)]
    return (a.kind, a.points, a.values) == (b.kind, b.points, b.values) and all(
        (x is None and y is None)
        or (x.center == y.center and x.coeffs.tobytes() == y.coeffs.tobytes())
        for x, y in parts
    )


def random_targets(seed: int) -> list[TargetFunction]:
    rng = np.random.default_rng(seed)
    center = complex(*rng.uniform(-0.5, 0.5, 2))
    return [
        TargetFunction.poly(random_coefficients(rng, 7), center),
        TargetFunction.poly([0.0, -0.0, 1.5, 0.0], center),
        TargetFunction.rational(random_coefficients(rng, 3), random_coefficients(rng, 3), center),
        TargetFunction.rational([1.0], [2.5 * np.exp(1j * seed), -1.0], center),
        TargetFunction.table([0.5, 1j], [1.0, -2.0 + 0.5j]),
    ]


class TestTargetDerivatives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_levels_match_the_per_level_code(self, seed):
        for target in random_targets(seed):
            levels = target.derivatives(4)
            assert len(levels) == 5 and levels[0] is target
            for l, derived in enumerate(levels):
                assert same_target(derived, reference_derivative(target, l)), (target.kind, l)
                assert same_target(target.derivatives(l)[l], derived)

    def test_table_targets_have_no_derivatives(self):
        table = random_targets(0)[-1]
        assert table.derivatives(2) == [table, None, None]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_numerators_match_the_padded_reference(self, seed):
        rng = np.random.default_rng(seed)
        for shape, m, n in [((), 4, 3), ((5,), 6, 3), ((2, 3), 3, 4), ((4,), 1, 2)]:
            numer = rng.standard_normal(shape + (m,)) + 1j * rng.standard_normal(shape + (m,))
            denom = rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))
            numer.flat[::3] = 0.0  # exact zeros and real-only entries
            denom.imag.flat[::2] = 0.0
            new = derivative_numerators(numer, denom, 3)
            old = reference_numerators(numer, denom, 3)
            assert [a.shape for a in new] == [b.shape for b in old]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(new, old))


class TestLevelHorner:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rows_are_each_levels_own_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        center = complex(*rng.uniform(-0.5, 0.5, 2)) if seed % 2 else 0.0
        z = np.concatenate([
            np.array(random_coefficients(rng, 40, bound=1.5)),
            rng.standard_normal(8),  # real points
            [center, center, -0.0 + center.real],
        ])
        for length in (1, 2, 5, 12):
            c = np.array(random_coefficients(rng, length))
            c[rng.uniform(size=length) < 0.3] = 0.0  # exact zeros
            if length > 2:
                c[1] = -0.0
                c[-2] = complex(c[-2].real, 0.0)  # real-only
            u = Polynomial(c, center)
            for levels in (0, 1, 2, length + 1):
                rows = _level_values(u.coeffs, z - u.center, levels)
                assert rows.shape == (levels + 1, len(z))
                for l in range(levels + 1):
                    assert rows[l].tobytes() == u.derivative(l).eval(z).tobytes(), (length, l)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stacked_rows_are_each_levels_own_horner(self, seed):
        # several coefficient rows, each with its own row of offsets, as the
        # per-center Taylor sums are evaluated
        rng = np.random.default_rng(seed)
        w = np.array(random_coefficients(rng, 5 * 24, bound=1.5)).reshape(5, 24)
        w[:, :3] = [0.0, -0.0, complex(0.0, -0.0)]  # points at the center, signed zeros
        w[1] = w[1].real  # real offsets
        for length in (1, 2, 5, 12):
            rows = np.array(random_coefficients(rng, 5 * length)).reshape(5, length)
            rows[rng.uniform(size=rows.shape) < 0.3] = 0.0  # exact zeros
            rows[:, 0] = -0.0
            rows[2] = rows[2].real  # a real-only row
            for levels in (0, 1, 2, length + 1):
                values = _level_values(rows, w, levels)
                assert values.shape == (levels + 1, 5, 24)
                derived = rows
                for l in range(levels + 1):
                    assert values[l].tobytes() == horner(derived, w).tobytes(), (length, l)
                    derived = differentiate(derived)


def requirement(levels: int) -> RequirementSpec:
    return RequirementSpec(
        K=CompactSpec([Segment(2.0, 3.0)], 32),
        target_on_K=TargetFunction.rational([0.5, 1.0], [3.5, -1.0]),
        L=CompactSpec([FilledDisk(0.0, 0.4)], 16),
        s=50,
        derivative_levels=levels,
        J=CompactSpec([FilledDisk(0.0, 0.6)], 32),
    )


F_ON_L = TargetFunction.rational([1.0], [2.0, -1.0])


def grids(req: RequirementSpec):
    return discretize(req.L), discretize(req.K), discretize(req.J)


def test_preparation_runs_one_numerator_recurrence_per_rational_target(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return derivative_numerators(*args)

    monkeypatch.setattr(construct, "derivative_numerators", counted)
    req = requirement(2)
    _requirement_measurement(req, F_ON_L, *grids(req), DEFAULT_TOL)
    assert calls == [2, 2]
    calls.clear()
    req = RequirementSpec(req.K, TargetFunction.poly([0.0, 0.0, 1.0]), req.L, req.s, 2, req.J)
    _requirement_measurement(req, F_ON_L, *grids(req), DEFAULT_TOL)
    assert calls == [2]


@pytest.mark.parametrize("levels", [0, 2])
def test_identity_measures_each_deviation_once_for_both_labels(levels):
    req = requirement(levels)
    u, cert = build_universal_polynomial(req, F_ON_L, IndexSequence([(k, 2) for k in range(41)]))
    again = verify_construction(u, req, cert.selected, F_ON_L)
    for c in (cert, again):
        assert c.passed and c.diagnostics["by_identity"] is True
        assert c.achieved["2"] == c.achieved["3"] > 0.0
        assert c.achieved["4"] == c.achieved["5"] > 0.0
        ids = [k for k in c.achieved if k.startswith("id_")]
        assert len(ids) == 2 * (levels + 1)
        assert all(c.achieved[k] == 0.0 for k in ids)
        for l in range(1, levels + 1):
            for name in ("K", "J"):
                assert c.diagnostics[f"{name}_taylor_d{l}"] == c.diagnostics[f"{name}_pade_d{l}"]
    assert again.achieved == cert.achieved


def test_a_non_finite_sup_is_refused_not_recorded_as_zero():
    # u = 2.4e127 z^600 overflows on K = [2, 3], and inf * 0 in Horner gives
    # NaN; max(0.0, nan) is 0.0, so this u once passed with achieved["2"] = 0.0
    req = RequirementSpec(
        K=CompactSpec([Segment(2.0, 3.0)], 16),
        target_on_K=TargetFunction.poly([0.0]),
        L=CompactSpec([FilledDisk(0.0, 0.4)], 8),
        s=50,
        J=CompactSpec([FilledDisk(0.0, 0.6)], 16),
    )
    u = Polynomial([0.0] * 600 + [2.4e127])
    with pytest.raises(NonFiniteSupError, match="the sup on K at derivative level 0 is nan"):
        verify_construction(u, req, (600, 1), TargetFunction.poly([0.0]), perturbation=1.0)
    # off the identity path too, stored to degree 601: the first sup folded
    # there is the id_taylor_l0 sup over every point
    with pytest.raises(NonFiniteSupError, match="the sup on K u J at derivative level 0 is nan"):
        verify_construction(
            Polynomial([0.0] * 600 + [2.4e127, 0.0]), req, (601, 0), TargetFunction.poly([0.0]),
        )
