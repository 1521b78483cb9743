"""The measurement's set-up and identity measurement, one pass each.

A measurement takes each target's values at every derivative level in one
call (:meth:`TargetFunction.level_values`), evaluates ``u`` and its
derivatives by one Horner over zero-padded rows (``construct._level_values``
of a ``construct._level_rows`` stack, also for stacked rows with their own
offsets, as the per-center Taylor sums), which is also how a polynomial
target's levels are evaluated, and on the identity path measures each
deviation from a target once for both the Taylor and the Pade label.  Each
is checked here bit for bit against the per-level code it replaced, kept
below as the reference.  A target whose coefficient row at some level leaves
the float range is refused with the ``ValueError`` of :class:`Polynomial`,
and a sup that is not finite with :class:`NonFiniteSupError`.
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
    _level_rows,
    _level_values,
    _requirement_measurement,
    build_universal_polynomial,
    verify_construction,
)
from pade_universal.errors import NonFiniteSupError, PoleProximityError
from pade_universal.pade import derivative_numerators
from pade_universal.series import DEFAULT_TOL, Polynomial, differentiate, horner, poly_mul

from conftest import random_coefficients


def reference_derivative(target: TargetFunction, order: int):
    """The target derivative as it was taken before ``level_values``, one level per call."""
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


def reference_values(target: TargetFunction, z: np.ndarray, order: int):
    """The values of :func:`reference_derivative` at ``z``, each part evaluated by
    ``Polynomial.eval``, the one-row Horner, or ``None`` where it has none."""
    derived = reference_derivative(target, order)
    if derived is None:
        return None
    if derived.kind == "poly":
        return derived.numer.eval(z)
    return derived.numer.eval(z) / derived.denom.eval(z)


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
        rng = np.random.default_rng(seed)
        z = np.array(random_coefficients(rng, 24, bound=1.2))
        for target in random_targets(seed)[:-1]:
            levels = target.level_values(z, 4)
            assert len(levels) == 5
            for l, values in enumerate(levels):
                expected = reference_values(target, z, l)
                assert values.tobytes() == expected.tobytes(), (target.kind, l)
                assert target.level_values(z, l)[l].tobytes() == values.tobytes()

    def test_table_targets_have_no_derivatives(self):
        table = random_targets(0)[-1]
        z = np.array([1j, 0.5, 0.5 + 1e-12j])
        values, *higher = table.level_values(z, 2)
        assert values.tobytes() == np.array([-2.0 + 0.5j, 1.0, 1.0]).tobytes()
        assert higher == [None, None]

    def test_each_level_has_the_pole_guard_of_its_own_denominator(self):
        # near the pole of 1e6 / (2e6 - 1e6 z), |B| = 0.1 clears the guard of B
        # (1e-12 * 2e6), but |B^2| = 0.01 does not clear that of B^2 (1e-12 * 4e12)
        target = TargetFunction.rational([1e6], [2e6, -1e6])
        z = np.array([0.5, 2.0 - 1e-7])
        assert np.isfinite(target.level_values(z, 0)[0]).all()
        with pytest.raises(PoleProximityError) as info:
            target.level_values(z, 1)
        assert info.value.point == z[1] and 0.005 < info.value.magnitude < 0.02

    @pytest.mark.parametrize(
        "target",
        [
            TargetFunction.poly([1.0, 0.0, 1e308]),  # level 1: 2e308
            TargetFunction.rational([1e200], [1e200, -5e199]),  # B^2: 1e400
        ],
        ids=["poly", "rational"],
    )
    def test_a_level_beyond_the_float_range_is_refused(self, target):
        z = np.array([0.1, 0.3j])
        assert np.isfinite(target.level_values(z, 0)[0]).all()
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            target.level_values(z, 2)  # and no numpy warning, which the suite makes an error
        # the measurement's set-up refuses it, and writes no numpy warning
        req = requirement(2)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            _requirement_measurement(req, target, *grids(req), DEFAULT_TOL)

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
                rows = _level_values(_level_rows(u.coeffs, levels), z - u.center)
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
                values = _level_values(_level_rows(rows, levels), w)
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
