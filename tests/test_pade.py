import math
import random

import numpy as np
import pytest

from pade_universal.errors import (
    DegenerateDenominatorError,
    DegreeMismatchError,
    PadeNotExistError,
    PoleProximityError,
    TruncationExceededError,
)
from pade_universal.exact import QComplex, exact_hankel_determinant
from pade_universal.pade import (
    RationalFunction,
    hankel_determinant,
    order_condition_decidability,
    order_condition_residual,
    pade_approximant,
    pade_denominators,
    rational_derivative,
    rational_table_membership,
)
from pade_universal.series import FormalPowerSeries, Polynomial, taylor_partial_sum

from conftest import make_exact_rational, random_coefficients


def exp_series(n=16):
    return FormalPowerSeries([1 / math.factorial(k) for k in range(n)])


def geometric_series(n=16):
    return FormalPowerSeries([1.0] * n)


def jacobi_pair(f, p, q):
    """Normalized (A, B) coefficients from the Jacobi determinant formulas.

    A second oracle next to ``exact.py``, independent of the linear solve
    behind :func:`pade_approximant`.  Both determinants are expanded along
    their first row; the shared lower block has rows
    ``a_{p-q+1+r} .. a_{p+1+r}`` for ``r = 0 .. q-1`` (negative indices read
    as zero), and column ``j`` pairs with ``z^(q-j) S_{p-q+j}``.
    """
    block = np.array(
        [
            [f.coeffs[k] if k >= 0 else 0j for k in range(p - q + 1 + r, p + 2 + r)]
            for r in range(q)
        ],
        dtype=complex,
    )
    a = np.zeros(p + 1, dtype=complex)
    b = np.zeros(q + 1, dtype=complex)
    for j in range(q + 1):
        weight = (-1) ** j * np.linalg.det(np.delete(block, j, axis=1))
        b[q - j] += weight
        partial = np.array(f.coeffs[: max(p - q + j + 1, 0)], dtype=complex)
        a[q - j : q - j + len(partial)] += weight * partial
    return a / b[0], b / b[0]


class TestHankel:
    def test_q_zero_trivially_exists(self, rng):
        f = FormalPowerSeries(random_coefficients(rng, 6))
        report = hankel_determinant(f, 3, 0)
        assert report.value == 1.0
        assert report.nonvanishing

    def test_geometric_vanishing_cell(self):
        report = hankel_determinant(geometric_series(), 1, 2)
        assert abs(report.value) == 0.0
        assert not report.nonvanishing
        assert exact_hankel_determinant([QComplex.one()] * 8, 1, 2).is_zero()

    def test_exponential_cell(self):
        report = hankel_determinant(exp_series(), 1, 1)
        assert report.value == 1.0
        assert report.nonvanishing

    def test_truncation_guard(self):
        f = FormalPowerSeries([1.0, 1.0, 1.0])
        with pytest.raises(TruncationExceededError):
            hankel_determinant(f, 2, 2)

    def test_indexing_validated_by_rational_reproduction(self):
        # the membership pattern of 1/(1-z) pins the window convention:
        # only entries a_{p-q+i+j-1} produce this exact table
        f = geometric_series()
        for p in range(5):
            for q in range(5):
                expected = q <= 1 or p == 0
                assert hankel_determinant(f, p, q).nonvanishing == expected, (p, q)


class TestConstruction:
    def test_classical_exponential_one_one(self):
        r = pade_approximant(exp_series(), 1, 1)
        assert abs(r.numer.coeffs[0] - 1.0) <= 1e-12
        assert abs(r.numer.coeffs[1] - 0.5) <= 1e-12
        assert abs(r.denom.coeffs[0] - 1.0) <= 1e-12
        assert abs(r.denom.coeffs[1] + 0.5) <= 1e-12

    def test_q_zero_equals_partial_sum(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 12))
            f = FormalPowerSeries(random_coefficients(rng, n + 1))
            p = int(rng.integers(0, n + 1))
            r = pade_approximant(f, p, 0)
            assert tuple(r.numer.coeffs) == tuple(taylor_partial_sum(f, p).coeffs)
            assert r.denom.coeffs == (1.0,)

    def test_geometric_zero_one_is_exact(self):
        r = pade_approximant(geometric_series(), 0, 1)
        assert abs(r.numer.coeffs[0] - 1.0) <= 1e-12
        assert abs(r.denom.coeffs[0] - 1.0) <= 1e-12
        assert abs(r.denom.coeffs[1] + 1.0) <= 1e-12
        for z in (0.3, -0.5 + 0.1j, 0.2j):
            assert abs(r.eval(z) - 1.0 / (1.0 - z)) <= 1e-9

    def test_nonexistent_cell_raises(self):
        with pytest.raises(PadeNotExistError) as info:
            pade_approximant(geometric_series(), 1, 2)
        assert info.value.report.p == 1
        assert info.value.report.q == 2

    def test_normalization_and_coprimality(self, rng):
        for _ in range(25):
            f = FormalPowerSeries(random_coefficients(rng, 14))
            p = int(rng.integers(0, 7))
            q = int(rng.integers(0, 7))
            if not hankel_determinant(f, p, q).nonvanishing:
                continue
            r = pade_approximant(f, p, q)
            assert abs(r.denom.eval(r.center) - 1.0) <= 1e-12
            assert r.common_zero() is None

    def test_routes_agree_on_overlap(self, rng):
        for q in range(1, 7):
            f = FormalPowerSeries(random_coefficients(rng, 2 * q + 4))
            p = q + 1
            if not hankel_determinant(f, p, q).nonvanishing:
                continue
            a1, b1 = jacobi_pair(f, p, q)
            r = pade_approximant(f, p, q)
            a2, b2 = r.numer.coeffs, r.denom.coeffs
            scale = max(1.0, float(np.max(np.abs(a2))), float(np.max(np.abs(b2))))
            assert np.max(np.abs(a1 - np.array(a2))) <= 1e-8 * scale
            assert np.max(np.abs(b1 - np.array(b2))) <= 1e-8 * scale

    def test_large_q_uses_linear_solver(self):
        gen = np.random.default_rng(2)
        f = FormalPowerSeries(random_coefficients(gen, 20))
        r = pade_approximant(f, 8, 8)
        scale = max(abs(c) for c in f.coeffs)
        assert order_condition_residual(f, r) <= 1e-8 * scale

    def test_toeplitz_singular_raises_degenerate(self):
        with pytest.raises(DegenerateDenominatorError):
            pade_denominators(np.array([geometric_series().coeffs]), 1, 2)


class TestOrderCondition:
    def test_constructed_approximant_satisfies_order(self):
        f = exp_series()
        r = pade_approximant(f, 2, 2)
        assert order_condition_residual(f, r) <= 1e-10

    def test_perturbed_numerator_breaks_order(self):
        f = exp_series()
        r = pade_approximant(f, 2, 2)
        bumped = RationalFunction(
            Polynomial([r.numer.coeffs[0] + 0.1, *r.numer.coeffs[1:]], r.center),
            r.denom,
            r.p,
            r.q,
        )
        assert order_condition_residual(f, bumped) >= 0.09

    def test_partial_sum_residual_exactly_zero(self, rng):
        f = FormalPowerSeries(random_coefficients(rng, 9))
        r = pade_approximant(f, 4, 0)
        assert tuple(r.numer.coeffs) == tuple(taylor_partial_sum(f, 4).coeffs)
        assert r.denom.coeffs == (1,)
        assert order_condition_residual(f, r) == 0.0

    def test_decidability_gauge_small_for_exponential(self):
        f = exp_series()
        r = pade_approximant(f, 3, 3)
        assert order_condition_decidability(f, r) < 1e-10


class TestRationalDerivative:
    def test_value_at_center(self):
        r = pade_approximant(exp_series(), 1, 1)
        assert abs(rational_derivative(r, 0)(0.0) - 1.0) <= 1e-12

    def test_first_derivative_of_geometric(self):
        r = pade_approximant(geometric_series(), 0, 1)
        assert abs(rational_derivative(r, 1)(0.0) - 1.0) <= 1e-10

    def test_second_derivative_matches_finite_differences(self, rng):
        f = FormalPowerSeries(random_coefficients(rng, 10))
        if not hankel_determinant(f, 3, 3).nonvanishing:
            pytest.skip("degenerate draw")
        r = pade_approximant(f, 3, 3)
        d2 = rational_derivative(r, 2)
        h = 1e-4
        for z in random_coefficients(rng, 5, bound=0.1):
            fd = (r.eval(z + h) - 2 * r.eval(z) + r.eval(z - h)) / h**2
            assert abs(d2(z) - fd) <= 1e-5 * (1.0 + abs(fd))

    def test_order_limit(self):
        r = pade_approximant(exp_series(), 1, 1)
        with pytest.raises(ValueError):
            rational_derivative(r, 11)

    def test_pole_proximity(self):
        r = pade_approximant(geometric_series(), 0, 1)
        with pytest.raises(PoleProximityError):
            r.eval(1.0)
        with pytest.raises(PoleProximityError):
            rational_derivative(r, 1)(1.0)


class TestTableMembership:
    def geometric_rational(self):
        # 1/(1-z): exact type (0, 1), normalized at center 0
        return RationalFunction(
            Polynomial([1.0]), Polynomial([1.0, -1.0]), 0, 1
        )

    def test_row_edge(self):
        assert rational_table_membership(self.geometric_rational(), 3, 1, 0.0) is True

    def test_inside_block(self):
        assert rational_table_membership(self.geometric_rational(), 1, 2, 0.0) is False

    def test_column_edge(self):
        assert rational_table_membership(self.geometric_rational(), 0, 3, 0.0) is True

    def test_undecided_cell_is_none(self):
        r = RationalFunction(
            Polynomial([1.0, 0.0, 1.0]), Polynomial([1.0, -0.5]), 2, 1
        )
        assert rational_table_membership(r, 1, 1, 0.0) is None

    def test_degree_mismatch(self):
        r = RationalFunction(Polynomial([1.0, 0.0]), Polynomial([1.0]), 1, 0)
        with pytest.raises(DegreeMismatchError):
            rational_table_membership(r, 1, 0, 0.0)

    def test_matches_exact_hankel_for_random_rational(self):
        rng = random.Random(11)
        numer, denom, zeta, taylor = make_exact_rational(rng, 2, 2)
        f = FormalPowerSeries([c.to_complex() for c in taylor], zeta.to_complex())
        b0 = denom[0].to_complex()
        r = RationalFunction(
            Polynomial([c.to_complex() / b0 for c in numer]),
            Polynomial([c.to_complex() / b0 for c in denom]),
            2,
            2,
        )
        for p in range(5):
            for q in range(5):
                expected = rational_table_membership(r, p, q, zeta.to_complex())
                if expected is None:
                    continue
                exact = not exact_hankel_determinant(taylor, p, q).is_zero()
                assert exact == expected, (p, q)


class TestHankelContinuity:
    def test_small_perturbations_move_determinant_little(self, rng):
        for _ in range(30):
            coeffs = np.array(random_coefficients(rng, 14, bound=10.0))
            q = int(rng.integers(1, 5))
            p = int(rng.integers(0, 11 - q))
            f = FormalPowerSeries(list(coeffs))
            base = hankel_determinant(f, p, q)
            delta = 1e-8 * np.array(random_coefficients(rng, 14, bound=1.0))
            g = FormalPowerSeries(list(coeffs + delta))
            moved = hankel_determinant(g, p, q)
            assert abs(abs(moved.value) - abs(base.value)) <= 1e-3
