import json
import math

import numpy as np
import pytest

from pade_universal.errors import LengthMismatchError, TruncationExceededError
from pade_universal.series import (
    NEG_INF,
    FormalPowerSeries,
    Polynomial,
    ToleranceConfig,
    coefficient_metric,
    disagreement_metric,
    taylor_partial_sum,
)

from conftest import random_coefficients


class TestPartialSums:
    def test_geometric_prefix(self):
        f = FormalPowerSeries([1.0] * 6)
        s = taylor_partial_sum(f, 2)
        assert tuple(s.coeffs) == (1.0, 1.0, 1.0)
        assert s.center == 0.0

    def test_exponential_prefix(self):
        f = FormalPowerSeries([1 / math.factorial(k) for k in range(6)])
        s = taylor_partial_sum(f, 3)
        assert tuple(s.coeffs) == (1.0, 1.0, 0.5, 1 / 6)

    def test_truncation_is_not_zero_fill(self):
        f = FormalPowerSeries([1.0, 2.0])
        with pytest.raises(TruncationExceededError):
            taylor_partial_sum(f, 2)
        with pytest.raises(TruncationExceededError):
            f.coefficient(5)

    def test_degree_and_prefix_match(self, rng):
        for _ in range(20):
            coeffs = random_coefficients(rng, 9)
            f = FormalPowerSeries(coeffs)
            n = int(rng.integers(0, 9))
            s = taylor_partial_sum(f, n)
            assert len(s.coeffs) == n + 1
            assert tuple(s.coeffs) == tuple(coeffs[: n + 1])


class TestRecenter:
    def test_binomial_shift(self):
        p = Polynomial([0.0, 0.0, 1.0])  # z^2 about 0
        q = p.recenter(1.0)
        assert np.allclose(q.coeffs, [1.0, 2.0, 1.0])
        assert q.center == 1.0

    def test_identity_center(self):
        p = Polynomial([3.0, 2.0, 1j])
        assert tuple(p.recenter(0.0).coeffs) == tuple(p.coeffs)

    def test_values_preserved_random_degree_6(self, rng):
        coeffs = random_coefficients(rng, 7)
        p = Polynomial(coeffs)
        zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = p.recenter(zeta)
        pts = random_coefficients(rng, 20, bound=1.5)
        sup = max(abs(p.eval(z)) for z in pts)
        dev = max(abs(p.eval(z) - q.eval(z)) for z in pts)
        assert dev <= 1e-12 * (1.0 + sup)

    def test_unit_disk_invariant_degree_20(self, rng):
        coeffs = random_coefficients(rng, 21, bound=1.0)
        p = Polynomial(coeffs)
        q = p.recenter(0.3 - 0.2j)
        grid = np.exp(2j * np.pi * np.arange(64) / 64)
        sup = float(np.max(np.abs(p.eval(grid))))
        dev = float(np.max(np.abs(p.eval(grid) - q.eval(grid))))
        assert dev <= 1e-10 * (1.0 + sup)


class TestEvalAndDerivative:
    def test_horner_example(self):
        p = Polynomial([1.0, 1.0, 1.0])
        assert p.eval(1.0) == 3.0

    def test_cubic_second_derivative(self):
        p = Polynomial([0.0, 0.0, 0.0, 1.0])  # z^3
        d = p.derivative(2)
        assert np.allclose(d.coeffs, [0.0, 6.0])

    def test_derivative_matches_finite_differences(self, rng):
        coeffs = random_coefficients(rng, 9)
        p = Polynomial(coeffs)
        d1 = p.derivative(1)
        h = 1e-5
        for z in random_coefficients(rng, 10, bound=1.0):
            fd = (p.eval(z + h) - p.eval(z - h)) / (2 * h)
            assert abs(d1.eval(z) - fd) <= 1e-6 * (1.0 + abs(fd))

    def test_zero_polynomial_degree_sentinel(self):
        p = Polynomial([0.0, 0.0])
        assert p.degree() == NEG_INF
        assert Polynomial([0.0, 2.0]).degree() == 1

    def test_derivative_of_constant(self):
        assert Polynomial([5.0]).derivative(1).coeffs == (0j,)


class TestMetrics:
    def test_identical_sequences(self):
        a = [1.0, 2.0, 3.0]
        assert coefficient_metric(a, a) == 0.0
        assert disagreement_metric(a, a) == 0.0

    def test_first_disagreement_at_three(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [1.0, 2.0, 3.0, 9.0, 5.0]
        assert disagreement_metric(a, b) == 0.125

    def test_comparison_inequality_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 12))
            a = random_coefficients(rng, n)
            b = random_coefficients(rng, n)
            if rng.uniform() < 0.5:
                k = int(rng.integers(0, n))
                b = a[:k] + b[k:]
            assert coefficient_metric(a, b) <= 2.0 * disagreement_metric(a, b) + 1e-300

    def test_ultrametric_triangle_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = random_coefficients(rng, n)
            b = list(a)
            c = list(a)
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            b[i:] = random_coefficients(rng, n - i)
            c[j:] = random_coefficients(rng, n - j)
            lhs = disagreement_metric(a, c)
            assert lhs <= max(disagreement_metric(a, b), disagreement_metric(b, c))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            coefficient_metric([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatchError):
            disagreement_metric([1.0], [1.0, 2.0])


class TestValidation:
    def test_tolerances_positive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(tau_zero=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(tau_zero=1e-8, tau_det=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FormalPowerSeries([float("nan")])
        with pytest.raises(ValueError):
            Polynomial([1.0], center=float("inf"))
        with pytest.raises(ValueError):
            FormalPowerSeries([])

    def test_series_json_round_trip(self):
        f = FormalPowerSeries([1.0, 0.5 - 0.25j], 0.5j)
        g = FormalPowerSeries.from_json(f.to_json())
        assert g == f

    def test_coeffs_are_read_only(self):
        for obj in (FormalPowerSeries([1.0, 2.0]), Polynomial([1.0, 2.0])):
            assert obj.coeffs.dtype == complex and obj.coeffs.ndim == 1
            with pytest.raises(ValueError):
                obj.coeffs[0] = 5.0

    def test_constructor_copies_its_input(self):
        source = np.array([1.0, 2.0, 3.0], dtype=complex)
        p = Polynomial(source)
        source[0] = 9.0
        assert tuple(p.coeffs) == (1.0, 2.0, 3.0)
        assert Polynomial(p.coeffs).coeffs is not p.coeffs

    def test_non_finite_array_and_2d_rejected(self):
        for bad in (np.array([1.0, np.nan]), np.array([1.0, 1j * np.inf]), np.ones((2, 2))):
            with pytest.raises(ValueError):
                Polynomial(bad)
            with pytest.raises(ValueError):
                FormalPowerSeries(bad)

    def test_polynomial_equality_and_json_round_trip(self):
        p = Polynomial([1.0, -0.5 + 2j, 0.0], 0.25 - 1j)
        assert p == Polynomial([1.0, -0.5 + 2j, 0.0], 0.25 - 1j)
        assert p != Polynomial([1.0, -0.5 + 2j], 0.25 - 1j)
        assert p != Polynomial([1.0, -0.5 + 2j, 0.0], 0.0)
        assert p != FormalPowerSeries([1.0, -0.5 + 2j, 0.0], 0.25 - 1j)
        assert Polynomial.from_json(p.to_json()) == p

    def test_json_is_the_per_pair_form(self):
        coeffs = [complex(-0.0, 1.5), complex(2.0, -0.0), 0j, complex(-1e-300, 3e10)]
        pairs = [[c.real, c.imag] for c in coeffs]
        for cls in (FormalPowerSeries, Polynomial):
            obj = cls(coeffs, 0.5j).to_json()
            assert json.dumps(obj) == json.dumps({"center": [0.0, 0.5], "coeffs": pairs})

    def test_polynomial_zero_extension(self):
        p = Polynomial([1.0, 2.0])
        s = p.to_series(5)
        assert tuple(s.coeffs) == (1.0, 2.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            p.to_series(1)
