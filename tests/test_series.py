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
    horner,
    int_from_json,
    pair_to_complex,
    poly_mul,
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


class TestHorner:
    """A one-row ``horner`` adds each coefficient as a Python scalar, a stack
    adds a column of its rows: the same float operations in the same order,
    so the one-row call reads the bits of its row of the stack.  Only calls
    of the same shape are compared: a slice of a longer Horner need not
    read the bits of the Horner of the slice."""

    #: signed zeros, written over the first entries of each array
    ZEROS = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j])

    def signed(self, rng, n):
        values = np.array(random_coefficients(rng, n))
        head = min(n, len(self.ZEROS))
        values[:head] = self.ZEROS[:head]
        return rng.permutation(values)

    @pytest.mark.parametrize("points", [1, 63, 64, 65, 144, 1152])
    @pytest.mark.parametrize("length", [1, 9, 24])
    @pytest.mark.parametrize("trailing", [0, 2])
    def test_one_row_is_its_row_of_a_stack(self, rng, points, length, trailing):
        row, other = (
            np.concatenate([self.signed(rng, length), self.ZEROS[3 - trailing : 3]])
            for _ in range(2)
        )
        w, w_other = self.signed(rng, points), self.signed(rng, points)
        stacked = horner(np.stack([other, row]), np.stack([w_other, w]))
        assert horner(row, w).tobytes() == stacked[1].tobytes()


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
            ToleranceConfig(tau_det=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(tau_det=-1e-10)

    @pytest.mark.parametrize(
        "tau_det", [math.inf, math.nan, True, "1e-3", 10**400, 0.0, -1e-10],
        ids=["inf", "nan", "true", "string", "10**400", "zero", "negative"],
    )
    def test_tau_det_is_a_finite_number_not_a_boolean(self, tau_det):
        # inf decided every cell with q >= 1 "not exists"; True read as 1.0
        with pytest.raises(ValueError, match="^tau_det must be a finite positive number, got "):
            ToleranceConfig(tau_det=tau_det)

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
        assert not np.shares_memory(Polynomial(source).coeffs, source)
        assert source.flags.writeable

    def test_kernel_outputs_are_wrapped_not_copied(self):
        computed = np.array([1.0, 2.0 - 1j, 0.0], dtype=complex)
        p = Polynomial._of_kernel(computed, 0.5j)
        assert p.coeffs is computed and not computed.flags.writeable
        assert p == Polynomial([1.0, 2.0 - 1j, 0.0], 0.5j)
        for bad in (np.array([1.0, np.nan], dtype=complex), np.array([1j * np.inf, 0j])):
            with pytest.raises(ValueError, match="finite"):
                Polynomial._of_kernel(bad, 0j)

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


class TestIntFromJson:
    @pytest.mark.parametrize("payload", [0, 7, -3, 7.0, np.int64(7), 2**63 - 1])
    def test_accepted_forms(self, payload):
        value = int_from_json(payload)
        assert type(value) is int and value == int(payload)

    @pytest.mark.parametrize(
        "payload",
        [2.7, float("inf"), float("nan"), 10**400, 2**63, -(2**63), True, "3", None, [3]],
    )
    def test_rejects(self, payload):
        with pytest.raises(ValueError):
            int_from_json(payload)

    @pytest.mark.parametrize(
        "payload, expected",
        [
            (True, None), (False, None), (2**63 - 1, 2**63 - 1), (-(2**63 - 1), -(2**63 - 1)),
            (2**63, None), (-(2**63), None), (3.0, 3), (3.5, None),
        ],
    )
    def test_exact_ints_and_their_neighbours(self, payload, expected):
        # the exact-int shortcut ends at the int64 bounds and skips bools
        if expected is None:
            with pytest.raises(ValueError, match="int64 range"):
                int_from_json(payload)
        else:
            value = int_from_json(payload)
            assert type(value) is int and value == expected


class TestPairToComplex:
    @pytest.mark.parametrize(
        "payload, value",
        [
            (2, 2 + 0j),
            (-0.75, -0.75 + 0j),
            ("3/2", 1.5 + 0j),
            ([1.5, -2.0], 1.5 - 2j),
            (("0.25", 4), 0.25 + 4j),
            (["1/2", "-3/4"], 0.5 - 0.75j),
        ],
    )
    def test_accepted_forms(self, payload, value):
        z = pair_to_complex(payload)
        assert type(z) is complex and z == value

    @pytest.mark.parametrize(
        "payload",
        [[1.0, 2.0, 3.0], [1.0], None, {"re": 1.0, "im": 0.0}],
    )
    def test_rejects_other_shapes(self, payload):
        with pytest.raises(ValueError, match="expected \\[re, im\\]"):
            pair_to_complex(payload)

    @pytest.mark.parametrize(
        "payload", [True, [True, 0.0], [0.0, False], [False, "1/2"]],
    )
    def test_rejects_booleans(self, payload):
        # JSON true is not the number 1, as in float_from_json and int_from_json
        with pytest.raises(ValueError, match="expected"):
            pair_to_complex(payload)

    @pytest.mark.parametrize(
        "payload",
        [float("nan"), float("inf"), [0.0, float("-inf")], [float("nan"), 1.0]],
    )
    def test_rejects_non_finite_values(self, payload):
        with pytest.raises(ValueError, match="must be finite"):
            pair_to_complex(payload)

    @pytest.mark.parametrize(
        "payload", [["1e999", 0], [0, "-1e999"], "1e999"], ids=["real", "imag", "bare"]
    )
    def test_rejects_fractions_beyond_the_float_range(self, payload):
        with pytest.raises(ValueError, match="must be finite"):
            pair_to_complex(payload)

    @pytest.mark.parametrize(
        "payload", [[10**400, 0], [0, -(10**400)], 10**400], ids=["real", "imag", "bare"]
    )
    def test_rejects_integers_beyond_the_float_range(self, payload):
        # float() and complex() raise OverflowError here, which no caller maps
        with pytest.raises(ValueError, match="must be finite"):
            pair_to_complex(payload)


class TestPolyMul:
    def test_truncated_product_is_the_product_prefix(self, rng):
        for _ in range(200):
            m, n = (int(k) for k in rng.integers(1, 14, 2))
            rows = int(rng.integers(1, 4))
            a = np.array([random_coefficients(rng, m) for _ in range(rows)])
            b = np.array([random_coefficients(rng, n) for _ in range(rows)])
            a[rng.random(a.shape) < 0.2] = -0.0
            whole = poly_mul(a, b)
            assert whole.shape == (rows, m + n - 1)
            for length in range(1, m + n):
                cut = poly_mul(a, b, length)
                assert cut.view(np.int64).tolist() == whole[:, :length].copy().view(np.int64).tolist()

    def test_each_coefficient_is_summed_in_order_from_zero(self, rng):
        """``c_k = ((0 + a_k b_0) + a_{k-1} b_1) + ...`` bit for bit, on one row
        and on stacks, with signed zeros and moduli over sixteen decades."""

        def draw(shape):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x *= 10.0 ** rng.integers(-8, 9, shape)
            x[rng.random(shape) < 0.15] = -0.0
            x[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
            return x

        for trial in range(150):
            m, n = (int(k) for k in rng.integers(1, 14, 2))
            lead = [(), (3,), (2, 2)][trial % 3]
            a, b = draw(lead + (m,)), draw(lead + (n,))
            terms = a[..., None, :] * b[..., :, None]
            expected = np.zeros(lead + (m + n - 1,), dtype=complex)
            for row in np.ndindex(*lead):
                for k in range(m + n - 1):
                    acc = 0j
                    for i in range(max(0, k - m + 1), min(n, k + 1)):
                        acc += complex(terms[row + (i, k - i)])
                    expected[row + (k,)] = acc
            assert poly_mul(a, b).view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_product_values(self):
        a, b = np.array([1.0, 2.0 + 0j]), np.array([3.0, 0j, -1.0])
        assert poly_mul(a, b).tolist() == [3.0, 6.0, -1.0, -2.0]
