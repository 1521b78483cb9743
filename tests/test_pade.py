import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pade_universal.errors import (
    DegenerateDenominatorError,
    DegreeMismatchError,
    HankelOverflowError,
    PadeNotExistError,
    PoleProximityError,
    TruncationExceededError,
)
from pade_universal import pade
from pade_universal.exact import QComplex, exact_hankel_determinant, exact_rational_taylor
from pade_universal.pade import (
    RationalFunction,
    _quotient_taylor,
    _cell_test,
    _hankel_windows,
    hankel_determinant,
    hankel_test,
    order_condition_decidability,
    order_condition_residual,
    pade_approximant,
    pade_denominators,
    rational_derivative,
    rational_table_membership,
)
from pade_universal.series import (
    DEFAULT_TOL,
    FormalPowerSeries,
    Polynomial,
    ToleranceConfig,
    poly_mul,
    taylor_partial_sum,
)

from conftest import make_exact_rational, overflowing_determinants, random_coefficients


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


    def test_threshold_beyond_the_float_range_is_a_typed_error(self):
        # scale 1e30 to the power 11 overflows; to the power 10 it is about 1e300
        f = FormalPowerSeries([1e30] * 20)
        for cell in (hankel_determinant, pade_approximant):
            with pytest.raises(HankelOverflowError, match=r"\(5,11\) cell") as info:
                cell(f, 5, 11)
            assert (info.value.p, info.value.q, info.value.scale) == (5, 11, 1e30)
            assert info.value.part == "threshold"
        assert hankel_determinant(f, 5, 10).threshold == DEFAULT_TOL.tau_det * 1e30**10

    def test_threshold_whose_product_overflows_is_a_typed_error(self):
        # scale**q = 1e300 is finite and raises nothing, but tau_det * 1e300 is
        # inf: a cell once decided against that threshold, and |D| = 1e300 read
        # as "not exists"
        f = FormalPowerSeries([1e150] * 4)
        tol = ToleranceConfig(tau_det=1e10)
        message = r"Hankel threshold of the \(1,2\) cell overflows"
        for cell in (hankel_determinant, pade_approximant):
            with pytest.raises(HankelOverflowError, match=message) as info:
                cell(f, 1, 2, tol)
            assert (info.value.p, info.value.q, info.value.scale) == (1, 2, 1e150)
            assert info.value.part == "threshold"
        with pytest.raises(HankelOverflowError, match=r"\(0,2\) cell overflows") as info:
            hankel_test(f.coeffs, np.arange(2), 2, tol)
        assert info.value.part == "threshold"
        with pytest.raises(HankelOverflowError, match=r"\(1,2\) cell overflows"):
            hankel_test(np.stack([f.coeffs, f.coeffs]), 1, 2, tol)
        # under the default base every threshold is finite and (0, 2) exists
        assert hankel_determinant(f, 0, 2).nonvanishing
        assert hankel_test(f.coeffs, np.arange(2), 2)[2].max() == DEFAULT_TOL.tau_det * 1e150**2

    def test_stacked_threshold_overflow_names_a_cell(self):
        # one huge coefficient a_10: every q = 11 window of p <= 8 holds it
        coeffs = np.array([1.0] * 10 + [1e30] + [1.0] * 9, dtype=complex)
        with pytest.raises(HankelOverflowError) as info:
            hankel_test(coeffs, np.arange(9), 11)
        assert (info.value.p, info.value.q, info.value.scale) == (0, 11, 1e30)
        with pytest.raises(HankelOverflowError) as info:
            hankel_test(np.stack([coeffs, coeffs]), 5, 11)
        assert (info.value.p, info.value.q) == (5, 11)
        assert hankel_test(coeffs, np.arange(9), 10)[2].max() == DEFAULT_TOL.tau_det * 1e30**10

    def test_determinant_beyond_the_float_range_is_a_typed_error(self):
        # |a_k| = 1e28: the q = 11 threshold is about 1e298, finite, but the
        # determinants of the windows of p >= 1 overflow; the p = 0 window,
        # whose leading entries are zeros, stays just below the float maximum
        f = FormalPowerSeries(overflowing_determinants())
        message = r"determinant of the \(11,11\) cell is not finite"
        for cell in (hankel_determinant, pade_approximant):
            with pytest.warns(RuntimeWarning, match="overflow"):
                with pytest.raises(HankelOverflowError, match=message) as info:
                    cell(f, 11, 11)
            assert (info.value.p, info.value.q, info.value.part) == (11, 11, "determinant")
            assert info.value.scale == float(np.abs(f.coeffs[1:22]).max())
        report = hankel_determinant(f, 0, 11)
        assert math.isfinite(abs(report.value)) and report.threshold < 1e299

    def test_stacked_determinant_overflow_names_the_first_cell(self):
        coeffs = overflowing_determinants()
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(HankelOverflowError, match=r"\(1,11\) cell is not finite") as info:
                hankel_test(coeffs, np.arange(13), 11)
        assert (info.value.p, info.value.q) == (1, 11)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(HankelOverflowError, match=r"\(11,11\) cell is not finite"):
                hankel_test(np.stack([np.ones(30, dtype=complex), coeffs]), 11, 11)

    @pytest.mark.parametrize("coeffs, p, q, scale", [
        # B = [1, -1e160] is finite, a_0 b_1 of the numerator is not
        ([1e160, 1e-160, 1, 0], 1, 1, 1e-160),
        # b_1 = -a_1 / a_0 leaves the float range in the solve itself
        ([1e-200, 1e200], 0, 1, 1e-200),
    ], ids=["numerator", "denominator"])
    def test_approximant_beyond_the_float_range_is_a_typed_error(self, coeffs, p, q, scale):
        # every coefficient is finite and the Hankel test passes: a numeric
        # failure naming the cell, not the ValueError of a malformed input
        f = FormalPowerSeries(coeffs)
        assert hankel_determinant(f, p, q).nonvanishing
        message = rf"\({p},{q}\) cell is not finite"
        with pytest.warns(RuntimeWarning):
            with pytest.raises(HankelOverflowError, match=message) as info:
                pade_approximant(f, p, q)
        assert (info.value.p, info.value.q, info.value.scale) == (p, q, scale)
        assert info.value.part == "approximant"
        assert str(info.value).startswith("Pade approximant of the")

    def test_nan_determinant_is_not_finite(self, monkeypatch):
        # no float window reaches a NaN determinant within the threshold's
        # range, so the determinant is replaced: NaN fails like an overflow
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(np.linalg, "det", lambda a: np.full(np.shape(a)[:-2], nan)[()])
        f = geometric_series()
        with pytest.raises(HankelOverflowError, match=r"\(2,2\) cell is not finite"):
            hankel_determinant(f, 2, 2)
        with pytest.raises(HankelOverflowError, match=r"\(0,2\) cell is not finite"):
            hankel_test(f.coeffs, np.arange(3), 2)


def fancy_index_windows(coeffs, p, q):
    """Oracle: the windows gathered through an explicit (q, q) index array."""
    idx = (p + 1) + np.arange(q)[:, None] + np.arange(q)[None, :]
    zeros = np.zeros(coeffs.shape[:-1] + (q,), dtype=complex)
    return np.concatenate([zeros, coeffs], axis=-1)[..., idx]


class TestHankelWindows:
    # q > p + 1 puts negative coefficient indices, read as zero, in the window
    CELLS = [(0, 1), (3, 1), (5, 4), (1, 5), (0, 7), (2, 9), (9, 3)]

    def test_one_p_matches_fancy_index(self, rng):
        for p, q in self.CELLS:
            row = np.array(random_coefficients(rng, p + q + 1))
            rows = np.array([random_coefficients(rng, p + q + 1) for _ in range(5)])
            for coeffs in (row, rows):
                windows = _hankel_windows(coeffs, p, q)
                assert windows.shape == coeffs.shape[:-1] + (q, q)
                assert np.array_equal(windows, fancy_index_windows(coeffs, p, q))
                assert not windows.flags.writeable

    def test_p_range_matches_fancy_index(self, rng):
        for ps in (np.arange(12), np.arange(2, 11, 3), np.array([4])):
            for q in (1, 3, 6, 11):
                row = np.array(random_coefficients(rng, int(ps[-1]) + q + 1))
                rows = np.array([random_coefficients(rng, int(ps[-1]) + q) for _ in range(4)])
                for coeffs in (row, rows):
                    windows = _hankel_windows(coeffs, ps, q)
                    assert windows.shape == (len(ps),) + coeffs.shape[:-1] + (q, q)
                    for k, p in enumerate(ps):
                        assert np.array_equal(windows[k], fancy_index_windows(coeffs, p, q))

    def test_scales_read_the_first_row_and_last_column(self, rng):
        """The scale of a window is its largest modulus, read from the 2q - 1
        coefficients of its first row and last column, on stacks and on one
        row; p < q - 1 puts leading zeros in the window."""
        ps = np.arange(15)
        for q in (1, 2, 3, 6, 11):
            rows = np.array([random_coefficients(rng, 15 + q) for _ in range(6)])
            rows *= 10.0 ** rng.integers(-20, 20, rows.shape)  # moduli over forty decades
            rows[1, : 2 * q] = 0.0  # windows that are zero but for their last entries
            scales = hankel_test(rows, ps, q)[1]
            expected = np.abs(_hankel_windows(rows, ps, q)).max(axis=(-2, -1))
            assert bits(scales) == bits(expected)
            for k, p in enumerate(ps):
                for r, row in enumerate(rows):
                    scale = _cell_test(row, int(p), q, DEFAULT_TOL)[2]
                    assert bits(scale) == bits(expected[k, r]), (q, p, r)

    def test_bad_p_ranges_raise(self):
        coeffs = np.ones(10, dtype=complex)
        for ps in (np.array([0, 2, 3]), np.array([3, 2]), np.array([], dtype=int)):
            with pytest.raises(ValueError):
                _hankel_windows(coeffs, ps, 2)
        with pytest.raises(IndexError):
            _hankel_windows(coeffs, np.arange(10), 2)
        with pytest.raises(IndexError):
            _hankel_windows(coeffs, 6, 5)


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

    def test_common_zero_found(self):
        # A = (z - 0.5)(z + 1) and B = 1 - 2z share the zero 0.5
        r = RationalFunction(Polynomial([-0.5, 0.5, 1.0]), Polynomial([1.0, -2.0]), 2, 1)
        assert abs(r.common_zero() - 0.5) <= 1e-12

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


def table_families(rng, n=32):
    """One series of each family of the membership-table benchmark."""
    q = QComplex.of
    rational = exact_rational_taylor(
        [q(Fraction(1, 2)), q(0, 1), q(-1), q(Fraction(1, 4), Fraction(1, 2))],
        [q(1), q(Fraction(-1, 2), Fraction(1, 4)), q(Fraction(1, 4))],
        q(Fraction(1, 4), Fraction(-1, 4)),
        n,
    )
    families = {
        "exp": [1.3**k / math.factorial(k) for k in range(n)],
        "log": [1.0 / (k + 1) for k in range(n)],
        "geometric": [(0.8 * cmath.exp(1j)) ** k for k in range(n)],
        "random": random_coefficients(rng, n, bound=1.0),
        "rational": [c.to_complex() for c in rational],
    }
    return {name: FormalPowerSeries(coeffs) for name, coeffs in families.items()}


def bits(x):
    return np.ascontiguousarray(x).view(np.int64).tolist()


def assert_report_is_row(report, row, p, q):
    """``report`` carries, bit for bit, the stacked test's entries of ``row``."""
    values, scales, thresholds, exists = hankel_test(row, p, q)
    assert report.nonvanishing == exists[0], (p, q)
    assert bits(report.value) == bits(values[0]), (p, q)
    assert bits(report.scale) == bits(scales[0]), (p, q)
    assert bits(report.threshold) == bits(thresholds[0]), (p, q)


class TestOnePadeRoute:
    """``pade_approximant`` is the one-row call of the stacked kernels."""

    def test_cells_are_the_stacked_kernels_rows(self, rng):
        refused = 0
        for name, f in table_families(rng).items():
            for p in range(20):
                for q in range(12):
                    row = f.coeffs[None, : p + q + 1]
                    exists = hankel_test(row, p, q)[3][0]
                    try:
                        r = pade_approximant(f, p, q)
                    except PadeNotExistError as exc:
                        assert not exists
                        assert exc.report == hankel_determinant(f, p, q), (name, p, q)
                        assert_report_is_row(exc.report, row, p, q)
                        refused += 1
                        continue
                    assert exists
                    assert_report_is_row(hankel_determinant(f, p, q), row, p, q)
                    b = pade_denominators(row, p, q)
                    assert bits(r.denom.coeffs) == bits(b[0]), (name, p, q)
                    a = poly_mul(row[:, : p + 1], b)[:, : p + 1]
                    assert bits(r.numer.coeffs) == bits(a[0]), (name, p, q)
        assert 0 < refused < 5 * 20 * 12

    def test_errors(self, monkeypatch):
        f = exp_series(8)
        for p, q in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                pade_approximant(f, p, q)
        with pytest.raises(TruncationExceededError):
            pade_approximant(f, 4, 4)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(DegenerateDenominatorError, match=r"at \(p, q\) = \(2, 3\)"):
            pade_approximant(f, 2, 3)

    @pytest.mark.parametrize("q", [0, 1, 6, 11])
    def test_one_cell_is_one_det_and_one_solve(self, monkeypatch, q):
        """Deterministic op counts of one existing cell: one ``det`` and one
        ``solve`` (none at q = 0), no validated ``Polynomial`` construction and
        no stacked or reported Hankel test."""
        f = table_families(np.random.default_rng(29))["random"]
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((np.linalg, "det"), (np.linalg, "solve"), (Polynomial, "__init__"),
                            (pade, "hankel_test"), (pade, "hankel_determinant")):
            counted(owner, name)
        r = pade_approximant(f, 12, q)
        assert (r.p, r.q) == (12, q)
        assert calls == (Counter(det=1, solve=1) if q else Counter())


class TestRationalFunctionJson:
    @pytest.mark.parametrize("value", [1e400, 10**400, 2.7], ids=["1e400", "10**400", "2.7"])
    @pytest.mark.parametrize("field", ["p", "q"])
    def test_degrees_must_be_integers(self, field, value):
        obj = pade_approximant(FormalPowerSeries([1.0, 1.0, 0.5, 1 / 6]), 2, 1).to_json()
        assert RationalFunction.from_json(obj).to_json() == obj
        obj[field] = value
        with pytest.raises(ValueError, match="integer"):
            RationalFunction.from_json(obj)


def loop_quotient_taylor(numer, denom, n):
    """The recurrence of :func:`_quotient_taylor` as one loop that subtracts
    ``B_i b_{k-i}`` while it reads the expansion backwards: the oracle that
    pins every bit of the production recurrence."""
    b0, *b_tail = denom
    taylor = []
    for acc in (numer + [0j] * n)[:n]:
        for b_i, t in zip(b_tail, reversed(taylor)):
            acc -= b_i * t
        taylor.append(acc / b0)
    return taylor


def loop_residual(f, r):
    n = r.p + r.q + 1
    taylor = loop_quotient_taylor(r.numer.coeffs.tolist(), r.denom.coeffs.tolist(), n)
    return max(abs(a - t) for a, t in zip(f.coeffs[:n].tolist(), taylor))


def complex_bits(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


class TestOrderCondition:
    def test_residual_is_the_loop_oracle_on_the_table_families(self, rng):
        cells = 0
        for name, f in table_families(rng).items():
            for p in range(20):
                for q in range(12):
                    try:
                        r = pade_approximant(f, p, q)
                    except PadeNotExistError:
                        continue
                    assert order_condition_residual(f, r).hex() == loop_residual(f, r).hex(), (name, p, q)
                    cells += 1
        assert cells > 4 * 20 * 12 // 2

    def test_quotient_expansion_keeps_exact_and_signed_zeros(self):
        # exact zeros, signed zeros in either part, and a denominator with
        # zero and negative-zero entries: every bit of every coefficient
        zeros = [1.0, -0.0, 0j, complex(-0.0, 0.5), 0.25, complex(0.0, -0.0),
                 complex(-0.0, -0.0), -1.0, 0j, 0.5j, -0.0, 2.0]
        f = FormalPowerSeries(zeros)
        denoms = ([1.0], [1.0, -0.0], [1.0, 0j, complex(-0.0, -0.0)], [1.0, -0.5, 0j, 0.25j])
        for denom in denoms:
            for p in range(len(zeros) - len(denom) + 1):
                numer = zeros[: p + 1]
                n = p + len(denom)
                expected = loop_quotient_taylor([complex(c) for c in numer], [complex(c) for c in denom], n)
                got = _quotient_taylor([complex(c) for c in numer], [complex(c) for c in denom], n)
                assert complex_bits(got) == complex_bits(expected), (denom, p)
                r = RationalFunction(Polynomial(numer), Polynomial(denom), p, len(denom) - 1)
                assert order_condition_residual(f, r).hex() == loop_residual(f, r).hex()
        for p in range(6):
            for q in range(6):
                try:
                    r = pade_approximant(f, p, q)
                except (PadeNotExistError, DegenerateDenominatorError):
                    continue
                assert order_condition_residual(f, r).hex() == loop_residual(f, r).hex(), (p, q)

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

    def test_zero_series_is_decidable_exactly(self):
        # no coefficient rounding to amplify: the floor is 0, not 0 / 0
        f = FormalPowerSeries([0.0] * 4)
        r = pade_approximant(f, 2, 0)
        assert order_condition_residual(f, r) == 0.0
        assert order_condition_decidability(f, r) == 0.0


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
