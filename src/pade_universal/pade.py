"""Existence, construction and differentiation of Pade approximants.

Existence of the ``(p, q)`` approximant of a series at its center is decided
by a ``q x q`` Hankel determinant of Taylor coefficients with entries
``a_{p-q+i+j-1}`` (negative indices read as zero).  Construction goes through
the classical Jacobi determinant formulas for small ``q`` and through the
equivalent Toeplitz linear system for larger ``q``; both deliver the unique
normalized pair ``A/B`` with ``B(center) = 1`` whose Taylor expansion matches
the input through order ``p + q``.

The array kernels (``recentered_coefficients``, ``hankel_test``,
``pade_denominators``, ``poly_mul``, ``differentiate``,
``derivative_numerators``, ``horner``)
work on coefficient arrays with one series per row, so a verifier can treat
many centers in one pass; the scalar entry points are one-row calls of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegreeMismatchError,
    PadeNotExistError,
    PoleProximityError,
    TruncationExceededError,
)
from .series import (
    DEFAULT_TOL,
    FormalPowerSeries,
    Polynomial,
    ToleranceConfig,
    complex_to_pair,
    pair_to_complex,
    taylor_partial_sum,
)

# Above this denominator degree the determinant expansion is replaced by the
# Toeplitz linear solve; both routes agree on the overlap (tested).
JACOBI_MAX_Q = 6


@dataclass(frozen=True)
class HankelReport:
    """Result of one Hankel existence test."""

    value: complex
    p: int
    q: int
    center: complex
    nonvanishing: bool
    threshold: float
    scale: float

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "center": complex_to_pair(self.center),
            "value": complex_to_pair(self.value),
            "nonvanishing": self.nonvanishing,
            "threshold": self.threshold,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class RationalFunction:
    """Normalized rational function ``A/B`` with ``B(center) = 1``.

    ``p`` and ``q`` are the stated degree bounds: ``deg A <= p`` and
    ``deg B <= q``.  Numerator and denominator share the center.
    """

    numer: Polynomial
    denom: Polynomial
    p: int
    q: int

    def __post_init__(self):
        if self.numer.center != self.denom.center:
            raise ValueError("numerator and denominator centers differ")
        if len(self.numer.coeffs) - 1 > self.p:
            raise ValueError("numerator stores coefficients above degree p")
        if len(self.denom.coeffs) - 1 > self.q:
            raise ValueError("denominator stores coefficients above degree q")
        b0 = self.denom.coeffs[0]
        if abs(b0 - 1.0) > 1e-9:
            raise ValueError(f"denominator not normalized: B(center) = {b0}")

    @property
    def center(self) -> complex:
        return self.numer.center

    def eval(self, z, tol: ToleranceConfig = DEFAULT_TOL):
        """Evaluate ``A(z)/B(z)``; raises near the poles."""
        bz = self.denom.eval(z)
        if np.ndim(z) == 0:
            if abs(bz) <= tol.tau_zero:
                raise PoleProximityError(z, abs(bz))
            return self.numer.eval(z) / bz
        bad = np.abs(bz) <= tol.tau_zero
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise PoleProximityError(np.asarray(z).ravel()[idx], float(np.abs(bz).ravel()[idx]))
        return self.numer.eval(z) / bz

    def __call__(self, z, tol: ToleranceConfig = DEFAULT_TOL):
        return self.eval(z, tol)

    def common_zero(self, tol: ToleranceConfig = DEFAULT_TOL):
        """Search for a shared zero by testing A at B's numerical roots.

        Returns the offending root, or ``None`` when numerator and
        denominator are coprime as far as sampling can tell.  Coprimality is
        asserted, never enforced by cancellation.
        """
        deg = self.denom.degree(tol.tau_zero)
        if deg in (0, float("-inf")):
            return None
        monic = np.array(self.denom.coeffs[: int(deg) + 1], dtype=complex)
        roots = np.roots(monic[::-1]) + self.center
        a_scale = max(abs(c) for c in self.numer.coeffs)
        for r in roots:
            if abs(self.numer.eval(r)) <= tol.tau_zero * (1.0 + a_scale):
                return complex(r)
        return None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "center": complex_to_pair(self.center),
            "A": [complex_to_pair(c) for c in self.numer.coeffs],
            "B": [complex_to_pair(c) for c in self.denom.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalFunction":
        center = pair_to_complex(obj["center"])
        return cls(
            Polynomial([pair_to_complex(c) for c in obj["A"]], center),
            Polynomial([pair_to_complex(c) for c in obj["B"]], center),
            int(obj["p"]),
            int(obj["q"]),
        )


def _coeff_or_zero(f: FormalPowerSeries, k: int) -> complex:
    """Hankel convention: ``a_k = 0`` for ``k < 0``; beyond truncation raises."""
    if k < 0:
        return 0j
    return f.coefficient(k)


def _require_truncation(f: FormalPowerSeries, p: int, q: int) -> None:
    needed = p + q + 1
    if len(f) < needed:
        raise TruncationExceededError(needed - 1, len(f))


def _hankel_windows(coeffs: np.ndarray, p: int, q: int) -> np.ndarray:
    """Stacked ``q x q`` windows: entry ``(i, j)`` (0-based) is ``a_{p-q+1+i+j}``.

    ``coeffs`` holds one series per row (last axis); negative indices read
    as zero.  Reversing the columns gives the Toeplitz denominator system.
    """
    idx = (p + 1) + np.arange(q)[:, None] + np.arange(q)[None, :]
    zeros = np.zeros(coeffs.shape[:-1] + (q,), dtype=complex)
    return np.concatenate([zeros, coeffs], axis=-1)[..., idx]


def hankel_test(coeffs: np.ndarray, p: int, q: int, tol: ToleranceConfig = DEFAULT_TOL):
    """Row-wise Hankel existence test of stacked series.

    Returns ``(values, scales, thresholds, nonvanishing)`` arrays with one
    entry per row, each as :func:`hankel_determinant` reports it.  The
    threshold power and the magnitude use the libm routines of Python's
    scalar arithmetic (numpy's vectorized ones round differently), so a row
    matches the scalar test bit for bit.
    """
    rows = coeffs.shape[:-1]
    if q == 0:
        return (
            np.ones(rows, dtype=complex),
            np.ones(rows),
            np.full(rows, tol.tau_det),
            np.ones(rows, dtype=bool),
        )
    windows = _hankel_windows(coeffs, p, q)
    scales = np.max(np.abs(windows), axis=(-2, -1))
    values = np.linalg.det(windows)
    thresholds = np.array([tol.tau_det * s**q for s in scales.ravel().tolist()]).reshape(rows)
    nonvanishing = np.hypot(values.real, values.imag) > thresholds
    return values, scales, thresholds, nonvanishing


def hankel_determinant(
    f: FormalPowerSeries, p: int, q: int, tol: ToleranceConfig = DEFAULT_TOL
) -> HankelReport:
    """Existence test: the Hankel determinant ``D_{p,q}`` of ``f``.

    For ``q = 0`` the determinant is the empty product 1 and the approximant
    exists trivially.  For ``q >= 1`` the matrix entry ``(i, j)`` (1-based)
    is ``a_{p-q+i+j-1}``.  Nonvanishing is judged against the scale-aware
    threshold ``tau_det * scale**q`` with ``scale`` the largest entry
    magnitude, since the determinant is homogeneous of degree ``q`` in the
    window coefficients.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    _require_truncation(f, p, q)
    values, scales, thresholds, nonvanishing = hankel_test(np.array([f.coeffs]), p, q, tol)
    return HankelReport(
        complex(values[0]), p, q, f.center, bool(nonvanishing[0]),
        float(thresholds[0]), float(scales[0]),
    )


def _partial_sum_array(f: FormalPowerSeries, k: int) -> list[complex]:
    """Coefficients of ``S_k``; the empty (zero) polynomial for ``k < 0``."""
    if k < 0:
        return [0j]
    return list(f.coeffs[: k + 1])


def _jacobi_pair(f: FormalPowerSeries, p: int, q: int) -> tuple[list[complex], list[complex]]:
    """Unnormalized (A, B) coefficient arrays from the Jacobi determinants.

    Both determinants are expanded along their first row; the shared lower
    block has rows ``a_{p-q+1+r} .. a_{p+1+r}`` for ``r = 0 .. q-1``.
    """
    block = np.array(
        [
            [_coeff_or_zero(f, p - q + 1 + r + c) for c in range(q + 1)]
            for r in range(q)
        ],
        dtype=complex,
    )
    minors = [
        complex(np.linalg.det(np.delete(block, j, axis=1))) for j in range(q + 1)
    ]
    b = [0j] * (q + 1)
    a = [0j] * (p + 1)
    for j in range(q + 1):
        sign = -1.0 if j % 2 else 1.0
        weight = sign * minors[j]
        shift = q - j
        b[shift] += weight
        for k, c in enumerate(_partial_sum_array(f, p - q + j)):
            if weight != 0 and c != 0:
                a[k + shift] += weight * c
    return a, b


def pade_denominators(coeffs: np.ndarray, p: int, q: int) -> np.ndarray:
    """Row-wise normalized ``(p, q)`` denominators ``b_0 = 1, b_1 .. b_q``.

    Solves ``sum_{i=0..q} b_i a_{p+k-i} = 0`` for ``k = 1..q``, one stacked
    solve for all rows.  The system matrix is the Hankel window up to a
    column flip, so nonvanishing of the determinant guarantees a unique
    solution; a singular system raises :class:`DegenerateDenominatorError`.
    """
    ones = np.ones(coeffs.shape[:-1] + (1,), dtype=complex)
    if q == 0:
        return ones
    system = _hankel_windows(coeffs, p, q)[..., ::-1]
    rhs = -coeffs[..., p + 1 : p + q + 1, None]
    try:
        tail = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateDenominatorError(
            f"denominator system singular at (p, q) = ({p}, {q})"
        ) from exc
    return np.concatenate([ones, tail], axis=-1)


def _toeplitz_pair(f: FormalPowerSeries, p: int, q: int) -> tuple[list[complex], list[complex]]:
    """(A, B) from the linear system for the denominator coefficients.

    The numerator is the product ``B * S_p`` truncated at degree ``p``.
    """
    _require_truncation(f, p, q)
    coeffs = np.array([f.coeffs[: p + q + 1]])
    b = pade_denominators(coeffs, p, q)
    a = poly_mul(coeffs[..., : p + 1], b)[..., : p + 1]
    return [complex(c) for c in a[0]], [complex(c) for c in b[0]]


def pade_approximant(
    f: FormalPowerSeries, p: int, q: int, tol: ToleranceConfig = DEFAULT_TOL
) -> RationalFunction:
    """Construct the unique normalized ``(p, q)`` approximant of ``f``.

    Requires the Hankel test to pass; raises :class:`PadeNotExistError`
    otherwise.  ``q = 0`` returns the partial sum over the constant
    denominator.  Common roots of the returned pair are asserted against,
    not cancelled, so a construction bug cannot hide behind a GCD step.
    """
    report = hankel_determinant(f, p, q, tol)
    if not report.nonvanishing:
        raise PadeNotExistError(report)
    if q == 0:
        return RationalFunction(
            taylor_partial_sum(f, p), Polynomial.one(f.center), p, 0
        )
    if q <= JACOBI_MAX_Q:
        a, b = _jacobi_pair(f, p, q)
    else:
        a, b = _toeplitz_pair(f, p, q)
    b0 = b[0]
    b_scale = max(abs(c) for c in b)
    if abs(b0) <= tol.tau_zero * b_scale or b0 == 0:
        raise DegenerateDenominatorError(
            f"denominator vanishes at the center: B(center) = {b0}"
        )
    a = [c / b0 for c in a]
    b = [c / b0 for c in b]
    return RationalFunction(
        Polynomial(a, f.center), Polynomial(b, f.center), p, q
    )


def order_condition_residual(
    f: FormalPowerSeries, r: RationalFunction, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Largest deviation of ``A/B``'s Taylor prefix from ``f``'s.

    The expansion coefficients of the rational function at its center come
    from the convolution recurrence
    ``b_k = (A_k - sum_{i=1..min(k,q)} B_i b_{k-i}) / B_0``; the residual is
    ``max_{k <= p+q} |a_k - b_k|``.
    """
    p, q = r.p, r.q
    _require_truncation(f, p, q)
    b0 = r.denom.coeffs[0]
    if abs(b0) <= tol.tau_zero:
        raise DegenerateDenominatorError("denominator vanishes at the center")
    numer = list(r.numer.coeffs) + [0j] * (p + q + 1 - len(r.numer.coeffs))
    denom = list(r.denom.coeffs)
    taylor: list[complex] = []
    for k in range(p + q + 1):
        acc = numer[k]
        for i in range(1, min(k, len(denom) - 1) + 1):
            acc -= denom[i] * taylor[k - i]
        taylor.append(acc / b0)
    return max(abs(f.coefficient(k) - taylor[k]) for k in range(p + q + 1))


def order_condition_decidability(
    f: FormalPowerSeries, r: RationalFunction
) -> float:
    """Double-precision floor estimate for the order-condition residual.

    The residual of a stored ``A/B`` pair cannot be driven below roughly
    ``eps * cond(T) * ||B||_1 * amp / scale`` where ``T`` is the window
    system that determined the denominator and ``amp`` is the growth of the
    expansion of ``1/B`` over the matched window: coefficient rounding of
    order ``eps`` is amplified by exactly these factors.  A cell whose floor
    exceeds the acceptance tolerance is not decidable in doubles, no matter
    how the approximant was computed.
    """
    p, q = r.p, r.q
    denom = list(r.denom.coeffs)
    inv = [1.0 + 0j]
    for k in range(1, p + q + 1):
        acc = 0j
        for i in range(1, min(k, len(denom) - 1) + 1):
            acc -= denom[i] * inv[k - i]
        inv.append(acc)
    amp = max(abs(x) for x in inv)
    b_norm = sum(abs(x) for x in denom)
    if q:
        _require_truncation(f, p, q)
        cond = float(np.linalg.cond(_hankel_windows(np.array(f.coeffs), p, q)[:, ::-1]))
    else:
        cond = 1.0
    scale = max(abs(x) for x in f.coeffs)
    return float(np.finfo(float).eps) * cond * b_norm * amp / scale


def recentered_coefficients(
    coeffs: np.ndarray, center: complex, centers: np.ndarray
) -> np.ndarray:
    """Row ``r``: the coefficients of ``Polynomial(coeffs, center)`` about ``centers[r]``.

    The Horner shift of :meth:`Polynomial.recenter` runs in explicit float64
    real and imaginary parts, which round as Python's complex arithmetic
    does (numpy's complex multiply does not), so every row equals the scalar
    shift bit for bit.  Each step of the shift updates one anti-diagonal of
    its ``(j, i)`` schedule, so ``len(coeffs) - 1`` array steps suffice.
    """
    center = complex(center)
    d_re = centers.real - center.real
    d_im = centers.imag - center.imag
    re = np.repeat(coeffs.real[:, None], len(centers), axis=1)
    im = np.repeat(coeffs.imag[:, None], len(centers), axis=1)
    for s in range(len(coeffs) - 2, -1, -1):
        b_re, b_im = re[s + 1 :], im[s + 1 :]
        new_re = re[s:-1] + (d_re * b_re - d_im * b_im)
        new_im = im[s:-1] + (d_re * b_im + d_im * b_re)
        re[s:-1] = new_re
        im[s:-1] = new_im
    out = np.empty((len(centers), len(coeffs)), dtype=complex)
    out.real = re.T
    out.imag = im.T
    return out


def horner(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row ``r`` of ``coeffs`` evaluated at row ``r`` of the offsets ``w``.

    The same operations as :meth:`Polynomial.eval`, so each row matches it
    bit for bit.
    """
    acc = np.zeros_like(w, dtype=complex)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        acc *= w
        acc += coeffs[..., k, None]
    return acc


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of ``a * b`` along the last axis, stacked over the rest."""
    m, n = a.shape[-1], b.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (m + n - 1,)
    out = np.zeros(shape, dtype=complex)
    for i in range(n):
        out[..., i : i + m] += a * b[..., i : i + 1]
    return out


def differentiate(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative along the last axis, as
    :meth:`Polynomial.derivative` forms them (a constant gives ``[0]``)."""
    if c.shape[-1] == 1:
        return np.zeros_like(c)
    return c[..., 1:] * np.arange(1, c.shape[-1])


def _pad(c: np.ndarray, length: int) -> np.ndarray:
    widths = [(0, 0)] * (c.ndim - 1) + [(0, length - c.shape[-1])]
    return np.pad(c, widths)


def derivative_numerators(numer: np.ndarray, denom: np.ndarray, order: int) -> list[np.ndarray]:
    """Numerators ``P_0 .. P_order`` with ``(A/B)^(l) = P_l / B^(l+1)``.

    Uses ``P_{l+1} = P_l' B - (l+1) P_l B'``, stacked over the leading axes
    of the coefficient arrays.
    """
    b_prime = differentiate(denom)
    out = [numer]
    for l in range(order):
        first = poly_mul(differentiate(out[-1]), denom)
        second = poly_mul(out[-1], b_prime)
        n = max(first.shape[-1], second.shape[-1])
        out.append(_pad(first, n) - (l + 1) * _pad(second, n))
    return out


class RationalDerivativeEvaluator:
    """Callable for the ``l``-th derivative of a rational function.

    Holds the pair ``(P_l, B)`` with ``(A/B)^(l) = P_l / B^(l+1)`` from
    :func:`derivative_numerators`.
    """

    def __init__(self, r: RationalFunction, order: int, tol: ToleranceConfig = DEFAULT_TOL):
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order > 10:
            raise ValueError("derivative order limited to 10")
        self.order = order
        self.tol = tol
        self.denom = r.denom
        numer = derivative_numerators(
            np.array(r.numer.coeffs), np.array(r.denom.coeffs), order
        )[-1]
        self.numerator = Polynomial(list(numer), r.center)

    def __call__(self, z):
        bz = self.denom.eval(z)
        if np.ndim(z) == 0:
            if abs(bz) <= self.tol.tau_zero:
                raise PoleProximityError(z, abs(bz))
            return self.numerator.eval(z) / bz ** (self.order + 1)
        bad = np.abs(bz) <= self.tol.tau_zero
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise PoleProximityError(
                np.asarray(z).ravel()[idx], float(np.abs(bz).ravel()[idx])
            )
        return self.numerator.eval(z) / bz ** (self.order + 1)


def rational_derivative(
    r: RationalFunction, order: int, tol: ToleranceConfig = DEFAULT_TOL
) -> RationalDerivativeEvaluator:
    """Evaluator for the ``order``-th derivative of ``r`` (order <= 10)."""
    return RationalDerivativeEvaluator(r, order, tol)


def rational_table_membership(
    r: RationalFunction,
    p: int,
    q: int,
    zeta: complex,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Predicted Hankel-table membership for an exact-degree rational.

    For a coprime rational of exact type ``(p0, q0)`` with ``B(zeta) != 0``
    the table membership of its Taylor expansion is forced on the whole
    edge of its block: True at ``(p0, q0)``, along ``q = q0, p >= p0`` and
    along ``p = p0, q >= q0``; False strictly inside (``p > p0`` and
    ``q > q0``).  The ``q = 0`` row exists trivially.  Cells strictly left
    of or below the block edges are not determined by the degrees alone, so
    the function returns ``None`` there.
    """
    p0 = r.numer.degree(tol.tau_zero)
    q0 = r.denom.degree(tol.tau_zero)
    if p0 != r.p or q0 != r.q:
        raise DegreeMismatchError(
            f"stated degrees ({r.p}, {r.q}) are not exact: found ({p0}, {q0})"
        )
    if abs(r.denom.eval(zeta)) <= tol.tau_zero:
        raise DegreeMismatchError(f"denominator vanishes at zeta = {zeta}")
    if q == 0:
        return True
    if q == q0 and p >= p0:
        return True
    if p == p0 and q >= q0:
        return True
    if p > p0 and q > q0:
        return False
    return None
