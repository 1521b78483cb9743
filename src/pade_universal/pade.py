"""Existence, construction and differentiation of Pade approximants.

Existence of the ``(p, q)`` approximant of a series at its center is decided
by a ``q x q`` Hankel determinant of Taylor coefficients with entries
``a_{p-q+i+j-1}`` (negative indices read as zero).  Construction solves the
Toeplitz linear system for the denominator and multiplies it into the
partial sum ``S_p``, for every ``q``; this delivers the unique normalized pair
``A/B`` with ``B(center) = 1`` whose Taylor expansion matches the input
through order ``p + q``.

The array kernels here (``hankel_test``, ``pade_denominators``,
``derivative_numerators``), like the polynomial kernels of :mod:`.series`
they build on, work on coefficient arrays with one series per row, so a
verifier can treat many centers in one pass.  ``hankel_test`` also takes a
range of ``p`` for one ``q``, so a membership table tests a whole q-column
of one series at once.  ``hankel_determinant`` and ``pade_approximant``
test one window with the operations of a stacked row, so a cell is bitwise
that row; a ``pade_approximant`` cell is one ``det`` and one ``solve`` on that
window, a numerator up to degree ``p`` and two finiteness checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegreeMismatchError,
    HankelOverflowError,
    PadeNotExistError,
    PoleProximityError,
    TruncationExceededError,
)
from .series import (
    DEFAULT_TOL,
    TAU_ZERO,
    FormalPowerSeries,
    Polynomial,
    ToleranceConfig,
    coeffs_from_json,
    coeffs_to_json,
    complex_to_pair,
    differentiate,
    int_from_json,
    pair_to_complex,
    poly_mul,
)


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


def _off_poles(bz, z, scale: float = 1.0):
    """Denominator values ``bz`` at ``z`` (broadcast against them), checked: raises
    :class:`PoleProximityError` at the first entry in row-major order with
    ``|bz| <= TAU_ZERO * scale``."""
    bad = np.abs(bz) <= TAU_ZERO * scale
    if np.any(bad):
        idx = int(np.argmax(bad))
        point = np.broadcast_to(z, np.shape(bz)).ravel()[idx]
        raise PoleProximityError(point, float(np.abs(bz).ravel()[idx]))
    return bz


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

    def eval(self, z):
        """Evaluate ``A(z)/B(z)``; raises near the poles."""
        return self.numer.eval(z) / _off_poles(self.denom.eval(z), z)

    def common_zero(self):
        """Search for a shared zero by testing A at B's numerical roots.

        Returns the offending root, or ``None`` when numerator and
        denominator are coprime as far as sampling can tell.  The tests
        assert coprimality through it; nothing enforces it by cancellation.
        """
        deg = self.denom.degree()
        if deg in (0, float("-inf")):
            return None
        roots = np.roots(self.denom.coeffs[deg::-1]) + self.center
        a_scale = float(np.max(np.abs(self.numer.coeffs)))
        shared = np.flatnonzero(np.abs(self.numer.eval(roots)) <= TAU_ZERO * (1.0 + a_scale))
        return complex(roots[shared[0]]) if len(shared) else None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "center": complex_to_pair(self.center),
            "A": coeffs_to_json(self.numer.coeffs),
            "B": coeffs_to_json(self.denom.coeffs),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RationalFunction":
        center = pair_to_complex(obj["center"])
        return cls(
            Polynomial(coeffs_from_json(obj["A"]), center),
            Polynomial(coeffs_from_json(obj["B"]), center),
            int_from_json(obj["p"]),
            int_from_json(obj["q"]),
        )


def _require_truncation(f: FormalPowerSeries, p: int, q: int) -> None:
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    needed = p + q + 1
    if len(f) < needed:
        raise TruncationExceededError(needed - 1, len(f))


def _hankel_windows(coeffs: np.ndarray, p, q: int) -> np.ndarray:
    """Stacked ``q x q`` windows: entry ``(i, j)`` (0-based) is ``a_{p-q+1+i+j}``.

    ``coeffs`` holds one series per row (last axis); negative indices read
    as zero.  ``p`` is an int, or a 1-D array of evenly spaced increasing
    ``p`` that puts a leading p-axis in front of the rows.  The windows are
    a read-only strided view of the rows, zero-padded in front only when a
    window reaches a negative index, not a copy.
    Reversing the columns gives the Toeplitz denominator system.
    """
    ranged = not isinstance(p, (int, np.integer))
    if ranged:
        ps = np.asarray(p)
        steps = np.diff(ps)
        step = int(steps[0]) if len(steps) else 1
        if not len(ps) or step < 1 or np.any(steps != step):
            raise ValueError("a range of p must be non-empty, evenly spaced and increasing")
        first, last = int(ps[0]), int(ps[-1])
    else:
        first = last = int(p)
    if first < 0 or last + q > coeffs.shape[-1]:
        raise IndexError(f"(p, q) = ({last}, {q}) windows need {last + q} coefficients")
    lead = max(0, q - 1 - first)  # the zeros read at negative indices
    if lead or not (coeffs.flags.c_contiguous and coeffs.dtype == complex):
        coeffs = np.concatenate([np.zeros(coeffs.shape[:-1] + (lead,), complex), coeffs], axis=-1)
    *row_strides, s = coeffs.strides
    shape, strides = coeffs.shape[:-1] + (q, q), (*row_strides, s, s)
    if ranged:
        shape, strides = (len(ps),) + shape, (step * s,) + strides
    windows = np.ndarray(shape, complex, coeffs, (first + 1 - q + lead) * s, strides)
    windows.flags.writeable = False
    return windows


def hankel_test(coeffs: np.ndarray, p, q: int, tol: ToleranceConfig = DEFAULT_TOL):
    """Row-wise Hankel existence test of stacked series.

    Returns ``(values, scales, thresholds, nonvanishing)`` arrays with one
    entry per row, each as :func:`hankel_determinant` reports it.  ``p`` may
    be a range as in :func:`_hankel_windows`, which adds a leading p-axis to
    every output; each window's determinant is the one a single-``p`` call
    gives.  A window's first row and last column hold all of its ``2q - 1``
    coefficients, so its scale reads those.  The threshold power and the
    magnitude use the libm routines of Python's scalar arithmetic (numpy's
    vectorized ones round differently), so a row matches the scalar test
    bit for bit.  A threshold or a determinant beyond the float range raises
    :class:`HankelOverflowError` naming its cell: the largest scale of an
    overflowing threshold, else the first non-finite determinant.
    """
    rows = np.shape(p) + coeffs.shape[:-1]
    if q == 0:
        return (
            np.ones(rows, dtype=complex),
            np.ones(rows),
            np.full(rows, tol.tau_det),
            np.ones(rows, dtype=bool),
        )
    windows = _hankel_windows(coeffs, p, q)
    scales = np.maximum(np.abs(windows[..., 0, :]).max(-1), np.abs(windows[..., :, -1]).max(-1))
    values = np.linalg.det(windows)
    try:
        thresholds = [tol.tau_det * s**q for s in scales.ravel().tolist()]
    except OverflowError:
        thresholds = [math.inf]
    if max(thresholds) == math.inf:  # the power or the product: name the largest scale's cell
        cell_p = int(p[np.unravel_index(np.argmax(scales), scales.shape)[0]]) if np.ndim(p) else p
        raise HankelOverflowError(cell_p, q, float(scales.max()))
    thresholds = np.array(thresholds).reshape(scales.shape)
    magnitudes = np.hypot(values.real, values.imag)
    finite = np.isfinite(magnitudes)
    if not finite.all():  # a determinant beyond the float range: name its first cell
        cell = np.unravel_index(np.argmin(finite), finite.shape)
        cell_p = int(p[cell[0]]) if np.ndim(p) else p
        raise HankelOverflowError(cell_p, q, float(scales[cell]), part="determinant")
    return values, scales, thresholds, magnitudes > thresholds


def _cell_test(coeffs: np.ndarray, p: int, q: int, tol: ToleranceConfig):
    """``(window, value, scale, threshold, nonvanishing)`` of one row at one
    ``(p, q)``, ``q >= 1``, the last four bitwise :func:`hankel_test`'s; the scale
    reads the window's first row and last column, and ``abs`` of numpy's complex
    scalar is ``np.hypot``'s libm ``hypot`` (a Python complex's raises on overflow)."""
    window = _hankel_windows(coeffs, p, q)
    scale = float(np.abs(coeffs[max(0, p - q + 1) : p + q]).max())
    value = np.linalg.det(window)
    try:
        threshold = tol.tau_det * scale**q
    except OverflowError:
        threshold = math.inf
    if threshold == math.inf:  # the power or the product
        raise HankelOverflowError(p, q, scale)
    magnitude = abs(value)
    if not magnitude < math.inf:  # NaN fails the comparison too
        raise HankelOverflowError(p, q, scale, part="determinant")
    return window, complex(value), scale, threshold, bool(magnitude > threshold)


def hankel_determinant(
    f: FormalPowerSeries, p: int, q: int, tol: ToleranceConfig = DEFAULT_TOL
) -> HankelReport:
    """Existence test: the Hankel determinant ``D_{p,q}`` of ``f``.

    For ``q = 0`` the determinant is the empty product 1 and the approximant
    exists trivially.  For ``q >= 1`` the matrix entry ``(i, j)`` (1-based)
    is ``a_{p-q+i+j-1}``.  Nonvanishing is judged against the scale-aware
    threshold ``tau_det * scale**q`` with ``scale`` the largest entry
    magnitude, since the determinant is homogeneous of degree ``q`` in the
    window coefficients.  A threshold or a determinant beyond the float range
    raises :class:`HankelOverflowError`.
    """
    _require_truncation(f, p, q)
    if q == 0:
        return HankelReport(1 + 0j, p, q, f.center, True, float(tol.tau_det), 1.0)
    _, value, scale, threshold, exists = _cell_test(f.coeffs, p, q, tol)
    return HankelReport(value, p, q, f.center, exists, threshold, scale)


def _singular(p: int, q: int) -> DegenerateDenominatorError:
    return DegenerateDenominatorError(f"denominator system singular at (p, q) = ({p}, {q})")


def pade_denominators(coeffs: np.ndarray, p: int, q: int) -> np.ndarray:
    """Row-wise normalized ``(p, q)`` denominators ``b_0 = 1, b_1 .. b_q``.

    Solves ``sum_{i=0..q} b_i a_{p+k-i} = 0`` for ``k = 1..q``, one stacked
    solve for all rows.  The system matrix is the Hankel window up to a
    column flip, so nonvanishing of the determinant guarantees a unique
    solution; a singular system raises :class:`DegenerateDenominatorError`.
    """
    b = np.empty(coeffs.shape[:-1] + (q + 1,), dtype=complex)
    b[..., 0] = 1
    if q:
        windows = _hankel_windows(coeffs, p, q)
        rhs = -coeffs[..., p + 1 : p + q + 1, None]
        try:
            b[..., 1:] = np.linalg.solve(windows[..., ::-1], rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise _singular(p, q) from exc
    return b


def pade_approximant(
    f: FormalPowerSeries, p: int, q: int, tol: ToleranceConfig = DEFAULT_TOL
) -> RationalFunction:
    """Construct the unique normalized ``(p, q)`` approximant of ``f``.

    Requires the Hankel test to pass; raises :class:`PadeNotExistError`
    otherwise, with :func:`hankel_determinant`'s report, and
    :class:`DegenerateDenominatorError` when the denominator system is
    singular.  One window serves the test and the solve of
    :func:`pade_denominators`' system; the numerator is ``B * S_p`` up to
    degree ``p``, so ``q = 0`` gives the partial sum over the constant
    denominator.  Common roots are not cancelled, so a construction bug cannot
    hide behind a GCD step; only the tests check coprimality (``common_zero``).
    A numerator or denominator coefficient beyond the float range raises
    :class:`HankelOverflowError` naming the cell.
    """
    _require_truncation(f, p, q)
    coeffs = f.coeffs[: p + q + 1]
    b = np.empty(q + 1, dtype=complex)
    b[0] = 1
    if q:
        window, det, scale, tau, exists = _cell_test(coeffs, p, q, tol)
        if not exists:
            raise PadeNotExistError(HankelReport(det, p, q, f.center, False, tau, scale))
        try:
            b[1:] = np.linalg.solve(window[:, ::-1], -coeffs[p + 1 :])
        except np.linalg.LinAlgError as exc:
            raise _singular(p, q) from exc
    a = poly_mul(coeffs[: p + 1], b, p + 1)
    try:
        numerator = Polynomial._of_kernel(a, f.center)
        denominator = Polynomial._of_kernel(b, f.center)
    except ValueError:  # the solve or B * S_p overflowed, so q >= 1 and scale is set
        raise HankelOverflowError(p, q, scale, part="approximant") from None
    r = object.__new__(RationalFunction)  # what __post_init__ checks holds by construction
    vars(r).update(numer=numerator, denom=denominator, p=p, q=q)
    return r


def _quotient_taylor(numer: list[complex], denom: list[complex], n: int) -> list[complex]:
    """The first ``n`` Taylor coefficients of ``A/B`` at its center, by the
    convolution recurrence ``b_k = (A_k - sum_{i=1..min(k,q)} B_i b_{k-i}) / B_0``."""
    b0, *b_tail = denom
    recent: list[complex] = []  # b_{k-1}, b_{k-2}, ..., b_0
    for acc in (numer + [0j] * n)[:n]:
        for b_i, t in zip(b_tail, recent):  # B_i b_{k-i}, i = 1, 2, ...
            acc -= b_i * t
        recent.insert(0, acc / b0)
    return recent[::-1]


def order_condition_residual(f: FormalPowerSeries, r: RationalFunction) -> float:
    """Largest deviation of ``A/B``'s Taylor prefix from ``f``'s:
    ``max_{k <= p+q} |a_k - b_k|``, with ``b_k`` from :func:`_quotient_taylor`."""
    p, q = r.p, r.q
    _require_truncation(f, p, q)
    taylor = _quotient_taylor(r.numer.coeffs.tolist(), r.denom.coeffs.tolist(), p + q + 1)
    return max(map(abs, map(operator.sub, f.coeffs[: p + q + 1].tolist(), taylor)))


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
    how the approximant was computed.  A series of exact zeros has no
    coefficient rounding to amplify, and its floor is 0.
    """
    scale = float(np.max(np.abs(f.coeffs)))
    if scale == 0:
        return 0.0
    p, q = r.p, r.q
    denom = r.denom.coeffs.tolist()
    amp = max(abs(x) for x in _quotient_taylor([1.0 + 0j], denom, p + q + 1))
    b_norm = sum(abs(x) for x in denom)
    if q:
        _require_truncation(f, p, q)
        cond = float(np.linalg.cond(_hankel_windows(f.coeffs, p, q)[:, ::-1]))
    else:
        cond = 1.0
    return float(np.finfo(float).eps) * cond * b_norm * amp / scale


def _pad(c: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros(c.shape[:-1] + (length,), dtype=c.dtype)
    out[..., : c.shape[-1]] = c
    return out


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

    def __init__(self, r: RationalFunction, order: int):
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order > 10:
            raise ValueError("derivative order limited to 10")
        self.order = order
        self.denom = r.denom
        numer = derivative_numerators(r.numer.coeffs, r.denom.coeffs, order)[-1]
        self.numerator = Polynomial._of_kernel(numer, r.center)

    def __call__(self, z):
        bz = _off_poles(self.denom.eval(z), z)
        return self.numerator.eval(z) / bz ** (self.order + 1)


def rational_derivative(r: RationalFunction, order: int) -> RationalDerivativeEvaluator:
    """Evaluator for the ``order``-th derivative of ``r`` (order <= 10)."""
    return RationalDerivativeEvaluator(r, order)


def rational_table_membership(r: RationalFunction, p: int, q: int, zeta: complex):
    """Predicted Hankel-table membership for an exact-degree rational.

    For a coprime rational of exact type ``(p0, q0)`` with ``B(zeta) != 0``
    the table membership of its Taylor expansion is forced on the whole
    edge of its block: True at ``(p0, q0)``, along ``q = q0, p >= p0`` and
    along ``p = p0, q >= q0``; False strictly inside (``p > p0`` and
    ``q > q0``).  The ``q = 0`` row exists trivially.  Cells strictly left
    of or below the block edges are not determined by the degrees alone, so
    the function returns ``None`` there.
    """
    p0 = r.numer.degree()
    q0 = r.denom.degree()
    if p0 != r.p or q0 != r.q:
        raise DegreeMismatchError(
            f"stated degrees ({r.p}, {r.q}) are not exact: found ({p0}, {q0})"
        )
    if abs(r.denom.eval(zeta)) <= TAU_ZERO:
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
