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
verifier can treat many centers in one pass; the scalar entry points are
one-row calls of them.
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
    coeffs_from_json,
    coeffs_to_json,
    complex_to_pair,
    differentiate,
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


def _off_poles(denom: Polynomial, z, tau_zero: float):
    """``denom(z)``; raises :class:`PoleProximityError` where ``|denom(z)| <= tau_zero``."""
    bz = denom.eval(z)
    if np.ndim(z) == 0:
        if abs(bz) <= tau_zero:
            raise PoleProximityError(z, abs(bz))
        return bz
    bad = np.abs(bz) <= tau_zero
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PoleProximityError(np.asarray(z).ravel()[idx], float(np.abs(bz).ravel()[idx]))
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

    def eval(self, z, tol: ToleranceConfig = DEFAULT_TOL):
        """Evaluate ``A(z)/B(z)``; raises near the poles."""
        return self.numer.eval(z) / _off_poles(self.denom, z, tol.tau_zero)

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
        roots = np.roots(self.denom.coeffs[deg::-1]) + self.center
        a_scale = float(np.max(np.abs(self.numer.coeffs)))
        for r in roots:
            if abs(self.numer.eval(r)) <= tol.tau_zero * (1.0 + a_scale):
                return complex(r)
        return None

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
            int(obj["p"]),
            int(obj["q"]),
        )


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
    values, scales, thresholds, nonvanishing = hankel_test(f.coeffs[None], p, q, tol)
    return HankelReport(
        complex(values[0]), p, q, f.center, bool(nonvanishing[0]),
        float(thresholds[0]), float(scales[0]),
    )


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


def pade_approximant(
    f: FormalPowerSeries, p: int, q: int, tol: ToleranceConfig = DEFAULT_TOL
) -> RationalFunction:
    """Construct the unique normalized ``(p, q)`` approximant of ``f``.

    Requires the Hankel test to pass; raises :class:`PadeNotExistError`
    otherwise, and :class:`DegenerateDenominatorError` when the denominator
    system is singular.  The denominator comes from :func:`pade_denominators`
    and the numerator is ``B * S_p`` truncated at degree ``p``, so ``q = 0``
    gives the partial sum over the constant denominator.  Common roots of
    the returned pair are asserted against, not cancelled, so a construction
    bug cannot hide behind a GCD step.
    """
    report = hankel_determinant(f, p, q, tol)
    if not report.nonvanishing:
        raise PadeNotExistError(report)
    coeffs = f.coeffs[: p + q + 1]
    b = pade_denominators(coeffs, p, q)
    a = poly_mul(coeffs[: p + 1], b)[: p + 1]
    return RationalFunction(Polynomial(a, f.center), Polynomial(b, f.center), p, q)


def order_condition_residual(f: FormalPowerSeries, r: RationalFunction) -> float:
    """Largest deviation of ``A/B``'s Taylor prefix from ``f``'s.

    The expansion coefficients of the rational function at its center come
    from the convolution recurrence
    ``b_k = (A_k - sum_{i=1..min(k,q)} B_i b_{k-i}) / B_0``; the residual is
    ``max_{k <= p+q} |a_k - b_k|``.
    """
    p, q = r.p, r.q
    _require_truncation(f, p, q)
    numer = r.numer.coeffs.tolist() + [0j] * (p + q + 1 - len(r.numer.coeffs))
    denom = r.denom.coeffs.tolist()
    taylor: list[complex] = []
    for k in range(p + q + 1):
        acc = numer[k]
        for i in range(1, min(k, len(denom) - 1) + 1):
            acc -= denom[i] * taylor[k - i]
        taylor.append(acc / denom[0])
    return max(abs(a - b) for a, b in zip(f.coeffs[: p + q + 1].tolist(), taylor))


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
    denom = r.denom.coeffs.tolist()
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
        cond = float(np.linalg.cond(_hankel_windows(f.coeffs, p, q)[:, ::-1]))
    else:
        cond = 1.0
    scale = float(np.max(np.abs(f.coeffs)))
    return float(np.finfo(float).eps) * cond * b_norm * amp / scale


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
        numer = derivative_numerators(r.numer.coeffs, r.denom.coeffs, order)[-1]
        self.numerator = Polynomial(numer, r.center)

    def __call__(self, z):
        bz = _off_poles(self.denom, z, self.tol.tau_zero)
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
