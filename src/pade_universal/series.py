"""Truncated complex power series, polynomials and coefficient metrics.

A :class:`FormalPowerSeries` is a finite prefix ``a_0 .. a_M`` of a power
series ``sum a_k (z - center)^k``.  Truncation is explicit and conservative:
asking for a coefficient beyond the stored prefix raises instead of silently
zero-filling, because downstream Hankel determinants would be corrupted by
invented zeros.  A :class:`Polynomial` uses the same monomial basis
``(z - center)^k`` but *is* its coefficient list, so zero-extension is exact
and permitted (see :meth:`Polynomial.to_series`).

Both store their coefficients as one read-only 1-D complex128 array, checked
on construction.  The array kernels (``horner``, ``differentiate``,
``poly_mul``, ``recentered_coefficients``) work on one coefficient row or a
stack of them; the :class:`Polynomial` methods are one-row calls of them.

The module also provides the two metrics on coefficient sequences used by
the constructive machinery: a weighted summable metric and an ultrametric
driven by the first index of disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, TruncationExceededError

#: Degree of the zero polynomial.  An explicit sentinel: comparisons like
#: ``p > P.degree()`` behave correctly without -1 arithmetic.
NEG_INF = float("-inf")


def _require_finite(value, name: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


def _coeff_array(coeffs) -> np.ndarray:
    """A read-only complex128 copy of a non-empty, finite 1-D coefficient list."""
    out = np.array(coeffs, dtype=complex)
    if out.ndim != 1 or not len(out):
        raise ValueError("coefficients must be a non-empty 1-D sequence")
    if not np.isfinite(out).all():
        raise ValueError("coefficients must be finite")
    out.flags.writeable = False
    return out


def complex_to_pair(z: complex) -> list[float]:
    """Serialize one complex number as ``[re, im]``."""
    z = complex(z)
    return [z.real, z.imag]


def coeffs_to_json(coeffs) -> list[list[float]]:
    """Serialize a coefficient array as ``[[re, im], ...]``."""
    return np.stack([coeffs.real, coeffs.imag], axis=-1).tolist()


def coeffs_from_json(pairs) -> list[complex]:
    """Parse a list of ``[re, im]`` pairs (see :func:`pair_to_complex`)."""
    return [pair_to_complex(c) for c in pairs]


def pair_to_complex(pair) -> complex:
    """Parse ``[re, im]`` (or a bare real) back into a complex number."""
    if isinstance(pair, (int, float)):
        return _require_finite(complex(pair), "value")
    if isinstance(pair, str):
        # exact-mode payload: fraction string such as "3/2"
        return _require_finite(complex(float(Fraction(pair)), 0.0), "value")
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        re, im = pair
        if isinstance(re, str) or isinstance(im, str):
            return _require_finite(
                complex(float(Fraction(re)), float(Fraction(im))), "value"
            )
        return _require_finite(complex(float(re), float(im)), "value")
    raise ValueError(f"expected [re, im], got {pair!r}")


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric thresholds shared across the package.

    tau_zero
        Coefficient-negligibility threshold (degree trimming, pole guards).
    tau_det
        Base of the Hankel nonvanishing threshold; the applied threshold is
        ``tau_det * scale**q`` where ``scale`` is the largest entry magnitude
        of the Hankel window.  User-overridable.
    """

    tau_zero: float = 1e-12
    tau_det: float = 1e-10

    def __post_init__(self):
        if not (self.tau_zero > 0 and self.tau_det > 0):
            raise ValueError("all tolerances must be strictly positive")
        if self.tau_zero > self.tau_det:
            raise ValueError("tau_zero must not exceed tau_det")


DEFAULT_TOL = ToleranceConfig()


class _CoefficientRow:
    """Value equality and the JSON form, shared by the two coefficient containers."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.center == other.center and np.array_equal(self.coeffs, other.coeffs)

    def to_json(self) -> dict:
        return {"center": complex_to_pair(self.center), "coeffs": coeffs_to_json(self.coeffs)}

    @classmethod
    def from_json(cls, obj: dict):
        return cls(coeffs_from_json(obj["coeffs"]), pair_to_complex(obj["center"]))


@dataclass(frozen=True, eq=False)
class FormalPowerSeries(_CoefficientRow):
    """Finite prefix of a complex power series with an explicit center."""

    center: complex
    coeffs: np.ndarray

    def __init__(self, coeffs, center: complex = 0.0):
        object.__setattr__(self, "center", _require_finite(center, "center"))
        object.__setattr__(self, "coeffs", _coeff_array(coeffs))

    @property
    def truncation(self) -> int:
        """Number of stored coefficients (``M + 1``)."""
        return len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> complex:
        """Return ``a_k``; raises beyond the truncation, never zero-fills."""
        if k < 0:
            raise IndexError(f"negative coefficient index {k}")
        if k >= len(self.coeffs):
            raise TruncationExceededError(k, len(self.coeffs))
        return self.coeffs[k]


@dataclass(frozen=True, eq=False)
class Polynomial(_CoefficientRow):
    """Dense complex polynomial in the basis ``(z - center)^k``."""

    center: complex
    coeffs: np.ndarray

    def __init__(self, coeffs, center: complex = 0.0):
        object.__setattr__(self, "center", _require_finite(center, "center"))
        object.__setattr__(self, "coeffs", _coeff_array(coeffs))

    def degree(self, tau_zero: float = DEFAULT_TOL.tau_zero):
        """Highest index with ``|c_k| > tau_zero``; ``NEG_INF`` if none."""
        hits = np.flatnonzero(np.abs(self.coeffs) > tau_zero)
        return int(hits[-1]) if len(hits) else NEG_INF

    def array_degree(self):
        """Highest index with an exactly nonzero stored coefficient."""
        return self.degree(0.0)

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        values = horner(self.coeffs, np.atleast_1d(np.asarray(z) - self.center))
        if np.ndim(z) == 0:
            return complex(values[0])
        return values

    def derivative(self, order: int = 1) -> "Polynomial":
        """Formal derivative of the given order."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        c = self.coeffs
        for _ in range(order):
            c = differentiate(c)
        return Polynomial(c, self.center)

    def recenter(self, new_center: complex) -> "Polynomial":
        """Rewrite in the basis ``(z - new_center)^k`` by Horner shift.

        Pointwise values are preserved exactly up to rounding.
        """
        new_center = _require_finite(new_center, "center")
        shifted = recentered_coefficients(self.coeffs, self.center, np.array([new_center]))
        return Polynomial(shifted[0], new_center)

    def to_series(self, length: int | None = None) -> FormalPowerSeries:
        """View the polynomial as a series prefix.

        A polynomial genuinely has zero coefficients above its degree, so
        extending to a larger ``length`` appends exact zeros.
        """
        c = self.coeffs
        if length is not None:
            if length < len(c):
                raise ValueError("length must not truncate stored coefficients")
            c = np.concatenate([c, np.zeros(length - len(c), dtype=complex)])
        return FormalPowerSeries(c, self.center)

    def plus_monomial(self, coefficient: complex, power: int) -> "Polynomial":
        """Return ``self + coefficient * (z - center)^power``."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        out = np.zeros(max(len(self.coeffs), power + 1), dtype=complex)
        out[: len(self.coeffs)] = self.coeffs
        out[power] += coefficient
        return Polynomial(out, self.center)


def taylor_partial_sum(f: FormalPowerSeries, n: int) -> Polynomial:
    """Degree-``n`` partial sum ``sum_{k<=n} a_k (z - center)^k``.

    Raises :class:`TruncationExceededError` when the series does not store
    enough coefficients; the missing ones are unknown, not zero.
    """
    if n < 0:
        raise ValueError("partial-sum order must be nonnegative")
    if n >= len(f.coeffs):
        raise TruncationExceededError(n, len(f.coeffs))
    return Polynomial(f.coeffs[: n + 1], f.center)


def recentered_coefficients(
    coeffs: np.ndarray, center: complex, centers: np.ndarray
) -> np.ndarray:
    """Row ``r``: the coefficients of ``Polynomial(coeffs, center)`` about ``centers[r]``.

    The Horner shift runs in explicit float64 real and imaginary parts,
    which round as Python's complex arithmetic does (numpy's complex
    multiply does not), so a row does not depend on how many centers are
    shifted with it.  Each step of the shift updates one anti-diagonal of
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
    """Row ``r`` of ``coeffs`` evaluated at row ``r`` of the offsets ``w``."""
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
    """Coefficients of the derivative along the last axis (a constant gives ``[0]``)."""
    if c.shape[-1] == 1:
        return np.zeros_like(c)
    return c[..., 1:] * np.arange(1, c.shape[-1])


def _check_same_length(a: Sequence[complex], b: Sequence[complex]) -> None:
    if len(a) != len(b):
        raise LengthMismatchError(
            f"coefficient lists have lengths {len(a)} and {len(b)}; pad the "
            f"shorter one with explicit zeros before comparing"
        )


def coefficient_metric(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Weighted summable metric ``sum 2^-n |a_n-b_n| / (1 + |a_n-b_n|)``.

    Both prefixes must have the same length; padding is the caller's job.
    """
    _check_same_length(a, b)
    total = 0.0
    for n, (x, y) in enumerate(zip(a, b)):
        d = abs(complex(x) - complex(y))
        total += (0.5**n) * d / (1.0 + d)
    return total


def disagreement_metric(
    a: Sequence[complex], b: Sequence[complex], tol: float = 0.0
) -> float:
    """Ultrametric ``2^-n0`` where ``n0`` is the first disagreeing index.

    Returns 0.0 when the prefixes agree everywhere.  ``tol`` widens the
    notion of agreement to ``|a_n - b_n| <= tol``; the default compares
    exactly, which is what the ultrametric axioms require.
    """
    _check_same_length(a, b)
    for n, (x, y) in enumerate(zip(a, b)):
        if abs(complex(x) - complex(y)) > tol:
            return 0.5**n
    return 0.0
