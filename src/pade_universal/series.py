"""Truncated complex power series, polynomials and coefficient metrics.

A :class:`FormalPowerSeries` is a finite prefix ``a_0 .. a_M`` of a power
series ``sum a_k (z - center)^k``.  Truncation is explicit and conservative:
asking for a coefficient beyond the stored prefix raises instead of silently
zero-filling, because downstream Hankel determinants would be corrupted by
invented zeros.  A :class:`Polynomial` uses the same monomial basis
``(z - center)^k`` but *is* its coefficient list, so zero-extension is exact
and permitted (see :meth:`Polynomial.to_series`).

The module also provides the two metrics on coefficient sequences used by
the constructive machinery: a weighted summable metric and an ultrametric
driven by the first index of disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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


def _finite_coeffs(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    out = tuple(_require_finite(c, "coefficient") for c in coeffs)
    if not out:
        raise ValueError("coefficient list must be non-empty")
    return out


def complex_to_pair(z: complex) -> list[float]:
    """Serialize one complex number as ``[re, im]``."""
    z = complex(z)
    return [z.real, z.imag]


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


@dataclass(frozen=True)
class FormalPowerSeries:
    """Finite prefix of a complex power series with an explicit center."""

    center: complex
    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex], center: complex = 0.0):
        object.__setattr__(self, "center", _require_finite(center, "center"))
        object.__setattr__(self, "coeffs", _finite_coeffs(coeffs))

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

    def to_json(self) -> dict:
        return {
            "center": complex_to_pair(self.center),
            "coeffs": [complex_to_pair(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FormalPowerSeries":
        return cls(
            [pair_to_complex(c) for c in obj["coeffs"]],
            pair_to_complex(obj["center"]),
        )


@dataclass(frozen=True)
class Polynomial:
    """Dense complex polynomial in the basis ``(z - center)^k``."""

    center: complex
    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex], center: complex = 0.0):
        object.__setattr__(self, "center", _require_finite(center, "center"))
        object.__setattr__(self, "coeffs", _finite_coeffs(coeffs))

    def degree(self, tau_zero: float = DEFAULT_TOL.tau_zero):
        """Highest index with ``|c_k| > tau_zero``; ``NEG_INF`` if none."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if abs(self.coeffs[k]) > tau_zero:
                return k
        return NEG_INF

    def array_degree(self):
        """Highest index with an exactly nonzero stored coefficient."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0:
                return k
        return NEG_INF

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        w = np.asarray(z) - self.center
        acc = np.zeros_like(w, dtype=complex)
        for c in reversed(self.coeffs):
            acc = acc * w + c
        if np.ndim(z) == 0:
            return complex(acc)
        return acc

    def derivative(self, order: int = 1) -> "Polynomial":
        """Formal derivative of the given order."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        c = list(self.coeffs)
        for _ in range(order):
            if len(c) == 1:
                c = [0j]
            else:
                c = [(k + 1) * c[k + 1] for k in range(len(c) - 1)]
        return Polynomial(c, self.center)

    def recenter(self, new_center: complex) -> "Polynomial":
        """Rewrite in the basis ``(z - new_center)^k`` by Horner shift.

        Pointwise values are preserved exactly up to rounding.
        """
        new_center = _require_finite(new_center, "center")
        delta = new_center - self.center
        if delta == 0:
            return Polynomial(self.coeffs, new_center)
        a = list(self.coeffs)
        n = len(a)
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                a[i] = a[i] + delta * a[i + 1]
        return Polynomial(a, new_center)

    def to_series(self, length: int | None = None) -> FormalPowerSeries:
        """View the polynomial as a series prefix.

        A polynomial genuinely has zero coefficients above its degree, so
        extending to a larger ``length`` appends exact zeros.
        """
        c = list(self.coeffs)
        if length is not None:
            if length < len(c):
                raise ValueError("length must not truncate stored coefficients")
            c.extend([0j] * (length - len(c)))
        return FormalPowerSeries(c, self.center)

    def plus_monomial(self, coefficient: complex, power: int) -> "Polynomial":
        """Return ``self + coefficient * (z - center)^power``."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        out = list(self.coeffs) + [0j] * max(0, power + 1 - len(self.coeffs))
        out[power] += coefficient
        return Polynomial(out, self.center)

    def to_json(self) -> dict:
        return {
            "center": complex_to_pair(self.center),
            "coeffs": [complex_to_pair(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Polynomial":
        return cls(
            [pair_to_complex(c) for c in obj["coeffs"]],
            pair_to_complex(obj["center"]),
        )


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
