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
import numbers
import sys
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
    """Parse ``[re, im]`` (or a bare real) back into a complex number; a
    boolean is not a number here, and a value beyond the float range (an
    integer or a fraction string) is a ``ValueError``, as in :func:`float_from_json`."""
    try:
        if isinstance(pair, (int, float)) and not isinstance(pair, bool):
            return _require_finite(complex(pair), "value")
        if isinstance(pair, str):
            # exact-mode payload: fraction string such as "3/2"
            return complex(float(Fraction(pair)), 0.0)
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            re, im = pair
            if isinstance(re, bool) or isinstance(im, bool):
                raise ValueError(f"expected numbers in [re, im], got {pair!r:.40}")
            if isinstance(re, str) or isinstance(im, str):
                return complex(float(Fraction(re)), float(Fraction(im)))
            return _require_finite(complex(float(re), float(im)), "value")
    except OverflowError:
        raise ValueError(f"value must be finite, got {pair!r:.40}") from None
    raise ValueError(f"expected [re, im], got {pair!r}")


def float_from_json(value) -> float:
    """Parse a number field: a finite number in the float range, not a boolean or a string."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):  # NaN fails the comparison
        raise ValueError(f"expected a finite number, got {value!r:.40}")
    return float(value)


def int_from_json(value) -> int:
    """Parse an integer field: an integer or an integral float, in the int64 range."""
    if type(value) is int and -(2**63) < value < 2**63:  # the common case, without the ABC check
        return value
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole or abs(int(value)) >= 2**63:
        raise ValueError(f"expected an integer in the int64 range, got {value!r:.40}")
    return int(value)


#: Coefficient-negligibility threshold: degree trimming, the pole guards of
#: rational evaluation and the origin check of a prefix extension.
TAU_ZERO = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """The Hankel threshold of the float existence test.

    tau_det
        Base of the Hankel nonvanishing threshold, a finite positive number
        (not a boolean); the applied threshold is ``tau_det * scale**q``
        where ``scale`` is the largest entry magnitude of the Hankel window.
        User-overridable.
    """

    tau_det: float = 1e-10

    def __post_init__(self):
        try:
            positive = float_from_json(self.tau_det) > 0
        except ValueError:
            positive = False
        if not positive:
            raise ValueError(f"tau_det must be a finite positive number, got {self.tau_det!r:.40}")


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

    @classmethod
    def _of_kernel(cls, coeffs: np.ndarray, center: complex) -> "Polynomial":
        """Wrap a 1-D complex128 array a kernel has just computed, made read-only
        in place, not copied; only finiteness is checked (a solve can overflow)."""
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        coeffs.flags.writeable = False
        poly = object.__new__(cls)
        object.__setattr__(poly, "center", center)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    def degree(self, threshold: float = TAU_ZERO):
        """Highest index with ``|c_k| > threshold``; ``NEG_INF`` if none."""
        hits = np.flatnonzero(np.abs(self.coeffs) > threshold)
        return int(hits[-1]) if len(hits) else NEG_INF

    def array_degree(self):
        """Highest index with an exactly nonzero stored coefficient."""
        return self.degree(0.0)

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
        return Polynomial._of_kernel(c, self.center)

    def recenter(self, new_center: complex) -> "Polynomial":
        """Rewrite in the basis ``(z - new_center)^k`` by Horner shift.

        Pointwise values are preserved exactly up to rounding.
        """
        new_center = _require_finite(new_center, "center")
        shifted = recentered_coefficients(self.coeffs, self.center, np.array([new_center]))
        return Polynomial._of_kernel(shifted[0], new_center)

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
        return Polynomial._of_kernel(out, self.center)


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
    When every shift is exactly zero the rows are ``coeffs`` unchanged: such
    a shift could only turn a ``-0.0`` into ``+0.0``.
    """
    center = complex(center)
    d_re = centers.real - center.real
    d_im = centers.imag - center.imag
    if not (d_re.any() or d_im.any()):
        return np.repeat(coeffs[None], len(centers), axis=0)
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
    """Row ``r`` of ``coeffs`` evaluated at row ``r`` of the offsets ``w``; one
    row adds each coefficient as a Python scalar, which rounds as its array does."""
    acc = np.zeros_like(w, dtype=complex)
    if coeffs.ndim == 1:
        for a in coeffs[::-1].tolist():
            acc *= w
            acc += a
        return acc
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        acc *= w
        acc += coeffs[..., k, None]
    return acc


def poly_mul(a: np.ndarray, b: np.ndarray, length: int | None = None) -> np.ndarray:
    """Coefficients of ``a * b`` along the last axis, stacked over the rest; only the
    first ``length`` (at most ``m + n - 1``) if given, each summed in the order of the
    whole product, ``c_k = ((0 + a_k b_0) + a_{k-1} b_1) + ...``: one reduction down a
    zero block whose row ``i + 1`` holds ``a * b_i`` from column ``i``.  The zeros it
    adds change no bit, as a sum begun at ``+0.0`` is never ``-0.0``."""
    m, n = a.shape[-1], b.shape[-1]
    length = m + n - 1 if length is None else length
    terms = a[..., None, :] * b[..., :, None]  # row i: a * b_i
    skew = np.zeros(terms.shape[:-2] + (n + 1, m + n), dtype=complex)
    *lead, row, s = skew.strides
    np.ndarray(terms.shape, complex, skew, row, (*lead, row + s, s))[...] = terms
    return np.add.reduce(skew[..., :length], axis=-2)


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


def disagreement_metric(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Ultrametric ``2^-n0`` where ``n0`` is the first disagreeing index.

    Returns 0.0 when the prefixes agree everywhere.  Agreement is exact
    equality, which is what the ultrametric axioms require.
    """
    _check_same_length(a, b)
    for n, (x, y) in enumerate(zip(a, b)):
        if abs(complex(x) - complex(y)) > 0:
            return 0.5**n
    return 0.0
