"""Shared generators for the test suite.

The exact-rational generator produces coprime rational functions with exact
degrees and Gaussian-rational coefficients.  Instances are corner
conditioned: the Hankel determinant at the exact-degree corner must not be
relatively degenerate, which keeps the float-mode membership thresholds
meaningful (the block edges decay super-geometrically away from the corner,
see the order-condition and membership tests).
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from pade_universal.exact import QComplex, exact_poly_eval, exact_rational_taylor
from pade_universal.series import Polynomial

COEFF_POOL = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3, 4)]
CENTER_POOL = [
    QComplex.of(0), QComplex.of(Fraction(1, 2)), QComplex.of(Fraction(-1, 2)),
    QComplex.of(0, Fraction(1, 2)), QComplex.of(0, Fraction(-1, 2)),
    QComplex.of(Fraction(1, 2), Fraction(1, 2)),
    QComplex.of(Fraction(-1, 2), Fraction(1, 4)),
]


def random_coefficients(rng: np.random.Generator, n: int, bound: float = 2.0):
    """Complex coefficients uniform in the closed disk of radius ``bound``."""
    radius = bound * np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    return list(radius * np.exp(1j * angle))


def overflowing_determinants() -> np.ndarray:
    """30 coefficients of modulus 1e28 and seeded phases: every ``(p, 11)``
    Hankel determinant with ``p >= 1`` overflows under a finite threshold."""
    return 1e28 * np.exp(1j * np.random.default_rng(0).uniform(0, 2 * np.pi, 30))


class PerCenter(Polynomial):
    """A polynomial whose degree reads as its stored length less one.

    The measurement decides a ``u`` of degree exactly ``p`` by identity,
    trailing zeros or not.  A builder output padded by one exact zero in
    this class (the same polynomial) still takes the per-center path, so
    the parity tests compare that path with the identity and with the
    center-by-center oracle on the very coefficients a build produced.
    """

    def array_degree(self):
        return len(self.coeffs) - 1


def _array_degree(coeffs: list[QComplex]) -> int:
    deg = -1
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            deg = i
    return deg


def exact_gcd_degree(a: list[QComplex], b: list[QComplex]) -> int:
    """Degree of gcd(a, b) over the Gaussian rationals (Euclid, exact)."""
    first, second = list(a), list(b)
    while True:
        da, db = _array_degree(first), _array_degree(second)
        if db < 0:
            return da
        if da < db:
            first, second = second, first
            continue
        factor = first[da] / second[db]
        for i in range(db + 1):
            first[i + da - db] = first[i + da - db] - factor * second[i]
        first[da] = QComplex.zero()
        if _array_degree(first) < 0:
            return db


def _rand_qc(rng: random.Random, nonzero: bool = False) -> QComplex:
    while True:
        c = QComplex(Fraction(rng.choice(COEFF_POOL)), Fraction(rng.choice(COEFF_POOL)))
        if not nonzero or not c.is_zero():
            return c


def make_exact_rational(rng: random.Random, p0: int, q0: int):
    """Coprime exact-degree rational plus an expansion point.

    Returns ``(numer, denom, zeta, taylor)`` with the Taylor prefix of
    length ``p0 + q0 + 5`` computed exactly at ``zeta``.  Guarantees
    ``denom(0) != 0`` and ``denom(zeta) != 0`` and a non-degenerate corner
    determinant.
    """
    while True:
        numer = [_rand_qc(rng) for _ in range(p0)] + [_rand_qc(rng, nonzero=True)]
        denom = [_rand_qc(rng) for _ in range(q0)] + [_rand_qc(rng, nonzero=True)]
        if denom[0].is_zero():
            continue
        if exact_gcd_degree(numer, denom) != 0:
            continue
        zeta = rng.choice(CENTER_POOL)
        if exact_poly_eval(denom, zeta).is_zero():
            continue
        taylor = exact_rational_taylor(numer, denom, zeta, p0 + q0 + 5)
        if q0 > 0:
            entries = np.array(
                [
                    [
                        (taylor[p0 - q0 + i + j + 1].to_complex() if p0 - q0 + i + j + 1 >= 0 else 0j)
                        for j in range(q0)
                    ]
                    for i in range(q0)
                ]
            )
            scale = float(np.max(np.abs(entries)))
            if scale == 0.0 or abs(np.linalg.det(entries)) < 3e-2 * scale**q0:
                continue
        return numer, denom, zeta, taylor


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
