"""Constructive approximation: gluing, fitting, perturbing, certifying.

The central manoeuvre: glue the requested targets into one function on a
union of disjoint compacts, fit a single polynomial ``P`` to the glue by
orthogonalized least squares (the desk-scale surrogate for classical
polynomial-density theorems), pick an index pair ``(p, q)`` with ``p``
beyond the fit degree, and perturb to ``u = P + d z^p`` with ``d != 0``
small.  Because ``u`` then has degree exactly ``p``, its ``(p, q)``
approximant exists at every center and reproduces ``u`` identically, which
is what makes one polynomial satisfy all the sup bounds simultaneously.
The measurement decides such a ``u`` by that identity; every other claimed
bound is measured on grids; each is recorded in a :class:`Certificate`.

Every build prepares its measurement, takes one fit and makes one trial.
Both builders fit through ``_fit_ramp`` on the points their certificates
measure, never on the centers: one Arnoldi ladder, allocated once,
orthonormal in the fit's weighted inner product, so each degree's
least-squares fit is one projection onto its columns; each builder chooses
its degrees, weight and residual, and the ramp returns the first fit that
clears half the requested bound or raises :class:`FitFailedError` if none.

One certificate path follows the fit: each builder hands its fit to
``_certify``, the only code that builds a trial ``u = fit + d z^p`` and
judges it.  It takes the first index pair above the fit and the one ``d``
that spends half the headroom the fit leaves on K and J, measures that trial
once, and raises :class:`PerturbationFailedError` when it is refused; no
builder tries a second fit.  The judge is a :class:`_Measurement`, the sup
over the product grid L x (K u J) at every derivative level, prepared once
per requirement (each target at every level once, also for the fit); it
returns the :class:`Certificate`, so the pass rule lives in one place, and
takes every sup through one fold, which raises :class:`NonFiniteSupError`
for a sup that is ``inf`` or NaN.  A ``u`` of degree exactly ``p`` is the
fold's one-row case, by the identity; any other ``u`` is measured center by
center, in blocks, with the array kernels of :mod:`.series` and :mod:`.pade`.
Builds and ``verify_construction`` measure K and J, and grid L only when
a center is read; a prefix extension is the one-center case L = {0}.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .compacts import CompactSpec, compacts_meet, discretize
from .errors import (
    FitFailedError,
    IllConditionedError,
    IndexExhaustedError,
    NonFiniteSupError,
    OriginInKError,
    PadeNotExistError,
    PerturbationFailedError,
    ScheduleStepError,
)
from .pade import (
    HankelReport,
    _off_poles,
    derivative_numerators,
    hankel_test,
    pade_denominators,
)
from .series import (
    DEFAULT_TOL,
    TAU_ZERO,
    Polynomial,
    ToleranceConfig,
    _require_finite,
    coeffs_from_json,
    coeffs_to_json,
    complex_to_pair,
    differentiate,
    disagreement_metric,
    float_from_json,
    horner,
    int_from_json,
    pair_to_complex,
    poly_mul,
    recentered_coefficients,
)

#: Hard cap of the least-squares degree ramp.
RAMP_CAP = 48

#: (center, point) pairs the verifier evaluates per block of centers: large
#: enough that array passes amortize their overhead, small enough that the
#: stacked evaluations stay a few hundred KiB.
_BLOCK_PAIRS = 8192


@dataclass(frozen=True)
class IndexSequence:
    """Ordered finite prefix of the admissible ``(p, q)`` index pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Sequence[Sequence[int]]):
        norm = tuple((int_from_json(p), int_from_json(q)) for p, q in pairs)
        if not norm:
            raise ValueError("index sequence must be non-empty")
        for p, q in norm:
            if p < 0 or q < 0:
                raise ValueError("index pairs must be nonnegative")
        object.__setattr__(self, "pairs", norm)

    @property
    def max_p(self) -> int:
        return max(p for p, _ in self.pairs)

    def to_json(self) -> list[list[int]]:
        return [[p, q] for p, q in self.pairs]

    @classmethod
    def from_json(cls, obj) -> "IndexSequence":
        return cls(obj)


def select_index(f_seq: IndexSequence, min_degree) -> tuple[int, int]:
    """First pair (in sequence order) with ``p`` strictly above ``min_degree``."""
    for pair in f_seq.pairs:
        if pair[0] > min_degree:
            return pair
    raise IndexExhaustedError(min_degree, f_seq.max_p)


@dataclass(frozen=True)
class TargetFunction:
    """Target on a grid, at every derivative level: polynomial, rational or table."""

    kind: str
    numer: Polynomial | None = None
    denom: Polynomial | None = None
    points: tuple[complex, ...] = ()
    values: tuple[complex, ...] = ()

    @classmethod
    def poly(cls, coeffs: Sequence[complex], center: complex = 0.0) -> "TargetFunction":
        return cls(kind="poly", numer=Polynomial(coeffs, center))

    @classmethod
    def rational(
        cls,
        numer: Sequence[complex],
        denom: Sequence[complex],
        center: complex = 0.0,
    ) -> "TargetFunction":
        return cls(
            kind="rational",
            numer=Polynomial(numer, center),
            denom=Polynomial(denom, center),
        )

    @classmethod
    def table(cls, points: Sequence[complex], values: Sequence[complex]) -> "TargetFunction":
        pts = tuple(_require_finite(p, "table point") for p in points)
        vals = tuple(_require_finite(v, "table value") for v in values)
        if len(pts) != len(vals):
            raise ValueError("table points and values must have equal lengths")
        if not pts:
            raise ValueError("a table target needs at least one point")
        return cls(kind="table", points=pts, values=vals)

    def evaluate(self, z):
        """``T(z)`` at a point or an array of points: level 0 of :meth:`level_values`."""
        values = self.level_values(np.atleast_1d(np.asarray(z, dtype=complex)), 0)[0]
        return complex(values[0]) if np.ndim(z) == 0 else values

    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def level_values(self, z: np.ndarray, levels: int) -> "list[np.ndarray | None]":
        """``[T(z), T'(z), ..., T^(levels)(z)]`` at the points ``z``, ``None`` past level 0
        for a table.  A polynomial's levels are one :func:`_level_values`; a rational's
        level ``l`` is ``P_l / B^(l+1)``, under a pole guard scaled by the largest
        coefficient of ``B^(l+1)`` (unlike a Pade denominator it has no ``b_0 = 1``).
        A coefficient row beyond the float range is refused first, as by :class:`Polynomial`."""
        if self.kind == "table":
            pts, vals = np.array(self.points, dtype=complex), np.array(self.values, dtype=complex)
            out = np.empty(z.shape, dtype=complex)
            block = max(1, _BLOCK_PAIRS // max(1, len(pts)))
            for start in range(0, len(z), block):
                dist = np.abs(z[start : start + block, None] - pts)
                nearest = np.argmin(dist, axis=1)
                far = dist[np.arange(len(dist)), nearest] > 1e-9
                if far.any():
                    raise ValueError(f"table target has no value at z = {z[start + far.argmax()]}")
                out[start : start + block] = vals[nearest]
            return [out] + [None] * levels
        if self.kind == "poly":
            rows = _level_rows(self.numer.coeffs, levels)
        elif self.kind == "rational":
            den = self.denom.coeffs
            rows = derivative_numerators(self.numer.coeffs, den, levels)
            rows += itertools.accumulate([den] * (levels + 1), poly_mul)  # B^(l+1)
        else:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if not np.isfinite(np.concatenate(rows, axis=None)).all():
            raise ValueError("coefficients must be finite")
        w = z - self.numer.center
        if self.kind == "poly":
            return list(_level_values(rows, w))
        return [
            horner(a, w) / _off_poles(horner(b, w), z, float(np.max(np.abs(b))))
            for a, b in zip(rows[: levels + 1], rows[levels + 1 :])
        ]

    def to_json(self) -> dict:
        if self.kind == "poly":
            return {
                "kind": "poly",
                "coeffs": coeffs_to_json(self.numer.coeffs),
                "center": complex_to_pair(self.numer.center),
            }
        if self.kind == "rational":
            return {
                "kind": "rational",
                "numer": coeffs_to_json(self.numer.coeffs),
                "denom": coeffs_to_json(self.denom.coeffs),
                "center": complex_to_pair(self.numer.center),
            }
        return {
            "kind": "table",
            "points": [complex_to_pair(p) for p in self.points],
            "values": [complex_to_pair(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TargetFunction":
        kind = obj["kind"]
        center = pair_to_complex(obj.get("center", [0.0, 0.0]))
        if kind == "poly":
            return cls.poly(coeffs_from_json(obj["coeffs"]), center)
        if kind == "rational":
            return cls.rational(
                coeffs_from_json(obj["numer"]), coeffs_from_json(obj["denom"]), center
            )
        if kind == "table":
            return cls.table(
                [pair_to_complex(p) for p in obj["points"]],
                [pair_to_complex(v) for v in obj["values"]],
            )
        raise ValueError(f"unknown target kind {kind!r}")


class _ArnoldiLadder:
    """Orthonormal polynomial ladder on fixed points, in the fit's own inner
    product, with monomial images ("Vandermonde with Arnoldi": Brubeck,
    Nakatsukasa & Trefethen, SIAM Review 63, 2021).

    It starts from ``weight / rms(weight)`` (ones without a weight), and
    column ``k + 1`` is ``z * q_k`` after two classical Gram-Schmidt passes
    against columns ``0..k`` (twice is enough: Giraud, Langou & Rozložník,
    2005), each mirrored on the monomial images.  So the columns, the rows
    of one ``(rows, points)`` array ``q``, are orthonormal under ``<a, b>
    = sum(conj(a) * b) / m``, and column ``j`` is ``weight * poly(c[:, j])``
    on the points for one upper-triangular ``c``.  Column ``k + 1`` depends
    only on the points, the weight and columns ``0..k``, so a fit ramp grows
    one ladder instead of rebuilding it at every degree.  ``q`` and ``c`` are
    allocated once, with a row for every degree up to ``RAMP_CAP`` that the
    points can determine, and each new column is written straight into its
    row of ``q`` and its column of ``c``.
    """

    def __init__(self, z: np.ndarray, weight: np.ndarray | None = None):
        self.z = z
        self.weight = np.ones(len(z), dtype=complex) if weight is None else weight
        rms = float(np.linalg.norm(self.weight)) / math.sqrt(len(z))
        rows = min(RAMP_CAP + 1, len(z))
        self.q = np.empty((rows, len(z)), dtype=complex)
        self.c = np.zeros((rows, rows), dtype=complex)
        self.q[0], self.c[0, 0] = self.weight / rms, 1.0 / rms
        self.columns = 1
        self.z_scale = max(1.0, float(np.max(np.abs(z))))

    def basis(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of columns ``0..degree`` (as rows) and their images ``c``,
        grown as needed; a collapse keeps the columns below it.  A column's
        norm is ``np.linalg.norm``'s own complex formula, without its wrapper."""
        have, m = self.columns, len(self.z)
        q, c, root_m = self.q, self.c, math.sqrt(m)
        for k in range(have - 1, degree):
            v = np.multiply(self.z, q[k], out=q[k + 1])
            rows, images, image = q[: k + 1], c[: k + 1, : k + 1], c[: k + 2, k + 1]
            image[0] = 0
            image[1:] = c[: k + 1, k]
            for _ in range(2):
                h = np.conj(rows @ np.conj(v)) / m
                v -= h @ rows
                image[: k + 1] -= images @ h
            re, im = v.real, v.imag
            h_next = math.sqrt(re.dot(re) + im.dot(im)) / root_m
            if h_next <= 1e-13 * self.z_scale:
                image[:] = 0
                raise IllConditionedError(
                    f"orthogonal basis collapsed at degree {k + 1}; the grid "
                    f"cannot support this fit degree"
                )
            np.divide(v, h_next, out=v)
            np.divide(image, h_next, out=image)
            self.columns = k + 2
        return q[: degree + 1], c[: degree + 1, : degree + 1]


def _fit_on_points(ladder: _ArnoldiLadder, operand: np.ndarray, degree: int) -> Polynomial:
    """Monomial-coefficient least-squares fit about 0 on the ladder's points,
    in its weighted norm: one projection onto the orthonormal columns, of the
    values given as their projection operand ``np.conj(ladder.weight * values)``."""
    if not 0 <= degree < len(ladder.q):
        raise ValueError(f"degree {degree} is outside the ladder's 0..{len(ladder.q) - 1}")
    q, c = ladder.basis(degree)
    solution = np.conj(q @ operand) / len(ladder.z)
    return Polynomial._of_kernel(c @ solution, 0j)


def _fit_ramp(ladder, values: np.ndarray, degrees, target: float, residual):
    """``(degree, fit, residual(fit))`` of the first of ``degrees`` whose fit,
    from ``ladder`` (grown as needed), has ``residual(fit) < target``.

    The ramp ends before a degree the ladder does not hold and at the first
    degree it cannot support, and raises :class:`FitFailedError` with the
    best residual and the last degree fitted if no fit cleared ``target``.
    """
    if not np.isfinite(values).all():
        raise ValueError("target values must be finite")
    operand = np.conj(ladder.weight * values)
    best, fitted = math.inf, -1
    for degree in degrees:
        if degree >= len(ladder.q):
            break
        try:
            fit = _fit_on_points(ladder, operand, degree)
        except IllConditionedError:
            break
        fitted = degree
        r = residual(fit)
        if r < target:
            return degree, fit, r
        best = min(best, r)
    raise FitFailedError(target, best, fitted)


@dataclass(frozen=True)
class RequirementSpec:
    """One approximation requirement at precision ``1/s``.

    ``K`` carries the outer target, ``L`` the centers, ``J`` the inner
    verification compact (defaults to ``L``).  ``derivative_levels`` asks
    the verifier to also measure derivative-level sups ``l = 0..levels``.
    """

    K: CompactSpec
    target_on_K: TargetFunction
    L: CompactSpec
    s: int
    derivative_levels: int = 0
    J: CompactSpec | None = None

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("precision parameter s must be >= 1")
        if self.derivative_levels < 0:
            raise ValueError("derivative_levels must be nonnegative")

    @property
    def requested(self) -> float:
        return 1.0 / self.s

    def inner_compact(self) -> CompactSpec:
        return self.J if self.J is not None else self.L

    def to_json(self) -> dict:
        out = {
            "K": self.K.to_json(),
            "target": self.target_on_K.to_json(),
            "L": self.L.to_json(),
            "s": self.s,
            "derivative_levels": self.derivative_levels,
        }
        if self.J is not None:
            out["J"] = self.J.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RequirementSpec":
        return cls(
            K=CompactSpec.from_json(obj["K"]),
            target_on_K=TargetFunction.from_json(obj["target"]),
            L=CompactSpec.from_json(obj["L"]),
            s=int_from_json(obj["s"]),
            derivative_levels=int_from_json(obj.get("derivative_levels", 0)),
            J=CompactSpec.from_json(obj["J"]) if "J" in obj else None,
        )


@dataclass
class Certificate:
    """Machine-checkable record of one constructive run.

    ``achieved`` maps conclusion labels to measured sups; the labels "2".."5"
    are the plain sup bounds (Taylor/Pade against the outer target on K,
    Taylor/Pade against the inner target on J) and "id_taylor_l{l}" /
    "id_pade_l{l}" are the derivative-level self-reproduction sups over
    L x (K u J); every Pade-side label is always present.  ``passed``
    requires every achieved sup below ``requested`` and a nonzero
    perturbation.  ``diagnostics`` carries ungated measurements (derivative
    sups against the targets, scales), and ``by_identity: true`` when the
    conclusions hold by the degree-``p`` identity: then every ``id_*`` sup
    is exactly 0, each Pade-side sup equals its Taylor-side sup, and
    ``hankel_min`` is ``|u_p|^q``, the modulus of the exact determinant.
    A ``hankel_min`` beyond the float range is ``inf`` in memory and
    ``null`` in JSON, and then ``diagnostics["hankel_min_log10"]`` holds
    its ``log10`` where it is known, so the record stays strict JSON.
    """

    selected: tuple[int, int]
    perturbation: complex
    fit_degree: int
    achieved: dict[str, float]
    requested: float
    hankel_min: float
    passed: bool
    diagnostics: dict = field(default_factory=dict)

    @property
    def sup_ok(self) -> bool:
        """Every achieved sup lies below ``requested``."""
        return all(v < self.requested for v in self.achieved.values())

    def to_json(self) -> dict:
        return {
            "selected": [self.selected[0], self.selected[1]],
            "perturbation": complex_to_pair(self.perturbation),
            "fit_degree": self.fit_degree,
            "achieved": dict(self.achieved),
            "requested": self.requested,
            "hankel_min": self.hankel_min if math.isfinite(self.hankel_min) else None,
            "passed": self.passed,
            "diagnostics": dict(self.diagnostics),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        """Read a certificate; ``selected`` must be two nonnegative integers,
        ``achieved`` an object of finite numbers, and ``requested`` and
        ``hankel_min`` finite numbers (a ``null`` ``hankel_min`` reads as ``inf``)."""
        if not isinstance(obj["passed"], bool):
            raise ValueError(f"expected a boolean 'passed', got {obj['passed']!r:.40}")
        selected, achieved = tuple(int_from_json(k) for k in obj["selected"]), obj["achieved"]
        hankel_min = obj["hankel_min"]
        if len(selected) != 2 or min(selected) < 0:
            raise ValueError(f"expected 'selected' as [p, q] >= 0, got {obj['selected']!r:.40}")
        if not isinstance(achieved, dict):
            raise ValueError(f"expected 'achieved' as an object, got {achieved!r:.40}")
        return cls(
            selected=selected,
            perturbation=pair_to_complex(obj["perturbation"]),
            fit_degree=int_from_json(obj["fit_degree"]),
            achieved={k: float_from_json(v) for k, v in achieved.items()},
            requested=float_from_json(obj["requested"]),
            hankel_min=math.inf if hankel_min is None else float_from_json(hankel_min),
            passed=obj["passed"],
            diagnostics=dict(obj.get("diagnostics", {})),
        )


def _level_rows(rows: np.ndarray, levels: int) -> np.ndarray:
    """``rows`` and their derivatives up to ``levels``, stacked and zero-padded on top."""
    stack = np.zeros((levels + 1,) + rows.shape, dtype=complex)
    stack[0] = c = rows
    for level in stack[1:]:
        c = differentiate(c)
        level[..., : c.shape[-1]] = c
    return stack


def _level_values(stack: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Level ``l``: bitwise ``horner(differentiate^l(rows), w)``, by one Horner over the
    :func:`_level_rows` stack of ``rows`` (a padded step resets the value to +0)."""
    # a contiguous copy per level: an in-place multiply by a broadcast view takes twice as long
    return horner(stack, np.repeat(w[None], len(stack), axis=0))


def _sup(deviation: np.ndarray, compact: str, level: int) -> float:
    """``max |deviation|``; raises :class:`NonFiniteSupError` unless it is finite."""
    if (sup := float(np.abs(deviation).max())) < math.inf:  # NaN fails it too
        return sup
    raise NonFiniteSupError(f"the sup on {compact} at derivative level {level} is {sup}")


class _Measurement:
    """Every certified sup of one requirement, prepared once per requirement.

    ``compacts`` is an ordered list of ``(points, target, taylor_label,
    pade_label, name)``: on ``points`` the sup of the Taylor sums against
    ``target`` is reported as ``achieved[taylor_label]``, that of the
    approximants as ``achieved[pade_label]``, and at derivative levels
    ``l >= 1`` as the diagnostics ``{name}_taylor_d{l}`` and
    ``{name}_pade_d{l}`` (where the target has that derivative).  Each target's
    levels are taken here, once, by one :meth:`TargetFunction.level_values` per
    compact; a call measures one polynomial at every level by one Horner.  One
    fold takes every sup and refuses one that is ``inf`` or NaN, so both run
    with numpy's overflow and invalid-value warnings off.

    A call returns the :class:`Certificate` of ``u`` at ``(p, q)`` against
    ``requested``: it passes when :attr:`Certificate.sup_ok` holds and the
    perturbation is nonzero.

    A ``u`` of degree exactly ``p`` (``u_p != 0`` and every stored
    coefficient above ``p`` exactly 0), which is every polynomial the
    builders produce, is decided by identity, however many trailing zeros
    it stores.
    Recentering keeps its coefficients above ``p`` at exactly 0 and
    ``a_p(ζ) = u_p``, so at every center the Hankel window is
    anti-triangular with determinant ``±u_p^q != 0``, and ``S_p(u, ζ) = u``
    and ``[u; p/q]_ζ = u`` (Baker & Graves-Morris, *Pade Approximants*,
    ch. 1).  The call then folds the one row ``u^(l)`` per level for both
    kinds at once: every ``id_*`` sup is exactly 0 and no center is
    recentered, tested or solved for, so the centers are never made.

    Every other ``u`` is measured center by center under the Hankel
    threshold of ``tol``, at the points ``make_centers()`` returns, called
    once, when a center is first read; the first center whose Hankel test fails
    raises :class:`PadeNotExistError`.  The centers are measured in blocks of
    ``_BLOCK_PAIRS // points``, each block in array passes: one stacked
    Horner shift recenters the whole ``u`` and keeps each row's first
    ``p + q + 1`` coefficients, one stacked determinant tests the Hankel
    windows, one stacked solve builds the denominators, and one Horner for
    every level of the Taylor sums and one per level of the approximants
    evaluate them on the points of every compact.  Running maxima carry the
    sups across blocks.  Errors are those of the center-by-center order (the
    first failing center, and at it the first point in compact order); a
    non-finite sup raises as its block is folded.
    """

    def __init__(
        self, make_centers, compacts, levels: int, tol: ToleranceConfig, requested: float
    ):
        self._make_centers = make_centers
        self.levels = levels
        self.tol = tol
        self.requested = requested
        self.points = np.concatenate([points for points, *_ in compacts])
        self.union = " u ".join(name for *_, name in compacts)
        self.parts, start = [], 0  # (columns of the compact in points, label by kind, name)
        for points, _, taylor, pade, name in compacts:
            cols, start = slice(start, start + len(points)), start + len(points)
            self.parts.append((cols, {"taylor": taylor, "pade": pade}, name))
        # per level: the target's values on each compact (None where it has no derivative)
        self.target_vals = list(zip(*(t.level_values(z, levels) for z, t, *_ in compacts)))

    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def __call__(
        self, u: Polynomial, p: int, q: int, perturbation: complex, fit_degree: int
    ) -> Certificate:
        u_vals = _level_values(_level_rows(u.coeffs, self.levels), self.points - u.center)
        sups = {label: 0.0 for _, labels, _ in self.parts for label in labels.values()}
        for kind in ("taylor", "pade"):
            sups.update({f"id_{kind}_l{l}": 0.0 for l in range(self.levels + 1)})
        diagnostics: dict = {}

        def fold(kinds, level: int, values: np.ndarray) -> None:
            # each compact's max |values - T^(level)|, taken once, into each kind's running sup
            table = sups if level == 0 else diagnostics
            for (cols, labels, name), target in zip(self.parts, self.target_vals[level]):
                if target is not None:
                    deviation = _sup(values[..., cols] - target, name, level)
                    for kind in kinds:
                        key = labels[kind] if level == 0 else f"{name}_{kind}_d{level}"
                        table[key] = max(table.get(key, 0.0), deviation)

        def record(kind: str, level: int, values: np.ndarray) -> None:
            key = f"id_{kind}_l{level}"
            sups[key] = max(sups[key], _sup(values - u_vals[level], self.union, level))
            fold((kind,), level, values)

        if u.array_degree() == p:
            # degree exactly p: at every center S_p(u, ζ) = [u; p/q]_ζ = u, one row
            for l, values in enumerate(u_vals):
                fold(("taylor", "pade"), l, values)
            hankel_min = float(np.abs(u.coeffs[p]) ** q)
            if math.isinf(hankel_min):
                diagnostics["hankel_min_log10"] = q * math.log10(abs(u.coeffs[p]))
            diagnostics["by_identity"] = True
        else:
            hankel_min, diagnostics["hankel_tau_max"] = self._per_center(u, p, q, record)

        diagnostics.update({f"sup_u_d{l}": _sup(v, self.union, l) for l, v in enumerate(u_vals)})

        cert = Certificate(
            (p, q), perturbation, fit_degree, sups, self.requested, hankel_min, False, diagnostics
        )
        cert.passed = bool(cert.sup_ok and perturbation != 0)
        return cert

    @functools.cached_property
    def centers(self) -> np.ndarray:
        """The grid of centers, made when the per-center path first reads it."""
        return self._make_centers()

    def _per_center(self, u: Polynomial, p: int, q: int, record):
        """Record the Taylor and Pade rows of every center through
        ``record(kind, level, values)``, up to the first center whose Hankel
        test fails; returns ``(hankel_min, hankel_tau_max)``."""
        zkj, levels, tol = self.points, self.levels, self.tol
        block = max(1, _BLOCK_PAIRS // len(zkj))
        hankel_min = math.inf
        hankel_tau_max = 0.0
        for start in range(0, len(self.centers), block):
            zeta = self.centers[start : start + block]
            rows = recentered_coefficients(u.coeffs, u.center, zeta)[:, : p + q + 1]
            series = np.zeros((len(zeta), p + q + 1), dtype=complex)
            series[:, : rows.shape[1]] = rows
            values, scales, thresholds, exists = hankel_test(series, p, q, tol)
            hankel_min = min(hankel_min, float(np.min(np.hypot(values.real, values.imag))))
            hankel_tau_max = max(hankel_tau_max, float(np.max(thresholds)))
            w = zkj - zeta[:, None]
            for l, partial in enumerate(_level_values(_level_rows(series[:, : p + 1], levels), w)):
                record("taylor", l, partial)

            failed = np.flatnonzero(~exists)
            # Pade rows only before the first failure: only these can raise before it
            rows = failed[0] if len(failed) else len(zeta)
            if rows:
                sub, w_rows = series[:rows], w[:rows]
                denom = pade_denominators(sub, p, q)
                bz = _off_poles(horner(denom, w_rows), zkj)
                numer = poly_mul(sub[:, : p + 1], denom, p + 1)
                for l, numer_l in enumerate(derivative_numerators(numer, denom, levels)):
                    record("pade", l, horner(numer_l, w_rows) / bz ** (l + 1))
            if len(failed):
                i = failed[0]
                report = HankelReport(
                    complex(values[i]), p, q, complex(zeta[i]), False,
                    float(thresholds[i]), float(scales[i]),
                )
                raise PadeNotExistError(report)
        return 0.0 if math.isinf(hankel_min) else hankel_min, hankel_tau_max


def _requirement_measurement(
    req: RequirementSpec, f_on_L: TargetFunction, tol: ToleranceConfig
) -> _Measurement:
    """The measurement of a build: K against its target, J against ``f_on_L``.
    K and J are gridded here, L only when a center is read; with J absent J is
    L, and its one grid serves as the centers too."""
    grid_k, grid_j = discretize(req.K), discretize(req.inner_compact())
    compacts = [
        (grid_k.points, req.target_on_K, "2", "3", "K"),
        (grid_j.points, f_on_L, "4", "5", "J"),
    ]
    centers = (lambda: grid_j.points) if req.J is None else (lambda: discretize(req.L).points)
    return _Measurement(centers, compacts, req.derivative_levels, tol, req.requested)


def verify_construction(
    u: Polynomial,
    req: RequirementSpec,
    pq: tuple[int, int],
    f_on_L: TargetFunction,
    perturbation: complex | None = None,
    fit_degree: int = -1,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Certificate:
    """Re-measure every conclusion for a given polynomial; pure measurement.

    A ``u`` of degree exactly ``p`` is decided by identity, as the builders'
    outputs are, so a build and its verification agree bit for bit.  Any
    other ``u`` raises :class:`PadeNotExistError` (with the offending center
    attached) when the float Hankel test fails at some grid center.  The
    ``perturbation`` metadata defaults to the coefficient of ``u`` at the
    selected degree, which is the perturbation the builders install there.
    """
    p, q = pq
    if perturbation is None:
        perturbation = complex(u.coeffs[p]) if len(u.coeffs) > p else 0j
    return _requirement_measurement(req, f_on_L, tol)(u, p, q, perturbation, fit_degree)


def _certify(
    fit: Polynomial, f_seq: IndexSequence, measurement: _Measurement,
    fit_degree: int, fit_residual: float, sup_error: float, d_override=None,
) -> tuple[Polynomial, Certificate]:
    """``u = fit + d z^p`` and its passing certificate, at the first index
    pair ``(p, q)`` with ``p`` above every stored coefficient of ``fit``;
    raises :class:`PerturbationFailedError` when the trial is refused.

    The one place a trial is built and judged.  ``u`` has degree exactly
    ``p``, so the Hankel conclusion and ``S_p(u, ζ) = [u; p/q]_ζ = u`` hold
    at every center, and on K and J ``|u - T| <= r + |d| R^p``, with ``r``
    the fit's ``sup_error`` against the targets on the measurement's points
    and ``R = max |z - c|``.  So
    ``d = (1/s - r) / (2 R^p)`` spends half the headroom and keeps every
    gated sup near ``(1/s + r) / 2``.  ``R^p`` is a float64 power: beyond
    the float range ``d`` reads 0 and the pair is refused unmeasured.
    Otherwise the trial is measured once, as ``measurement(u, ...)`` with
    the builder's ``fit_residual`` added to its certificate's diagnostics,
    and refused if its certificate fails, or a sup is not finite or a
    center fails the Hankel test.  With ``d_override`` the pair is measured at
    that value, and a failing certificate is returned; ``d = 0`` never passes.
    """
    p, q = select_index(f_seq, len(fit.coeffs) - 1)
    d = d_override
    if d is None:
        radius = np.max(np.abs(measurement.points - fit.center))
        with np.errstate(over="ignore", divide="ignore"):  # R^p = inf reads as d = 0
            d = float((measurement.requested - sup_error) / 2.0 / radius**p)
        if not 0.0 < d < math.inf:
            raise PerturbationFailedError(p, q, d, 0)
    u = fit.plus_monomial(d, p)
    try:
        cert = measurement(u, p, q, d, fit_degree)
    except (PadeNotExistError, NonFiniteSupError):
        raise PerturbationFailedError(p, q, d, 1) from None
    cert.diagnostics["fit_residual"] = fit_residual
    if not (cert.passed or d_override is not None):
        raise PerturbationFailedError(p, q, d, 1)
    return u, cert


def build_universal_polynomial(
    req: RequirementSpec,
    f_on_L: TargetFunction,
    f_seq: IndexSequence,
    d_override: complex | None = None,
) -> tuple[Polynomial, Certificate]:
    """Construct ``u = P + d z^p`` certified against one requirement.

    Prepares the measurement and fits the glued target on its points, K then
    J (no sup reads ``u`` on the centers of L, where it is its own
    approximant), with a degree ramp; its first fit that clears half the
    requested bound goes to ``_certify``, which returns the certified ``u``
    or raises the refusal of its one trial.  ``d_override`` replaces the
    chosen perturbation and returns the certificate for that exact value
    (possibly failing; a zero perturbation never passes).
    """
    for name, spec in (("L", req.L), ("J", req.J)):
        if spec is not None and compacts_meet(req.K, spec):  # no J: J is L, checked already
            raise ValueError(f"K and {name} overlap; the gluing step needs disjoint compacts")

    measurement = _requirement_measurement(req, f_on_L, DEFAULT_TOL)
    z, values = measurement.points, np.concatenate(measurement.target_vals[0])
    degree, fit, residual = _fit_ramp(
        _ArnoldiLadder(z), values, range(2, RAMP_CAP + 1, 2), req.requested / 2.0,
        lambda fit: float(np.abs(fit.eval(z) - values).max()),
    )
    # the ramp's residual is the fit's sup error on the measurement's points
    return _certify(fit, f_seq, measurement, degree, residual, residual, d_override)


@dataclass(frozen=True)
class ExtensionRequirement:
    """One prefix-extension requirement: approximate ``psi`` on ``K``."""

    K: CompactSpec
    psi: TargetFunction
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("precision parameter s must be >= 1")

    def to_json(self) -> dict:
        return {"K": self.K.to_json(), "psi": self.psi.to_json(), "s": self.s}

    @classmethod
    def from_json(cls, obj: dict) -> "ExtensionRequirement":
        return cls(
            K=CompactSpec.from_json(obj["K"]),
            psi=TargetFunction.from_json(obj["psi"]),
            s=int_from_json(obj["s"]),
        )


def extend_prefix(
    prefix: Sequence[complex],
    k_compact: CompactSpec,
    psi: TargetFunction,
    s: int,
    f_seq: IndexSequence,
) -> tuple[tuple[complex, ...], Certificate]:
    """Extend a coefficient prefix so the extension approximates ``psi``.

    With ``n0`` the last prefix index, the extension has the shape
    ``h = prefix_poly + t(z) z^(n0+1) + d z^(p_k)``: the correction ``t`` is
    fitted against ``(psi - prefix_poly)/z^(n0+1)`` on K (which requires
    ``0`` off K) and is the first fit of its ramp that clears half the
    bound, and the fitted ``prefix_poly + t(z) z^(n0+1)`` goes through
    the same ``_certify`` as a build's fit: the first pair ``(p_k, q_k)``
    with ``p_k`` above every occupied degree, and ``d != 0`` from the
    headroom the fit leaves on K.  A refused trial is raised as
    :class:`PerturbationFailedError`.  Every term after the prefix sits
    above ``n0``, so the prefix survives verbatim and the extension stays within
    ``2^-n0`` of the input in the disagreement metric; this is checked once,
    on the returned extension.
    """
    if s < 1:
        raise ValueError("precision parameter s must be >= 1")
    prefix = tuple(complex(c) for c in prefix)
    if not prefix:
        raise ValueError("prefix must be non-empty")
    z = discretize(k_compact).points
    min_abs = float(np.min(np.abs(z)))
    if min_abs <= TAU_ZERO:
        raise OriginInKError(
            f"the compact set touches the origin (min |z| = {min_abs:.3e}); "
            f"division by z^(n0+1) is impossible there"
        )

    # the one-center case of a build: L = {0}, K only, no derivative levels,
    # and the labels reversed ("3" is the Taylor sup, "2" the Pade sup)
    requested = 1.0 / s
    measurement = _Measurement(
        lambda: np.zeros(1, dtype=complex), [(z, psi, "3", "2", "K")], 0, DEFAULT_TOL, requested
    )
    (psi_vals,) = measurement.target_vals[0]
    n0 = len(prefix) - 1
    base = Polynomial(prefix, 0.0)
    base_vals = base.eval(z)
    shifted = z ** (n0 + 1)
    gap = psi_vals - base_vals
    divided = gap / shifted

    # weight by z^(n0+1): the quantity that must shrink is the composite
    # |psi - prefix - t z^(n0+1)|, not the divided residual
    fit_degree, correction, residual = _fit_ramp(
        _ArnoldiLadder(z, shifted), divided, range(RAMP_CAP + 1), requested / 2.0,
        lambda t_poly: float(np.abs(gap - t_poly.eval(z) * shifted).max()),
    )

    # the correction up to its last nonzero term; "+ 0.0" writes its exact
    # zeros as +0.0, so no -0.0 reaches the records
    tail = np.trim_zeros(correction.coeffs, "b") + 0.0
    fitted = Polynomial(np.concatenate([base.coeffs, tail]), 0.0)
    sup_error = float(np.max(np.abs(fitted.eval(z) - psi_vals)))
    u, cert = _certify(fitted, f_seq, measurement, fit_degree, residual, sup_error)
    # every term _certify adds sits above n0: the prefix is checked once, on u
    padded = np.zeros_like(u.coeffs)
    padded[: n0 + 1] = base.coeffs
    cert.passed = cert.passed and np.array_equal(u.coeffs[: n0 + 1], base.coeffs)
    cert.diagnostics.update(
        prefix_metric=disagreement_metric(padded, u.coeffs), prefix_length=float(n0 + 1)
    )
    return tuple(u.coeffs.tolist()), cert


def run_extension_schedule(
    prefix: Sequence[complex],
    schedule: Sequence[ExtensionRequirement],
    f_seq: IndexSequence,
) -> tuple[tuple[complex, ...], list[Certificate]]:
    """Fold :func:`extend_prefix` over a finite requirement schedule.

    Each step extends the previous step's coefficient stream; failures are
    re-raised wrapped with the index of the offending requirement.
    """
    coeffs = tuple(complex(c) for c in prefix)
    certificates: list[Certificate] = []
    for step, requirement in enumerate(schedule):
        try:
            coeffs, cert = extend_prefix(
                coeffs, requirement.K, requirement.psi, requirement.s, f_seq
            )
        except Exception as exc:
            raise ScheduleStepError(step, exc) from exc
        certificates.append(cert)
    return coeffs, certificates
