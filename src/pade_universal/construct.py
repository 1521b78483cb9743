"""Constructive approximation: gluing, fitting, perturbing, certifying.

The central manoeuvre: glue the requested targets into one function on a
union of disjoint compacts, fit a single polynomial ``P`` to the glue by
orthogonalized least squares (the desk-scale surrogate for classical
polynomial-density theorems), pick an index pair ``(p, q)`` with ``p``
beyond the fit degree, and perturb to ``u = P + d z^p`` with ``d != 0``
small.  Because ``u`` then has degree exactly ``p``, its ``(p, q)``
approximant exists at every center and reproduces ``u`` identically, which
is what makes one polynomial satisfy all the sup bounds simultaneously.
Nothing is assumed: every claimed bound is measured on grids and recorded
in a :class:`Certificate`.

Both builders fit through ``_fit_ramp``: one Arnoldi ladder on the fit
points, grown by the columns each new degree needs, and one least-squares
solve per degree; each builder chooses its degrees, weight and residual,
and the ramp yields the fits that clear half the requested bound or
raises :class:`FitFailedError` when none does.

Inside this module a refusal is a value: ``_certify`` returns a failed
search or a refused pair unraised, and each builder raises it once.

One certificate path follows the fit: each builder hands its fitted
polynomial to ``_certify``, the only code that builds a trial
``u = fit + d z^p`` and judges it.  The judge is a :class:`_Measurement`,
the sup over the product grid L x (K u J) at every derivative level,
prepared once per requirement (its targets evaluated once) and called for
each polynomial a search tries; it returns the :class:`Certificate`, so
the pass rule lives in one place.  It takes the centers of L in blocks and
measures each block with the array kernels of :mod:`.series` and
:mod:`.pade` (stacked recentering, Hankel test, denominator solve and
Horner evaluation) instead of one scalar approximant per center.  Builds
and ``verify_construction`` measure K and J on the grid of L; a prefix
extension is its one-center case, L = {0} and K alone at level 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .compacts import CompactSpec, Grid, discretize, spec_region_contains
from .errors import (
    FitFailedError,
    IllConditionedError,
    IndexExhaustedError,
    OriginInKError,
    PadeNotExistError,
    PerturbationFailedError,
    PerturbationRefusedError,
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
    Polynomial,
    ToleranceConfig,
    coeffs_from_json,
    coeffs_to_json,
    complex_to_pair,
    differentiate,
    disagreement_metric,
    horner,
    int_from_json,
    pair_to_complex,
    poly_mul,
    recentered_coefficients,
)

#: Hard cap of the least-squares degree ramp.
RAMP_CAP = 48

#: How many admissible index pairs a builder will try before giving up.
INDEX_RETRY_LIMIT = 8

#: Evaluation budget of the perturbation-magnitude search.
PERTURBATION_ATTEMPTS = 60

#: A pair is refused unmeasured when its Hankel wall is at least this many
#: times its sup wall (see ``_perturbation_walls``).
_WALL_MARGIN = 2.0

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


def candidate_indices(f_seq: IndexSequence, min_degree, limit: int | None = None):
    """Pairs with ``p > min_degree`` in sequence order (at most ``limit``)."""
    found = 0
    for pair in f_seq.pairs:
        if pair[0] > min_degree:
            yield pair
            found += 1
            if limit is not None and found >= limit:
                return
    if found == 0:
        raise IndexExhaustedError(min_degree, f_seq.max_p)


def select_index(f_seq: IndexSequence, min_degree) -> tuple[int, int]:
    """First pair (in sequence order) with ``p`` strictly above ``min_degree``."""
    return next(candidate_indices(f_seq, min_degree, limit=1))


@dataclass(frozen=True)
class TargetFunction:
    """Grid-evaluable target: polynomial, rational or pointwise table."""

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
        pts = tuple(complex(p) for p in points)
        vals = tuple(complex(v) for v in values)
        if len(pts) != len(vals):
            raise ValueError("table points and values must have equal lengths")
        return cls(kind="table", points=pts, values=vals)

    def evaluate(self, z, tol: ToleranceConfig = DEFAULT_TOL):
        if self.kind == "poly":
            return self.numer.eval(z)
        if self.kind == "rational":
            # scaled threshold: unlike a Pade denominator (b_0 = 1), a
            # target's denominator carries no normalization
            scale = float(np.max(np.abs(self.denom.coeffs)))
            return self.numer.eval(z) / _off_poles(self.denom.eval(z), z, tol.tau_zero * scale)
        if self.kind == "table":
            zz = np.atleast_1d(np.asarray(z, dtype=complex))
            pts = np.array(self.points, dtype=complex)
            vals = np.array(self.values, dtype=complex)
            out = np.empty(zz.shape, dtype=complex)
            block = max(1, _BLOCK_PAIRS // max(1, len(pts)))
            for start in range(0, len(zz), block):
                dist = np.abs(zz[start : start + block, None] - pts)
                nearest = np.argmin(dist, axis=1)
                far = dist[np.arange(len(dist)), nearest] > 1e-9
                if far.any():
                    point = zz[start + int(np.argmax(far))]
                    raise ValueError(f"table target has no value at z = {point}")
                out[start : start + block] = vals[nearest]
            return complex(out[0]) if np.ndim(z) == 0 else out
        raise ValueError(f"unknown target kind {self.kind!r}")

    def derivative(self, order: int) -> "TargetFunction | None":
        """Derivative as a new target, or ``None`` when not differentiable."""
        if order == 0:
            return self
        if self.kind == "poly":
            return TargetFunction(kind="poly", numer=self.numer.derivative(order))
        if self.kind == "rational":
            den = self.denom.coeffs
            num = derivative_numerators(self.numer.coeffs, den, order)[-1]
            den_power = den
            for _ in range(order):
                den_power = poly_mul(den_power, den)
            center = self.numer.center
            return TargetFunction(
                kind="rational",
                numer=Polynomial(num, center),
                denom=Polynomial(den_power, center),
            )
        return None

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
    """Orthonormal polynomial ladder on fixed points, with monomial images.

    Gram-Schmidt on ``1, z*q_0, z*q_1, ...`` with a reorthogonalization
    pass; every subtraction applied to the sampled vectors is mirrored on
    the monomial coefficient columns, so ``q[:, k] == poly(coeffs[k])(z)``
    up to rounding.  Column ``k + 1`` depends only on ``z`` and columns
    ``0..k``, so a fit ramp grows one ladder instead of rebuilding it at
    every degree.  The columns are strided views of one ``(points,
    columns)`` array, reallocated as the ramp reaches a new degree:
    ``np.vdot`` rounds a contiguous vector differently, and this layout
    keeps every column bitwise equal to that of a build from scratch.
    """

    def __init__(self, z: np.ndarray):
        self.z = z
        self.q = np.ones((len(z), 1), dtype=complex)
        self.coeffs: list[np.ndarray] = [np.array([1.0 + 0j])]
        self.z_scale = max(1.0, float(np.max(np.abs(z))))

    def basis(self, degree: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """Columns ``0..degree`` and their monomial images, grown as needed."""
        m = len(self.z)
        if degree >= self.q.shape[1]:
            grown = np.empty((m, degree + 1), dtype=complex)
            grown[:, : self.q.shape[1]] = self.q
            self.q = grown
        q_mat, coeff_cols = self.q, self.coeffs
        for k in range(len(coeff_cols) - 1, degree):
            v = self.z * q_mat[:, k]
            c_new = np.concatenate([[0j], coeff_cols[k]])
            for _ in range(2):
                for j in range(k + 1):
                    h = complex(np.vdot(q_mat[:, j], v) / m)
                    v = v - h * q_mat[:, j]
                    c_new[: len(coeff_cols[j])] -= h * coeff_cols[j]
            h_next = float(np.linalg.norm(v) / math.sqrt(m))
            if h_next <= 1e-13 * self.z_scale:
                raise IllConditionedError(
                    f"orthogonal basis collapsed at degree {k + 1}; the grid "
                    f"cannot support this fit degree"
                )
            q_mat[:, k + 1] = v / h_next
            coeff_cols.append(c_new / h_next)
        return q_mat[:, : degree + 1], coeff_cols[: degree + 1]


def _fit_on_points(
    ladder: _ArnoldiLadder,
    values: np.ndarray,
    degree: int,
    weight: np.ndarray | None = None,
) -> Polynomial:
    """Monomial-coefficient LS fit on the ladder's points; optionally weighted per point."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    m = len(ladder.z)
    if m < degree + 1:
        raise ValueError(f"{m} sample points cannot determine degree {degree}")
    q_mat, coeff_cols = ladder.basis(degree)
    if weight is not None:
        system = q_mat * weight[:, None]
        rhs = values * weight
    else:
        system = q_mat
        rhs = values
    # the singular values lstsq computes anyway are the condition estimate
    solution, _, _, singular = np.linalg.lstsq(system, rhs, rcond=None)
    if singular[-1] == 0 or singular[0] / singular[-1] > 1e12:
        raise IllConditionedError("orthogonalized system condition estimate exceeds limit")
    coeffs = np.zeros(degree + 1, dtype=complex)
    for k, w in enumerate(solution):
        coeffs[: len(coeff_cols[k])] += w * coeff_cols[k]
    return Polynomial(coeffs, 0.0)


def _fit_ramp(z: np.ndarray, values: np.ndarray, degrees, target: float, residual, weight=None):
    """Yield ``(degree, fit, residual(fit))`` for each of ``degrees`` whose
    fit, from one ladder on ``z``, has ``residual(fit) < target``.

    The ramp ends before a degree the points cannot determine and at the
    first degree the ladder or the system cannot support, and raises
    :class:`FitFailedError` with the best residual if no fit cleared ``target``.
    """
    if not np.isfinite(values).all():
        raise ValueError("target values must be finite")
    ladder = _ArnoldiLadder(z)
    best = math.inf
    for degree in degrees:
        if degree + 1 > len(z):
            break
        try:
            fit = _fit_on_points(ladder, values, degree, weight)
        except IllConditionedError:
            break
        r = residual(fit)
        best = min(best, r)
        if r < target:
            yield degree, fit, r
    if best >= target:
        raise FitFailedError(target, best, RAMP_CAP)


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
    L x (K u J).  ``passed`` requires every achieved sup below ``requested``,
    Hankel nonvanishing over the whole center grid, and a nonzero
    perturbation.  ``diagnostics`` carries ungated measurements (derivative
    sups against the targets, the admissible perturbation window, scales).
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

    @property
    def hankel_ok(self) -> bool:
        """The Hankel test held at every center: the Pade-side sups are
        recorded exactly then."""
        return "id_pade_l0" in self.achieved

    def to_json(self) -> dict:
        return {
            "selected": [self.selected[0], self.selected[1]],
            "perturbation": complex_to_pair(self.perturbation),
            "fit_degree": self.fit_degree,
            "achieved": dict(self.achieved),
            "requested": self.requested,
            "hankel_min": self.hankel_min,
            "passed": self.passed,
            "diagnostics": dict(self.diagnostics),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        return cls(
            selected=(int_from_json(obj["selected"][0]), int_from_json(obj["selected"][1])),
            perturbation=pair_to_complex(obj["perturbation"]),
            fit_degree=int_from_json(obj["fit_degree"]),
            achieved={k: float(v) for k, v in obj["achieved"].items()},
            requested=float(obj["requested"]),
            hankel_min=float(obj["hankel_min"]),
            passed=bool(obj["passed"]),
            diagnostics=dict(obj.get("diagnostics", {})),
        )


class _Measurement:
    """Every certified sup of one requirement, prepared once per requirement.

    ``compacts`` is an ordered list of ``(points, target, taylor_label,
    pade_label, name)``: on ``points`` the sup of the Taylor sums against
    ``target`` is reported as ``achieved[taylor_label]``, that of the
    approximants as ``achieved[pade_label]``, and at derivative levels
    ``l >= 1`` as the diagnostics ``{name}_taylor_d{l}`` and
    ``{name}_pade_d{l}`` (where the target has that derivative).  Each target
    and its derivatives are evaluated here, once; a call measures one
    polynomial.

    A call returns the :class:`Certificate` of ``u`` at ``(p, q)`` against
    ``requested``: it passes when :attr:`Certificate.sup_ok` and
    :attr:`Certificate.hankel_ok` hold and the perturbation is nonzero.
    With ``strict`` a vanishing Hankel determinant at any center raises;
    otherwise the Pade-side sups are left out of ``achieved`` so a
    perturbation search can react.

    The centers are measured in blocks of ``_BLOCK_PAIRS // points``, each
    block in array passes: one stacked Horner shift recenters ``u``, one
    stacked determinant tests the Hankel windows, one stacked solve builds
    the denominators, and one Horner per derivative level evaluates the
    Taylor partial sums and the approximants on the points of every compact.
    Running maxima carry the sups across blocks.  Errors are those of the
    center-by-center order: the first failing center, and at it the first
    point in compact order.

    Every polynomial a builder measures, ``u = fit + d z^p`` with
    ``deg fit < p`` and ``d != 0``, skips the Pade half: its recentered rows
    are zero above ``p``, so the denominator system is triangular with ``d``
    on its diagonal and a zero right side, ``B = 1`` exactly, and each
    ``P_l / B^(l+1)`` is the level-``l`` Taylor row up to the signs of zeros.
    The Taylor values of the Hankel-passing centers are then recorded as the
    Pade values, bit for bit what the solve gives.  The general path stays
    for every other ``u``, and where ``tau_zero >= 1`` makes the pole guard
    reject ``|B| = 1``; the Hankel test runs at every center either way.
    """

    def __init__(
        self, centers: np.ndarray, compacts, levels: int, tol: ToleranceConfig, requested: float
    ):
        self.centers = centers
        self.levels = levels
        self.tol = tol
        self.requested = requested
        self.points = np.concatenate([points for points, *_ in compacts])
        self.parts = []  # (columns of the compact in points, taylor label, pade label, name)
        start = 0
        for points, _, *labels in compacts:
            self.parts.append((slice(start, start + len(points)), *labels))
            start += len(points)
        # per level: the target derivative on each compact (None where it has none)
        self.target_vals = []
        for l in range(levels + 1):
            derived = [(target.derivative(l), points) for points, target, *_ in compacts]
            self.target_vals.append(
                [None if t is None else np.asarray(t.evaluate(z, tol)) for t, z in derived]
            )
        # K's points and level-0 target values, which the sup wall reads
        k = next(i for i, (*_, name) in enumerate(compacts) if name == "K")
        self.k_points, self.k_target = compacts[k][0], self.target_vals[0][k]

    def __call__(
        self, u: Polynomial, p: int, q: int, perturbation: complex, fit_degree: int, strict: bool
    ) -> Certificate:
        zkj, levels, tol = self.points, self.levels, self.tol
        u_vals = [u.derivative(l).eval(zkj) for l in range(levels + 1)]
        sups: dict[str, float] = {}
        for _, taylor, pade, _ in self.parts:
            sups.update({taylor: 0.0, pade: 0.0})
        sups.update({f"id_taylor_l{l}": 0.0 for l in range(levels + 1)})
        sups.update({f"id_pade_l{l}": 0.0 for l in range(levels + 1)})
        diag_targets: dict[str, float] = {}

        def bump(table: dict, key: str, deviation: np.ndarray) -> None:
            table[key] = max(table.get(key, 0.0), float(np.max(np.abs(deviation))))

        def record(kind: str, level: int, values: np.ndarray) -> None:
            bump(sups, f"id_{kind}_l{level}", values - u_vals[level])
            for (cols, taylor, pade, name), target in zip(self.parts, self.target_vals[level]):
                if level == 0:
                    bump(sups, taylor if kind == "taylor" else pade, values[:, cols] - target)
                elif target is not None:
                    bump(diag_targets, f"{name}_{kind}_d{level}", values[:, cols] - target)

        coeffs = u.coeffs
        if len(coeffs) > p + q + 1:
            raise ValueError("length must not truncate stored coefficients")
        # u of degree exactly p: its approximant is its Taylor sum (B = 1)
        taylor_is_pade = len(coeffs) == p + 1 and coeffs[p] != 0 and tol.tau_zero < 1
        block = max(1, _BLOCK_PAIRS // len(zkj))
        hankel_min = math.inf
        hankel_tau_max = 0.0
        pade_everywhere = True
        for start in range(0, len(self.centers), block):
            zeta = self.centers[start : start + block]
            series = np.zeros((len(zeta), p + q + 1), dtype=complex)
            series[:, : len(coeffs)] = recentered_coefficients(coeffs, u.center, zeta)
            values, scales, thresholds, exists = hankel_test(series, p, q, tol)
            hankel_min = min(hankel_min, float(np.min(np.hypot(values.real, values.imag))))
            hankel_tau_max = max(hankel_tau_max, float(np.max(thresholds)))
            w = zkj - zeta[:, None]

            partial = series[:, : p + 1]
            taylor_vals = []
            for l in range(levels + 1):
                taylor_vals.append(horner(partial, w))
                record("taylor", l, taylor_vals[-1])
                partial = differentiate(partial)

            failed = np.flatnonzero(~exists)
            pade_everywhere = pade_everywhere and not len(failed)
            rows = np.flatnonzero(exists)
            if strict and len(failed):
                rows = rows[rows < failed[0]]  # only these can raise before it
            if len(rows) and taylor_is_pade:
                for l, level_vals in enumerate(taylor_vals):
                    record("pade", l, level_vals[rows])
            elif len(rows):
                sub, w_rows = series[rows], w[rows]
                denom = pade_denominators(sub, p, q)
                bz = _off_poles(horner(denom, w_rows), zkj, tol.tau_zero)
                numer = poly_mul(sub[:, : p + 1], denom)[:, : p + 1]
                for l, numer_l in enumerate(derivative_numerators(numer, denom, levels)):
                    record("pade", l, horner(numer_l, w_rows) / bz ** (l + 1))
            if strict and len(failed):
                i = failed[0]
                report = HankelReport(
                    complex(values[i]), p, q, complex(zeta[i]), False,
                    float(thresholds[i]), float(scales[i]),
                )
                raise PadeNotExistError(report)

        achieved = dict(sups)
        if not pade_everywhere:
            for _, _, pade, _ in self.parts:
                achieved.pop(pade)
            for l in range(levels + 1):
                achieved.pop(f"id_pade_l{l}")

        diagnostics = dict(diag_targets)
        diagnostics["hankel_tau_max"] = hankel_tau_max
        for l in range(levels + 1):
            diagnostics[f"sup_u_d{l}"] = float(np.max(np.abs(u_vals[l])))

        hankel_min = 0.0 if math.isinf(hankel_min) else float(hankel_min)
        cert = Certificate(
            (p, q), perturbation, fit_degree, achieved, self.requested, hankel_min, False,
            diagnostics,
        )
        cert.passed = bool(cert.sup_ok and cert.hankel_ok and perturbation != 0)
        return cert


def _requirement_measurement(
    req: RequirementSpec, f_on_L: TargetFunction, grid_l: Grid, grid_k: Grid, grid_j: Grid,
    tol: ToleranceConfig,
) -> _Measurement:
    """The measurement of a build: K against its target, J against ``f_on_L``."""
    compacts = [
        (grid_k.points, req.target_on_K, "2", "3", "K"),
        (grid_j.points, f_on_L, "4", "5", "J"),
    ]
    return _Measurement(grid_l.points, compacts, req.derivative_levels, tol, req.requested)


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

    Raises :class:`PadeNotExistError` (with the offending center attached)
    when the approximant fails to exist at some grid center.  The
    ``perturbation`` metadata defaults to the coefficient of ``u`` at the
    selected degree, which is the perturbation the builders install there.
    """
    p, q = pq
    grids = discretize(req.L), discretize(req.K), discretize(req.inner_compact())
    if perturbation is None:
        perturbation = complex(u.coeffs[p]) if len(u.coeffs) > p else 0j
    measurement = _requirement_measurement(req, f_on_L, *grids, tol)
    return measurement(u, p, q, perturbation, fit_degree, strict=True)


def _search_perturbation(measure, d0: float):
    """Find ``|d|`` whose certificate passes, moving geometrically.

    ``measure(d)`` returns the certificate for ``d``; its
    :attr:`~Certificate.sup_ok` and :attr:`~Certificate.hankel_ok` steer the
    search.  A sup-bound violation sends it down, a Hankel violation sends
    it up; once both walls are known it bisects in log scale.  Returns the
    passing certificate, or an unraised :class:`PerturbationFailedError`
    with the established window.
    """
    lo = 0.0  # largest magnitude known to fail the Hankel floor
    hi = math.inf  # smallest magnitude known to break a sup bound
    d = d0
    for attempt in range(1, PERTURBATION_ATTEMPTS + 1):
        cert = measure(d)
        if cert.passed:
            cert.diagnostics["d_window_lo"] = lo
            cert.diagnostics["d_window_hi"] = hi if math.isfinite(hi) else None
            return cert
        if not cert.hankel_ok and cert.sup_ok:
            lo = max(lo, d)
            d = math.sqrt(lo * hi) if math.isfinite(hi) else d * 2.0
        elif cert.hankel_ok and not cert.sup_ok:
            hi = min(hi, d)
            d = math.sqrt(lo * hi) if lo > 0.0 else d / 2.0
        else:
            break
        if math.isfinite(hi) and lo > 0.0 and hi / lo < 1.0 + 1e-9:
            break
    return PerturbationFailedError(lo, hi, attempt)


def _perturbation_walls(fit: Polynomial, measurement: _Measurement):
    """``walls(p, q) -> (d_H, d_S)`` for the trials ``u = fit + d z^p`` at ``q >= 2``.

    With ``deg fit < p`` every recentered row of ``u`` has ``a_p = d`` and
    zeros above ``p``, so its Hankel window is anti-triangular with
    determinant ``±d^q``.  Its other entries ``a_k(u, ζ) = a_k(fit, ζ) +
    d C(p, k) (ζ - c)^(p-k)``, ``p - q + 1 <= k <= p - 1``, give the scale a
    floor, so the test ``|d|^q > tau_det scale^q`` can hold at ζ only for
    ``|d| > t A(ζ) / (1 + t B(ζ))``, with ``t = tau_det^(1/q)``, ``A(ζ) =
    max |a_k(fit, ζ)|`` and ``B(ζ) = max C(p, k) |ζ - c|^(p-k)``.  The
    Hankel wall ``d_H`` is the largest of these over the centers.  On K,
    ``|u - T| >= |d| |z - c|^p - r_K`` with ``r_K = max_K |fit - T|``, so
    the level-0 Taylor sup on K (where ``S_p(u, ζ) = u``) stays below
    ``1/s`` only for ``|d| < d_S = (1/s + r_K) / max_K |z - c|^p``.

    A pair with ``d_H >= _WALL_MARGIN * d_S`` cannot pass at any ``d``.
    Below ``d_H`` the exact Hankel test fails at some center; the rounding
    of ``det`` moves that wall by a few ulps, well inside the factor 2, so
    where it could let the test pass the K sup is still near ``2/s + r_K``.
    Above ``d_H`` the exact K sup is at least ``2 d_S max_K |z - c|^p - r_K
    = 2/s + r_K``.  The one assumption is that the rounding floor of the
    level-0 Taylor values on K stays below ``1/s + r_K``, so the measured
    sup cannot fall to ``1/s``.  Everything is read from ``fit`` and the
    prepared ``measurement``: one recentering of ``fit`` at the centers and
    one evaluation on K serve every pair.
    """
    center = fit.center
    rows = np.abs(recentered_coefficients(fit.coeffs, center, measurement.centers))
    radii = np.abs(measurement.centers - center)
    r_k = float(np.max(np.abs(fit.eval(measurement.k_points) - measurement.k_target)))
    k_radius = float(np.max(np.abs(measurement.k_points - center)))
    requested, tau_det = measurement.requested, measurement.tol.tau_det

    def walls(p: int, q: int) -> tuple[float, float]:
        t = tau_det ** (1.0 / q)
        lo = max(0, p - q + 1)
        ks = np.arange(lo, p)
        a = np.max(rows[:, lo:p], axis=1, initial=0.0)
        binomials = np.array([_float_or_inf(math.comb(p, k)) for k in ks])
        with np.errstate(over="ignore"):  # an infinite B or K power only lowers d_H or d_S
            powers = radii[:, None] ** (p - ks)
            # a center at radius 0 adds nothing, even beside an infinite binomial
            terms = np.multiply(binomials, powers, out=np.zeros_like(powers), where=powers > 0)
            k_power = np.float64(k_radius) ** p
        d_h = float(np.max(t * a / (1.0 + t * np.max(terms, axis=1, initial=0.0))))
        return d_h, float((requested + r_k) / k_power)

    return walls


def _float_or_inf(n: int) -> float:
    """``float(n)``, or ``inf`` for an integer beyond the float range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _certify(
    fit: Polynomial, min_degree, f_seq: IndexSequence, measurement: _Measurement, s: int,
    sup_abs: float, fit_degree: int, diagnostics: dict, d_override=None,
) -> tuple[Polynomial, Certificate] | PerturbationFailedError:
    """``u = fit + d z^p`` and its passing certificate, for the first index
    pair ``(p, q)`` with ``p > min_degree`` whose search succeeds.

    The one place a trial is built and judged: every ``d`` tried is measured
    as ``measurement(fit.plus_monomial(d, p), ...)``, with ``diagnostics``
    (the builder's fit residual) added to its certificate.  At most
    ``INDEX_RETRY_LIMIT`` pairs are tried, each search starting from
    ``d0 = 1 / (2 s sup_abs^p)``, and a passing search's certificate
    records as ``d_attempts`` every measurement made here, on every pair
    tried.  With ``d_override`` the first pair is measured at that value,
    passing or not.  When no pair passes, returns the last pair's refusal
    or failed search, unraised: a refusal is a value here, and the builders
    raise it once.

    Before its search, a pair with ``q >= 2`` whose walls cross (see
    :func:`_perturbation_walls`) is refused with
    :class:`PerturbationRefusedError`, unmeasured, and the next pair is
    tried as after a failed search.  Such a search could only fail, so the
    pair certified, its ``d`` and its sups are those of the full search;
    only ``d_attempts`` is smaller.  A pair with ``q <= 1`` is never
    refused: its Hankel test cannot fail.
    """
    attempts = 0
    walls = _perturbation_walls(fit, measurement) if d_override is None else None

    def measure(d: complex, p: int, q: int) -> Certificate:
        nonlocal attempts
        attempts += 1
        cert = measurement(fit.plus_monomial(d, p), p, q, d, fit_degree, strict=False)
        cert.diagnostics.update(diagnostics)
        return cert

    for p, q in candidate_indices(f_seq, min_degree, INDEX_RETRY_LIMIT):
        if d_override is not None:
            cert = measure(d_override, p, q)
            return fit.plus_monomial(cert.perturbation, p), cert
        if q >= 2:
            d_h, d_s = walls(p, q)
            if d_h >= _WALL_MARGIN * d_s:
                outcome = PerturbationRefusedError(p, q, d_h, d_s)
                continue
        outcome = _search_perturbation(lambda d: measure(d, p, q), 1.0 / (2.0 * s * sup_abs**p))
        if isinstance(outcome, Certificate):
            outcome.diagnostics["d_attempts"] = attempts
            return fit.plus_monomial(outcome.perturbation, p), outcome
    return outcome


def build_universal_polynomial(
    req: RequirementSpec,
    f_on_L: TargetFunction,
    f_seq: IndexSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
    d_override: complex | None = None,
) -> tuple[Polynomial, Certificate]:
    """Construct ``u = P + d z^p`` certified against one requirement.

    Fits the glued target (outer target on K, inner target on L and J) with
    a degree ramp and hands each fit that clears half the requested bound to
    ``_certify`` until one passes; the last failure is raised when the ramp
    ends or reaches a fit with no index pair above it.  ``d_override``
    short-circuits the search and returns the certificate for that exact
    perturbation (possibly failing; a zero perturbation never passes).
    """
    grid_k = discretize(req.K)
    grid_l = discretize(req.L)
    grid_j = discretize(req.inner_compact())
    for name, spec, grid in (("L", req.L, grid_l), ("J", req.inner_compact(), grid_j)):
        overlap = spec_region_contains(req.K, grid.points).any()
        if overlap or spec_region_contains(spec, grid_k.points).any():
            raise ValueError(f"K and {name} overlap; the gluing step needs disjoint compacts")

    pieces = ((grid_k, req.target_on_K), (grid_l, f_on_L), (grid_j, f_on_L))
    z = np.concatenate([grid.points for grid, _ in pieces])
    values = np.concatenate([np.asarray(t.evaluate(grid.points, tol)) for grid, t in pieces])
    sup_k_abs = float(np.max(np.abs(grid_k.points)))
    ramp = _fit_ramp(
        z, values, range(2, RAMP_CAP + 1, 2), req.requested / 2.0,
        lambda fit: float(np.max(np.abs(fit.eval(z) - values))),
    )
    measurement = None  # prepared at the first fit that clears the target
    outcome = None
    for degree, fit, residual in ramp:
        if outcome is not None and fit.array_degree() >= f_seq.max_p:
            break  # no pair above this fit: report the failed search
        if measurement is None:
            measurement = _requirement_measurement(req, f_on_L, grid_l, grid_k, grid_j, tol)
        outcome = _certify(
            fit, fit.array_degree(), f_seq, measurement, req.s, sup_k_abs, degree,
            {"fit_residual": residual}, d_override,
        )
        if isinstance(outcome, tuple):
            return outcome
    try:
        raise outcome
    finally:
        del outcome  # the traceback holds this frame: keep the error out of it


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
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[tuple[complex, ...], Certificate]:
    """Extend a coefficient prefix so the extension approximates ``psi``.

    With ``n0`` the last prefix index, the extension has the shape
    ``h = prefix_poly + t(z) z^(n0+1) + d z^(p_k)``: the correction ``t`` is
    fitted against ``(psi - prefix_poly)/z^(n0+1)`` on K (which requires
    ``0`` off K) and taken from the first fit of its ramp that clears half
    the bound, the pair ``(p_k, q_k)`` comes from the index sequence with
    ``p_k`` above every occupied degree, and ``d != 0`` is shrunk until both
    the sup bound ``1/s`` on K and Hankel nonvanishing at 0 hold.  The
    fitted ``prefix_poly + t(z) z^(n0+1)`` goes through the same
    ``_certify`` as a build's fit, so a pair with ``q >= 2`` whose Hankel
    floor at 0 lies above its sup ceiling on K is refused unmeasured, and
    when every pair fails the last failure is raised, possibly that
    :class:`PerturbationRefusedError`.  Every term after the prefix sits
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
    if min_abs <= tol.tau_zero:
        raise OriginInKError(
            f"the compact set touches the origin (min |z| = {min_abs:.3e}); "
            f"division by z^(n0+1) is impossible there"
        )

    # the one-center case of a build: L = {0}, K only, no derivative levels,
    # and the labels reversed ("3" is the Taylor sup, "2" the Pade sup)
    requested = 1.0 / s
    measurement = _Measurement(
        np.zeros(1, dtype=complex), [(z, psi, "3", "2", "K")], 0, tol, requested
    )
    (psi_vals,) = measurement.target_vals[0]
    n0 = len(prefix) - 1
    base = Polynomial(prefix, 0.0)
    base_vals = base.eval(z)
    shifted = z ** (n0 + 1)
    divided = (psi_vals - base_vals) / shifted

    # weight by z^(n0+1): the quantity that must shrink is the composite
    # |psi - prefix - t z^(n0+1)|, not the divided residual
    fit_degree, correction, residual = next(_fit_ramp(
        z, divided, range(RAMP_CAP + 1), requested / 2.0,
        lambda t_poly: float(np.max(np.abs(psi_vals - base_vals - t_poly.eval(z) * shifted))),
        weight=shifted,
    ))

    # the correction up to its last nonzero term; "+ 0.0" writes its exact
    # zeros as +0.0, so no -0.0 reaches the records
    tail = np.trim_zeros(correction.coeffs, "b") + 0.0
    fitted = Polynomial(np.concatenate([base.coeffs, tail]), 0.0)
    sup_abs = float(np.max(np.abs(z)))
    outcome = _certify(
        fitted, len(fitted.coeffs) - 1, f_seq, measurement, s, sup_abs, fit_degree,
        {"fit_residual": residual},
    )
    if not isinstance(outcome, tuple):
        try:
            raise outcome
        finally:
            del outcome  # the traceback holds this frame: keep the error out of it
    u, cert = outcome
    # every term the search adds sits above n0: the prefix is checked once, on u
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
    tol: ToleranceConfig = DEFAULT_TOL,
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
                coeffs, requirement.K, requirement.psi, requirement.s, f_seq, tol
            )
        except Exception as exc:
            raise ScheduleStepError(step, exc) from exc
        certificates.append(cert)
    return coeffs, certificates
