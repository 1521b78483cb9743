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

The measurement is the sup over the product grid L x (K u J) at every
derivative level.  ``_measure_conclusions`` takes the centers of L in
blocks and measures each block with the array kernels of :mod:`.series`
and :mod:`.pade` (stacked recentering, Hankel test, denominator solve and
Horner evaluation) instead of one scalar approximant per center.
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
    PoleProximityError,
    ScheduleStepError,
)
from .pade import (
    HankelReport,
    derivative_numerators,
    hankel_determinant,
    hankel_test,
    pade_approximant,
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

#: (center, point) pairs the verifier evaluates per block of centers: large
#: enough that array passes amortize their overhead, small enough that the
#: stacked evaluations stay a few hundred KiB.
_BLOCK_PAIRS = 8192


@dataclass(frozen=True)
class IndexSequence:
    """Ordered finite prefix of the admissible ``(p, q)`` index pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Sequence[Sequence[int]]):
        norm = tuple((int(p), int(q)) for p, q in pairs)
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
    for pair in candidate_indices(f_seq, min_degree, limit=1):
        return pair
    raise IndexExhaustedError(min_degree, f_seq.max_p)  # pragma: no cover


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
            bz = np.asarray(self.denom.eval(z))
            scale = float(np.max(np.abs(self.denom.coeffs)))
            bad = np.abs(bz) <= tol.tau_zero * scale
            if np.any(bad):
                zz = np.atleast_1d(np.asarray(z))
                idx = int(np.argmax(np.atleast_1d(bad)))
                raise PoleProximityError(complex(zz.ravel()[idx]), float(np.atleast_1d(np.abs(bz)).ravel()[idx]))
            out = np.asarray(self.numer.eval(z)) / bz
            return complex(out) if np.ndim(z) == 0 else out
        if self.kind == "table":
            zz = np.atleast_1d(np.asarray(z, dtype=complex))
            pts = np.array(self.points, dtype=complex)
            vals = np.array(self.values, dtype=complex)
            out = np.empty(zz.shape, dtype=complex)
            for i, point in enumerate(zz):
                dist = np.abs(pts - point)
                j = int(np.argmin(dist))
                if dist[j] > 1e-9:
                    raise ValueError(f"table target has no value at z = {point}")
                out[i] = vals[j]
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


@dataclass(frozen=True)
class TargetPair:
    """A grid together with the values a fit must attain on it."""

    grid: Grid
    values: tuple[complex, ...]

    def __init__(self, grid: Grid, values: Sequence[complex]):
        vals = tuple(complex(v) for v in values)
        if len(vals) != len(grid.points):
            raise ValueError("grid and value list lengths differ")
        for v in vals:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("target values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)


def _arnoldi_basis(z: np.ndarray, degree: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Orthonormal polynomial ladder on the points, with monomial images.

    Gram-Schmidt on ``1, z*q_0, z*q_1, ...`` with a reorthogonalization
    pass; every subtraction applied to the sampled vectors is mirrored on
    the monomial coefficient columns, so ``Q[:, k] == poly(C[k]) (z)`` up
    to rounding.
    """
    m = len(z)
    q_mat = np.empty((m, degree + 1), dtype=complex)
    q_mat[:, 0] = 1.0
    coeff_cols: list[np.ndarray] = [np.array([1.0 + 0j])]
    z_scale = max(1.0, float(np.max(np.abs(z))))
    for k in range(degree):
        v = z * q_mat[:, k]
        c_new = np.concatenate([[0j], coeff_cols[k]])
        for _ in range(2):
            for j in range(k + 1):
                h = complex(np.vdot(q_mat[:, j], v) / m)
                v = v - h * q_mat[:, j]
                c_new[: len(coeff_cols[j])] -= h * coeff_cols[j]
        h_next = float(np.linalg.norm(v) / math.sqrt(m))
        if h_next <= 1e-13 * z_scale:
            raise IllConditionedError(
                f"orthogonal basis collapsed at degree {k + 1}; the grid "
                f"cannot support this fit degree"
            )
        q_mat[:, k + 1] = v / h_next
        coeff_cols.append(c_new / h_next)
    return q_mat, coeff_cols


def _fit_on_points(
    z: np.ndarray,
    values: np.ndarray,
    degree: int,
    weight: np.ndarray | None = None,
    cond_limit: float = 1e12,
) -> Polynomial:
    """Monomial-coefficient LS fit; optionally weighted per point."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    m = len(z)
    if m < degree + 1:
        raise ValueError(f"{m} sample points cannot determine degree {degree}")
    q_mat, coeff_cols = _arnoldi_basis(z, degree)
    if weight is not None:
        system = q_mat * weight[:, None]
        rhs = values * weight
    else:
        system = q_mat
        rhs = values
    singular = np.linalg.svd(system, compute_uv=False)
    if singular[-1] == 0 or singular[0] / singular[-1] > cond_limit:
        raise IllConditionedError("orthogonalized system condition estimate exceeds limit")
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    coeffs = np.zeros(degree + 1, dtype=complex)
    for k, w in enumerate(solution):
        coeffs[: len(coeff_cols[k])] += w * coeff_cols[k]
    return Polynomial(coeffs, 0.0)


def poly_fit(
    targets: Sequence[TargetPair],
    degree: int,
    cond_limit: float = 1e12,
) -> tuple[Polynomial, list[float]]:
    """Least-squares polynomial fit over the union of the target grids.

    Orthogonalizes the monomial ladder on the combined grid (Arnoldi-style
    Gram-Schmidt on ``1, z*q_0, z*q_1, ...``) so the normal equations stay
    well conditioned, then converts the fitted combination back to monomial
    coefficients about 0.  Returns the polynomial and the honest per-target
    sup residual measured from the returned coefficients.
    """
    z = np.concatenate([t.grid.as_array() for t in targets])
    f = np.concatenate([np.array(t.values, dtype=complex) for t in targets])
    fit = _fit_on_points(z, f, degree, cond_limit=cond_limit)
    residuals = [
        float(np.max(np.abs(fit.eval(t.grid.as_array()) - np.array(t.values, dtype=complex))))
        for t in targets
    ]
    return fit, residuals


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
            s=int(obj["s"]),
            derivative_levels=int(obj.get("derivative_levels", 0)),
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
            selected=(int(obj["selected"][0]), int(obj["selected"][1])),
            perturbation=pair_to_complex(obj["perturbation"]),
            fit_degree=int(obj["fit_degree"]),
            achieved={k: float(v) for k, v in obj["achieved"].items()},
            requested=float(obj["requested"]),
            hankel_min=float(obj["hankel_min"]),
            passed=bool(obj["passed"]),
            diagnostics=dict(obj.get("diagnostics", {})),
        )


def _measure_conclusions(
    u: Polynomial,
    p: int,
    q: int,
    grid_l: Grid,
    grid_k: Grid,
    grid_j: Grid,
    target_k: TargetFunction,
    target_j: TargetFunction,
    levels: int,
    tol: ToleranceConfig,
    strict: bool,
) -> dict:
    """Measure every certified quantity on the grids.

    Returns raw measurements; certificate assembly and pass/fail logic live
    with the callers.  With ``strict`` a vanishing Hankel determinant at any
    center raises; otherwise it is reported so a perturbation search can
    react.

    The centers of L are measured in blocks of ``_BLOCK_PAIRS // |K u J|``,
    each block in array passes: one stacked Horner shift recenters ``u``,
    one stacked determinant tests the Hankel windows, one stacked solve
    builds the denominators, and one Horner per derivative level evaluates
    the Taylor partial sums and the approximants on ``K u J``.  Running
    maxima carry the sups across blocks.  Errors are those of the
    center-by-center order: the first failing center in grid order, and
    at it the first point of K, then of J.
    """
    zk = grid_k.as_array()
    zj = grid_j.as_array()
    zkj = np.concatenate([zk, zj])
    nk = len(zk)
    # per level: the values of u^(l) on K u J, and the target derivatives on
    # K and on J (None where a target has no derivative)
    u_vals_kj = [u.derivative(l).eval(zkj) for l in range(levels + 1)]
    targets = [(target_k, zk), (target_j, zj)]
    target_vals = [[np.asarray(t.evaluate(z, tol)) for t, z in targets]]
    for l in range(1, levels + 1):
        derived = [(t.derivative(l), z) for t, z in targets]
        target_vals.append(
            [None if t is None else np.asarray(t.evaluate(z, tol)) for t, z in derived]
        )

    sups = {"2": 0.0, "3": 0.0, "4": 0.0, "5": 0.0}
    sups.update({f"id_taylor_l{l}": 0.0 for l in range(levels + 1)})
    sups.update({f"id_pade_l{l}": 0.0 for l in range(levels + 1)})
    diag_targets: dict[str, float] = {}

    def bump(table: dict, key: str, deviation: np.ndarray) -> None:
        table[key] = max(table.get(key, 0.0), float(np.max(np.abs(deviation))))

    def record(kind: str, level: int, values: np.ndarray) -> None:
        bump(sups, f"id_{kind}_l{level}", values - u_vals_kj[level])
        on_k, on_j = target_vals[level]
        if level == 0:
            k_key, j_key = ("2", "4") if kind == "taylor" else ("3", "5")
            bump(sups, k_key, values[:, :nk] - on_k)
            bump(sups, j_key, values[:, nk:] - on_j)
            return
        if on_k is not None:
            bump(diag_targets, f"K_{kind}_d{level}", values[:, :nk] - on_k)
        if on_j is not None:
            bump(diag_targets, f"J_{kind}_d{level}", values[:, nk:] - on_j)

    coeffs = u.coeffs
    if len(coeffs) > p + q + 1:
        raise ValueError("length must not truncate stored coefficients")
    centers = np.array(grid_l.points, dtype=complex)
    block = max(1, _BLOCK_PAIRS // len(zkj))
    hankel_min = math.inf
    hankel_tau_max = 0.0
    pade_everywhere = True
    for start in range(0, len(centers), block):
        zeta = centers[start : start + block]
        series = np.zeros((len(zeta), p + q + 1), dtype=complex)
        series[:, : len(coeffs)] = recentered_coefficients(coeffs, u.center, zeta)
        values, scales, thresholds, exists = hankel_test(series, p, q, tol)
        hankel_min = min(hankel_min, float(np.min(np.hypot(values.real, values.imag))))
        hankel_tau_max = max(hankel_tau_max, float(np.max(thresholds)))
        w = zkj - zeta[:, None]

        partial = series[:, : p + 1]
        for l in range(levels + 1):
            record("taylor", l, horner(partial, w))
            partial = differentiate(partial)

        failed = np.flatnonzero(~exists)
        pade_everywhere = pade_everywhere and not len(failed)
        rows = np.flatnonzero(exists)
        if strict and len(failed):
            rows = rows[rows < failed[0]]  # only these can raise before it
        if len(rows):
            sub, w_rows = series[rows], w[rows]
            denom = pade_denominators(sub, p, q)
            bz = horner(denom, w_rows)
            poles = np.abs(bz) <= tol.tau_zero
            hit = np.flatnonzero(poles.any(axis=1))
            if len(hit):
                col = int(np.argmax(poles[hit[0]]))
                raise PoleProximityError(zkj[col], float(np.abs(bz[hit[0], col])))
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
        for key in ["3", "5"] + [f"id_pade_l{l}" for l in range(levels + 1)]:
            achieved.pop(key)

    diagnostics = dict(diag_targets)
    diagnostics["hankel_tau_max"] = hankel_tau_max
    for l in range(levels + 1):
        diagnostics[f"sup_u_d{l}"] = float(np.max(np.abs(u_vals_kj[l])))

    return {
        "achieved": achieved,
        "hankel_min": 0.0 if math.isinf(hankel_min) else float(hankel_min),
        "hankel_ok": pade_everywhere,
        "diagnostics": diagnostics,
    }


def _assemble_certificate(
    measurement: dict,
    selected: tuple[int, int],
    perturbation: complex,
    fit_degree: int,
    requested: float,
) -> Certificate:
    achieved = measurement["achieved"]
    hankel_ok = measurement["hankel_ok"]
    sup_ok = all(v < requested for v in achieved.values())
    complete = "3" in achieved and "5" in achieved
    passed = bool(sup_ok and complete and hankel_ok and perturbation != 0)
    return Certificate(
        selected=selected,
        perturbation=perturbation,
        fit_degree=fit_degree,
        achieved=achieved,
        requested=requested,
        hankel_min=measurement["hankel_min"],
        passed=passed,
        diagnostics=measurement["diagnostics"],
    )


def verify_construction(
    u: Polynomial,
    req: RequirementSpec,
    pq: tuple[int, int],
    f_on_L: TargetFunction,
    j_compact: CompactSpec | None = None,
    derivative_levels: int | None = None,
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
    levels = req.derivative_levels if derivative_levels is None else derivative_levels
    grid_l = discretize(req.L)
    grid_k = discretize(req.K)
    grid_j = discretize(j_compact if j_compact is not None else req.inner_compact())
    if perturbation is None:
        perturbation = complex(u.coeffs[p]) if len(u.coeffs) > p else 0j
    measurement = _measure_conclusions(
        u, p, q, grid_l, grid_k, grid_j, req.target_on_K, f_on_L, levels, tol, strict=True
    )
    return _assemble_certificate(measurement, (p, q), perturbation, fit_degree, req.requested)


def _ramp_degrees(cap: int = RAMP_CAP):
    return range(2, cap + 1, 2)


def _search_perturbation(measure, d0: float, requested: float):
    """Find ``|d|`` whose certificate passes, moving geometrically.

    ``measure(d)`` returns the certificate for ``d`` and whether the Hankel
    test held.  A sup-bound violation sends the search down, a Hankel
    violation sends it up; once both walls are known it bisects in log
    scale.  Returns the passing certificate or raises with the established
    window.
    """
    lo = 0.0  # largest magnitude known to fail the Hankel floor
    hi = math.inf  # smallest magnitude known to break a sup bound
    d = d0
    last = None
    for attempt in range(1, PERTURBATION_ATTEMPTS + 1):
        cert, hankel_ok = measure(d)
        last = cert
        if cert.passed:
            cert.diagnostics["d_window_lo"] = lo
            cert.diagnostics["d_window_hi"] = hi if math.isfinite(hi) else 0.0
            cert.diagnostics["d_attempts"] = attempt
            return cert
        gated_ok = all(v < requested for v in cert.achieved.values())
        if not hankel_ok and gated_ok:
            lo = max(lo, d)
            d = math.sqrt(lo * hi) if math.isfinite(hi) else d * 2.0
        elif hankel_ok and not gated_ok:
            hi = min(hi, d)
            d = math.sqrt(lo * hi) if lo > 0.0 else d / 2.0
        else:
            break
        if math.isfinite(hi) and lo > 0.0 and hi / lo < 1.0 + 1e-9:
            break
    raise PerturbationFailedError(lo, hi if math.isfinite(hi) else 0.0, attempt)


def _certify(candidates, measure, s: int, sup_abs: float, d_override) -> Certificate:
    """First passing certificate over the index pairs ``candidates``.

    ``measure(d, p, q)`` returns the certificate for ``d`` at ``(p, q)`` and
    whether the Hankel test held.  Each pair's search starts from
    ``d0 = 1 / (2 s sup_abs^p)``.  With ``d_override`` the first pair is
    measured at that value, passing or not.  Re-raises the last
    :class:`PerturbationFailedError` when no pair passes.
    """
    last_error: PerturbationFailedError | None = None
    for p, q in candidates:
        if d_override is not None:
            return measure(d_override, p, q)[0]
        d0 = 1.0 / (2.0 * s * sup_abs**p)
        try:
            return _search_perturbation(lambda d: measure(d, p, q), d0, 1.0 / s)
        except PerturbationFailedError as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


def build_universal_polynomial(
    req: RequirementSpec,
    f_on_L: TargetFunction,
    f_seq: IndexSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
    d_override: complex | None = None,
) -> tuple[Polynomial, Certificate]:
    """Construct ``u = P + d z^p`` certified against one requirement.

    Fits the glued target (outer target on K, inner target on L and J) with
    a degree ramp until the residual clears half the requested bound, then
    walks admissible index pairs and perturbation magnitudes until the full
    certificate passes.  ``d_override`` short-circuits the search and
    returns the certificate for that exact perturbation (possibly failing;
    a zero perturbation never passes).
    """
    grid_k = discretize(req.K)
    grid_l = discretize(req.L)
    grid_j = discretize(req.inner_compact())
    for name, spec, grid in (("L", req.L, grid_l), ("J", req.inner_compact(), grid_j)):
        overlap = any(spec_region_contains(req.K, z) for z in grid.points) or any(
            spec_region_contains(spec, z) for z in grid_k.points
        )
        if overlap:
            raise ValueError(
                f"K and {name} overlap; the gluing step needs disjoint compacts"
            )

    targets = [
        TargetPair(grid_k, np.asarray(req.target_on_K.evaluate(grid_k.as_array(), tol))),
        TargetPair(grid_l, np.asarray(f_on_L.evaluate(grid_l.as_array(), tol))),
        TargetPair(grid_j, np.asarray(f_on_L.evaluate(grid_j.as_array(), tol))),
    ]
    requested = req.requested
    fit_target = requested / 2.0
    sup_k_abs = float(np.max(np.abs(grid_k.as_array())))

    best_residual = math.inf
    fit_reached = False
    last_perturbation_error: PerturbationFailedError | None = None

    for degree in _ramp_degrees():
        if degree + 1 > len(grid_k) + len(grid_l) + len(grid_j):
            break
        try:
            fit, residuals = poly_fit(targets, degree)
        except IllConditionedError:
            break
        residual = max(residuals)
        best_residual = min(best_residual, residual)
        if residual >= fit_target:
            continue
        fit_reached = True

        def measure(d: complex, p: int, q: int) -> tuple[Certificate, bool]:
            u = fit.plus_monomial(d, p)
            m = _measure_conclusions(
                u, p, q, grid_l, grid_k, grid_j,
                req.target_on_K, f_on_L, req.derivative_levels, tol, strict=False,
            )
            cert = _assemble_certificate(m, (p, q), d, degree, requested)
            cert.diagnostics["fit_residual"] = residual
            return cert, m["hankel_ok"]

        candidates = candidate_indices(f_seq, fit.array_degree(), limit=INDEX_RETRY_LIMIT)
        try:
            cert = _certify(candidates, measure, req.s, sup_k_abs, d_override)
        except PerturbationFailedError as exc:
            last_perturbation_error = exc
            continue
        return fit.plus_monomial(cert.perturbation, cert.selected[0]), cert

    if not fit_reached:
        raise FitFailedError(fit_target, best_residual, RAMP_CAP)
    assert last_perturbation_error is not None
    raise last_perturbation_error


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
            s=int(obj["s"]),
        )


def extend_prefix(
    prefix: Sequence[complex],
    k_compact: CompactSpec,
    psi: TargetFunction,
    s: int,
    f_seq: IndexSequence,
    tol: ToleranceConfig = DEFAULT_TOL,
    d_override: complex | None = None,
) -> tuple[tuple[complex, ...], Certificate]:
    """Extend a coefficient prefix so the extension approximates ``psi``.

    With ``n0`` the last prefix index, the extension has the shape
    ``h = prefix_poly + t(z) z^(n0+1) + d z^(p_k)``: the correction ``t`` is
    fitted against ``(psi - prefix_poly)/z^(n0+1)`` on K (which requires
    ``0`` off K), the pair ``(p_k, q_k)`` comes from the index sequence with
    ``p_k`` above every occupied degree, and ``d != 0`` is shrunk until both
    the sup bound ``1/s`` on K and Hankel nonvanishing at 0 hold.  The
    prefix survives verbatim, so the extension stays within ``2^-n0`` of the
    input in the disagreement metric.
    """
    if s < 1:
        raise ValueError("precision parameter s must be >= 1")
    prefix = tuple(complex(c) for c in prefix)
    if not prefix:
        raise ValueError("prefix must be non-empty")
    grid_k = discretize(k_compact)
    z = grid_k.as_array()
    min_abs = float(np.min(np.abs(z)))
    if min_abs <= tol.tau_zero:
        raise OriginInKError(
            f"the compact set touches the origin (min |z| = {min_abs:.3e}); "
            f"division by z^(n0+1) is impossible there"
        )

    n0 = len(prefix) - 1
    base = Polynomial(prefix, 0.0)
    psi_vals = np.asarray(psi.evaluate(z, tol))
    base_vals = base.eval(z)
    shifted = z ** (n0 + 1)
    divided = (psi_vals - base_vals) / shifted

    requested = 1.0 / s
    fit_target = requested / 2.0
    best = math.inf
    correction = None
    fit_degree = -1
    for degree in range(0, RAMP_CAP + 1):
        if degree + 1 > len(z):
            break
        try:
            # weight by z^(n0+1): the quantity that must shrink is the
            # composite |psi - prefix - t z^(n0+1)|, not the divided residual
            t_poly = _fit_on_points(z, divided, degree, weight=shifted)
        except IllConditionedError:
            break
        composite = float(np.max(np.abs(psi_vals - base_vals - t_poly.eval(z) * shifted)))
        best = min(best, composite)
        if composite < fit_target:
            correction = t_poly
            fit_degree = degree
            break
    if correction is None:
        raise FitFailedError(fit_target, best, RAMP_CAP)

    t_degree = correction.array_degree()
    occupied = t_degree + n0 + 1 if t_degree != float("-inf") else float("-inf")
    min_degree = max(occupied, n0)
    sup_abs = float(np.max(np.abs(z)))

    def extension_coeffs(p_k: int, d: complex) -> list[complex]:
        coeffs = list(prefix) + [0j] * (p_k + 1 - len(prefix))
        for i, c in enumerate(correction.coeffs.tolist()):
            if c != 0:
                coeffs[n0 + 1 + i] += c
        coeffs[p_k] += d
        return coeffs

    def measure(d: complex, p_k: int, q_k: int) -> tuple[Certificate, bool]:
        coeffs = extension_coeffs(p_k, d)
        h_poly = Polynomial(coeffs, 0.0)
        series = h_poly.to_series(p_k + q_k + 1)
        report = hankel_determinant(series, p_k, q_k, tol)
        h_vals = h_poly.eval(z)
        sup_taylor = float(np.max(np.abs(h_vals - psi_vals)))
        achieved = {"3": sup_taylor}
        if report.nonvanishing:
            approximant = pade_approximant(series, p_k, q_k, tol)
            achieved["2"] = float(np.max(np.abs(approximant.eval(z, tol) - psi_vals)))
        prefix_metric = disagreement_metric(
            list(prefix) + [0j] * (len(coeffs) - len(prefix)), coeffs
        )
        sup_ok = all(v < requested for v in achieved.values())
        passed = bool(
            sup_ok
            and "2" in achieved
            and report.nonvanishing
            and d != 0
            and prefix_metric < 0.5**n0
        )
        cert = Certificate(
            selected=(p_k, q_k),
            perturbation=d,
            fit_degree=fit_degree,
            achieved=achieved,
            requested=requested,
            hankel_min=abs(report.value),
            passed=passed,
            diagnostics={
                "prefix_metric": prefix_metric,
                "prefix_length": float(len(prefix)),
                "hankel_tau_max": report.threshold,
                "fit_residual": best,
            },
        )
        return cert, report.nonvanishing

    candidates = candidate_indices(f_seq, min_degree, limit=INDEX_RETRY_LIMIT)
    cert = _certify(candidates, measure, s, sup_abs, d_override)
    return tuple(extension_coeffs(cert.selected[0], cert.perturbation)), cert


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
