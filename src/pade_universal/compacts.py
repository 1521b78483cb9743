"""Declarative compact sets, deterministic grids and compact families.

Compact sets are described by a small catalog of primitives (filled disks,
circles, segments, annulus sectors, explicit point sets) and realized as
finite grids by a deterministic sampler.  There is one point-set
representation: a :class:`Grid` holds its points as one read-only
complex128 array, sampled per primitive in array form (equal angles, equal
spacing, rings and polar meshes), and the membership and distance tests
take arrays of points and answer in one array pass.  Sups over compacts
are taken as maxima over the grids, by the verifier of :mod:`.construct`;
tolerance budgets elsewhere include a refinement margin for this
discretization.  Connected complements are guaranteed by the curated
catalog, not verified topologically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyResultError,
    EmptySpecError,
    UnsupportedDomainError,
)
from .series import _require_finite, complex_to_pair, float_from_json, int_from_json, pair_to_complex

TWO_PI = 2.0 * math.pi

DEFAULT_SAMPLES = 64

#: Slack of :func:`spec_region_contains`: a point this close to a region lies in it.
REGION_PAD = 1e-9


@dataclass(frozen=True)
class FilledDisk:
    center: complex
    radius: float

    def __post_init__(self):
        _require_finite(self.center, "center")
        if not 0 <= self.radius < math.inf:
            raise ValueError("radius must be nonnegative and finite")


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def __post_init__(self):
        _require_finite(self.center, "center")
        if not 0 <= self.radius < math.inf:
            raise ValueError("radius must be nonnegative and finite")


@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def __post_init__(self):
        _require_finite(self.a, "segment end")
        _require_finite(self.b, "segment end")


@dataclass(frozen=True)
class AnnulusSector:
    center: complex
    r_in: float
    r_out: float
    theta_a: float
    theta_b: float

    def __post_init__(self):
        _require_finite(self.center, "center")
        if not (0 <= self.r_in < math.inf and 0 <= self.r_out < math.inf):
            raise ValueError("radii must be nonnegative and finite")
        if self.r_in > self.r_out:
            raise ValueError("r_in must not exceed r_out")
        if not -math.inf < self.theta_a <= self.theta_b < math.inf:
            raise ValueError("the angles must be finite, and theta_b must not precede theta_a")


@dataclass(frozen=True)
class PointSet:
    points: tuple[complex, ...]

    def __init__(self, points: Sequence[complex]):
        object.__setattr__(self, "points", tuple(_require_finite(p, "point") for p in points))
        if not self.points:
            raise ValueError("point set must be non-empty")


Primitive = FilledDisk | Circle | Segment | AnnulusSector | PointSet


@dataclass(frozen=True)
class CompactSpec:
    """A finite union of primitives plus a sampling density."""

    primitives: tuple[Primitive, ...]
    samples_per_primitive: int = DEFAULT_SAMPLES

    def __init__(self, primitives: Sequence[Primitive], samples_per_primitive: int = DEFAULT_SAMPLES):
        object.__setattr__(self, "primitives", tuple(primitives))
        object.__setattr__(self, "samples_per_primitive", int_from_json(samples_per_primitive))
        if self.samples_per_primitive < 8:
            raise ValueError("samples_per_primitive must be at least 8")

    def to_json(self) -> dict:
        return {
            "primitives": [_primitive_to_json(p) for p in self.primitives],
            "samples_per_primitive": self.samples_per_primitive,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CompactSpec":
        if "primitives" in obj:
            prims = [_primitive_from_json(p) for p in obj["primitives"]]
            samples = obj.get("samples_per_primitive", obj.get("samples", DEFAULT_SAMPLES))
            return cls(prims, samples)
        # shorthand: a single primitive object with an optional sample count
        samples = obj.get("samples", DEFAULT_SAMPLES)
        return cls([_primitive_from_json(obj)], samples)


@dataclass(frozen=True, eq=False)
class Grid:
    """Finite sample of a compact set: ``points`` is a read-only 1-D
    complex128 array."""

    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def _primitive_to_json(p: Primitive) -> dict:
    if isinstance(p, FilledDisk):
        return {"kind": "filled_disk", "center": complex_to_pair(p.center), "radius": p.radius}
    if isinstance(p, Circle):
        return {"kind": "circle", "center": complex_to_pair(p.center), "radius": p.radius}
    if isinstance(p, Segment):
        return {"kind": "segment", "a": complex_to_pair(p.a), "b": complex_to_pair(p.b)}
    if isinstance(p, AnnulusSector):
        return {
            "kind": "annulus_sector",
            "center": complex_to_pair(p.center),
            "r_in": p.r_in,
            "r_out": p.r_out,
            "theta_a": p.theta_a,
            "theta_b": p.theta_b,
        }
    if isinstance(p, PointSet):
        return {"kind": "point_set", "points": [complex_to_pair(z) for z in p.points]}
    raise TypeError(f"unknown primitive {p!r}")


def _primitive_from_json(obj: dict) -> Primitive:
    kind = obj.get("kind")
    if kind == "filled_disk":
        return FilledDisk(pair_to_complex(obj["center"]), float_from_json(obj["radius"]))
    if kind == "circle":
        return Circle(pair_to_complex(obj["center"]), float_from_json(obj["radius"]))
    if kind == "segment":
        return Segment(pair_to_complex(obj["a"]), pair_to_complex(obj["b"]))
    if kind == "annulus_sector":
        return AnnulusSector(
            pair_to_complex(obj["center"]),
            float_from_json(obj["r_in"]),
            float_from_json(obj["r_out"]),
            float_from_json(obj["theta_a"]),
            float_from_json(obj["theta_b"]),
        )
    if kind == "point_set":
        return PointSet([pair_to_complex(z) for z in obj["points"]])
    raise ValueError(f"unknown primitive kind {kind!r}")


def _spaced(a, b, n: int) -> np.ndarray:
    """``n`` equally spaced values from ``a`` to ``b``, both ends included."""
    return a + (b - a) * (np.arange(n) / (n - 1))


def _ring(center: complex, radius, angles: np.ndarray) -> np.ndarray:
    """Points at ``angles`` on the circle (or, for an array of radii, on the
    concentric circles) about ``center``."""
    return center + radius * np.exp(1j * angles)


def _equal_angles(n: int, start: float = 0.0) -> np.ndarray:
    return start + TWO_PI * np.arange(n) / n


def _sample(p: Primitive, n: int) -> np.ndarray:
    """The grid of one primitive at ``n`` samples, as an array."""
    if isinstance(p, Circle):
        return _ring(p.center, p.radius, _equal_angles(n))
    if isinstance(p, Segment):
        return _spaced(p.a, p.b, n)
    if isinstance(p, FilledDisk):
        # center plus ring j of m at radius r j/m, with a share of the budget
        # proportional to j, so the boundary ring carries the most points
        if p.radius == 0:
            return np.array([p.center], dtype=complex)
        m = max(2, int(round(math.sqrt(n / 2.0))))
        weights = m * (m + 1) // 2
        budget = n - 1
        counts = np.maximum(1, (budget * np.arange(1, m + 1)) // weights)
        counts[-1] += budget - counts.sum()  # hand any remainder to the boundary ring
        # per point: its ring j, that ring's count and its index k on it, so one
        # _ring samples every ring, each angle as _equal_angles(cnt) computes it
        j, cnt = np.repeat(np.arange(1, m + 1), counts), np.repeat(counts, counts)
        k = np.arange(len(j)) - np.repeat(np.cumsum(counts) - counts, counts)
        rings = _ring(p.center, p.radius * j / m, 0.0 + TWO_PI * k / cnt)
        return np.concatenate([[p.center], rings])
    if isinstance(p, AnnulusSector):
        m_r = max(2, int(round(math.sqrt(n / 4.0))) + 1)
        per_ring = max(4, n // m_r)
        if (p.theta_b - p.theta_a) >= TWO_PI - 1e-12:
            angles = _equal_angles(per_ring, p.theta_a)
        else:
            angles = _spaced(p.theta_a, p.theta_b, per_ring)
        return _ring(p.center, _spaced(p.r_in, p.r_out, m_r)[:, None], angles).ravel()
    if isinstance(p, PointSet):
        return np.array(p.points, dtype=complex)
    raise TypeError(f"unknown primitive {p!r}")


def discretize(spec: CompactSpec) -> Grid:
    """Deterministic grid for a compact spec.

    Circles by equal angles, segments by equal spacing with endpoints,
    filled disks by concentric rings plus center, annulus sectors by a
    polar mesh.  No randomness anywhere, so grids are reproducible.
    """
    if not spec.primitives:
        raise EmptySpecError("compact spec has no primitives")
    n = spec.samples_per_primitive
    points = np.concatenate([_sample(p, n) for p in spec.primitives], dtype=complex)
    points.flags.writeable = False
    return Grid(points)


@dataclass(frozen=True)
class DomainSpec:
    """A simply connected planar domain from a small catalog.

    kinds: ``disk`` (center, radius), ``half_plane`` (unit normal, offset;
    the domain is ``Re(conj(normal) z) < offset``), ``disk_complement``
    (the unbounded exterior of a closed disk) and ``disk_union`` (a custom
    union of open disks, assumed connected by the caller).
    """

    kind: str
    center: complex = 0.0
    radius: float = 0.0
    normal: complex = 1.0
    offset: float = 0.0
    disks: tuple[tuple[complex, float], ...] = ()

    def __post_init__(self):
        if self.kind not in {"disk", "half_plane", "disk_complement", "disk_union"}:
            raise UnsupportedDomainError(f"unknown domain kind {self.kind!r}")
        for center in (self.center, *(c for c, _ in self.disks)):
            _require_finite(center, "domain center")
        if self.kind in {"disk", "disk_complement"} and not 0 < self.radius < math.inf:
            raise ValueError("domain radius must be positive and finite")
        if self.kind == "half_plane" and not (
            0 < abs(self.normal) < math.inf and math.isfinite(self.offset)
        ):
            raise ValueError("half-plane normal must be nonzero and finite, and its offset finite")
        if self.kind == "disk_union" and not self.disks:
            raise ValueError("disk_union needs at least one disk")
        if not all(0 < r < math.inf for _, r in self.disks):
            raise ValueError("disk radii must be positive and finite")

    def unit_normal(self) -> complex:
        return self.normal / abs(self.normal)

    def distance_from(self, z) -> np.ndarray:
        """Distance from each point of ``z`` to the closure of the domain
        (0 inside)."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "disk":
            return np.maximum(0.0, _abs(z - self.center) - self.radius)
        if self.kind == "half_plane":
            return np.maximum(0.0, (np.conj(self.unit_normal()) * z).real - self.offset)
        if self.kind == "disk_complement":
            return np.maximum(0.0, self.radius - _abs(z - self.center))
        return np.min([np.maximum(0.0, _abs(z - c) - r) for c, r in self.disks], axis=0)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind in {"disk", "disk_complement"}:
            out["center"] = complex_to_pair(self.center)
            out["radius"] = self.radius
        elif self.kind == "half_plane":
            out["normal"] = complex_to_pair(self.normal)
            out["offset"] = self.offset
        else:
            out["disks"] = [
                {"center": complex_to_pair(c), "radius": r} for c, r in self.disks
            ]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "DomainSpec":
        kind = obj["kind"]
        if kind in {"disk", "disk_complement"}:
            center, radius = pair_to_complex(obj["center"]), float_from_json(obj["radius"])
            return cls(kind=kind, center=center, radius=radius)
        if kind == "half_plane":
            normal, offset = pair_to_complex(obj["normal"]), float_from_json(obj["offset"])
            return cls(kind=kind, normal=normal, offset=offset)
        if kind == "disk_union":
            disks = tuple(
                (pair_to_complex(d["center"]), float_from_json(d["radius"])) for d in obj["disks"]
            )
            return cls(kind=kind, disks=disks)
        raise UnsupportedDomainError(f"unknown domain kind {kind!r}")


def _inscribed_half_plane_disk(u: complex, bound: float, k: float) -> FilledDisk:
    """Largest disk inside ``{Re(conj(u) z) <= bound} ∩ {|z| <= k}``; raises
    :class:`EmptyResultError` unless its radius is positive."""
    if bound <= -k:
        raise EmptyResultError("half-plane slab does not meet the radius-k ball")
    rho = min((bound + k) / 2.0, k)
    center = u * (bound - k) / 2.0 if bound < k else 0.0
    return FilledDisk(center, rho)


def exhausting_family(
    domain: DomainSpec,
    k: int,
    mode: str = "interior",
    samples: int = DEFAULT_SAMPLES,
) -> CompactSpec:
    """k-th member of an increasing compact family filling the domain.

    ``interior`` mode keeps distance ``1/k`` from the boundary and radius
    ``k`` from the origin (members are compact subsets of the open domain);
    ``boundary`` mode intersects the closure with the closed radius-``k``
    ball.  Members are monotone in ``k`` by construction.
    """
    if k < 1:
        raise ValueError("family index k must be >= 1")
    if mode not in {"interior", "boundary"}:
        raise ValueError(f"unknown mode {mode!r}")
    shrink = 1.0 / k if mode == "interior" else 0.0

    if domain.kind == "disk":
        rho = domain.radius - shrink
        cap = k - abs(domain.center)
        radius = min(rho, cap) if mode == "interior" else min(domain.radius, cap)
        if radius <= 0:
            raise EmptyResultError(f"family member {k} is empty for this disk")
        return CompactSpec([FilledDisk(domain.center, radius)], samples)

    if domain.kind == "half_plane":
        disk = _inscribed_half_plane_disk(domain.unit_normal(), domain.offset - shrink, float(k))
        return CompactSpec([disk], samples)

    if domain.kind == "disk_complement":
        inner = domain.radius + shrink
        outer = k - abs(domain.center)
        if outer <= inner:
            raise EmptyResultError(f"family member {k} is empty for this exterior domain")
        return CompactSpec(
            [AnnulusSector(domain.center, inner, outer, 0.0, TWO_PI)], samples
        )

    disks = []  # a disk_union, the one kind left
    for c, r in domain.disks:
        radius = min(r - shrink if mode == "interior" else r, k - abs(c))
        if radius > 0:
            disks.append(FilledDisk(c, radius))
    if not disks:
        raise EmptyResultError(f"family member {k} is empty for this union")
    return CompactSpec(disks, samples)


def outer_family(
    domain: DomainSpec,
    m: int,
    mode: str = "off-closure",
    samples: int = DEFAULT_SAMPLES,
) -> CompactSpec:
    """m-th member of a growing family of compacts outside the domain.

    ``off-closure`` keeps distance at least ``1/m`` from the domain;
    ``off-domain`` may touch the boundary.  Placement is a documented preset
    per domain kind (a real-axis segment for bounded domains) and members
    are nested in ``m``.  All members have connected complements by
    construction.
    """
    if m < 1:
        raise ValueError("family index m must be >= 1")
    if mode not in {"off-closure", "off-domain"}:
        raise ValueError(f"unknown mode {mode!r}")
    gap = 1.0 / m if mode == "off-closure" else 0.0

    if domain.kind == "disk":
        start = domain.center + domain.radius + gap
        return CompactSpec([Segment(start, start + m)], samples)

    if domain.kind == "half_plane":
        u = domain.unit_normal()
        start = u * (domain.offset + gap)
        return CompactSpec([Segment(start, start + u * m)], samples)

    if domain.kind == "disk_complement":
        radius = domain.radius - gap
        if radius <= 0:
            raise EmptyResultError(
                f"no compact at distance 1/{m} inside the complementary disk"
            )
        return CompactSpec([FilledDisk(domain.center, radius)], samples)

    reach = max(c.real + r for c, r in domain.disks)  # a disk_union, the one kind left
    start = complex(reach + gap, 0.0)
    return CompactSpec([Segment(start, start + m)], samples)


def _abs(z: np.ndarray) -> np.ndarray:
    """``|z|`` rounded as Python's ``abs`` of a complex rounds it (numpy's
    complex ``abs`` can differ in the last place)."""
    return np.hypot(z.real, z.imag)


def spec_region_contains(spec: CompactSpec, z) -> np.ndarray:
    """Whether each point of ``z`` lies in the region described by ``spec``.

    Membership is primitive-wise with a ``REGION_PAD`` slack; used by
    overlap and monotonicity checks, not by numerical kernels.  Angles of partial
    annulus sectors come from ``np.arctan2``, which may differ from
    ``math.atan2`` in the last place: only a point within an ulp of
    ``theta +- REGION_PAD`` can tell.
    """
    z = np.asarray(z, dtype=complex)
    inside = np.zeros(z.shape, dtype=bool)
    for p in spec.primitives:
        if isinstance(p, FilledDisk):
            inside |= _abs(z - p.center) <= p.radius + REGION_PAD
        elif isinstance(p, Circle):
            inside |= np.abs(_abs(z - p.center) - p.radius) <= REGION_PAD
        elif isinstance(p, Segment):
            d = p.b - p.a
            t = ((z - p.a) * np.conj(d)).real / abs(d) ** 2 if abs(d) else 0.0
            inside |= _abs(z - (p.a + np.clip(t, 0.0, 1.0) * d)) <= REGION_PAD
        elif isinstance(p, AnnulusSector):
            w = z - p.center
            r = _abs(w)
            ring = (p.r_in - REGION_PAD <= r) & (r <= p.r_out + REGION_PAD)
            if (p.theta_b - p.theta_a) < TWO_PI - 1e-12:
                ang = np.arctan2(w.imag, w.real)
                ang = np.stack([ang - TWO_PI, ang, ang + TWO_PI])
                arc = (p.theta_a - REGION_PAD <= ang) & (ang <= p.theta_b + REGION_PAD)
                ring &= arc.any(axis=0)
            inside |= ring
        elif isinstance(p, PointSet):
            for w in p.points:
                inside |= _abs(z - w) <= REGION_PAD
    return inside
