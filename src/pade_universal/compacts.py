"""Declarative compact sets, deterministic grids and compact families.

Compact sets are described by a small catalog of primitives (filled disks,
circles, segments, annulus sectors, explicit point sets) and realized as
finite grids by a deterministic sampler.  There is one point-set
representation: a :class:`Grid` holds its points as one read-only
complex128 array, sampled per primitive in array form (equal angles, equal
spacing, rings and polar meshes), and the domain distance takes arrays of
points and answers in one array pass.  Whether two compacts meet is decided
in closed form from their primitives, with no grid.  Sups over compacts
are taken as maxima over the grids, by the verifier of :mod:`.construct`;
tolerance budgets elsewhere include a refinement margin for this
discretization.  Connected complements are guaranteed by the curated
catalog, not verified topologically.
"""

from __future__ import annotations

import cmath
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

#: Slack of :func:`compacts_meet`: compacts this close to each other meet.
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
        if not self.primitives:
            raise EmptySpecError("compact spec has no primitives")

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
        if _sector_angles(p) is None:
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


def _in_angles(w: complex, theta_a: float, theta_b: float) -> bool:
    """Whether the angle of ``w`` lies in ``[theta_a, theta_b]``, with the
    ``REGION_PAD`` slack, read as ``atan2`` gives it or wrapped by ``+-2 pi``."""
    ang = math.atan2(w.imag, w.real)
    return any(
        theta_a - REGION_PAD <= ang + shift <= theta_b + REGION_PAD
        for shift in (-TWO_PI, 0.0, TWO_PI)
    )


def _sector_angles(p: AnnulusSector):
    """``(theta_a, theta_b)`` of a partial sector, ``None`` of a full one."""
    return None if (p.theta_b - p.theta_a) >= TWO_PI - 1e-12 else (p.theta_a, p.theta_b)


def _on_arc(w: complex, angles) -> bool:
    """Whether ``w``, taken from the arc's center, points into the arc (``angles`` is
    ``None`` for a full circle)."""
    return angles is None or _in_angles(w, *angles)


def _arc_ends(c: complex, r: float, angles) -> tuple[complex, ...]:
    return () if angles is None else tuple(c + r * cmath.exp(1j * t) for t in angles)


def _point_segment(z: complex, a: complex, b: complex) -> float:
    """Distance from ``z`` to the segment ``[a, b]``: the clamped projection."""
    d = b - a
    t = ((z - a) * d.conjugate()).real / abs(d) ** 2
    return abs(z - (a + min(1.0, max(0.0, t)) * d))


def _point_arc(z: complex, c: complex, r: float, angles) -> float:
    """Distance from ``z`` to an arc: the radial gap where ``z`` points into the
    arc, else the nearer end."""
    if _on_arc(z - c, angles):
        return abs(abs(z - c) - r)
    return min(abs(z - e) for e in _arc_ends(c, r, angles))


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def _segment_segment(a: complex, b: complex, c: complex, d: complex) -> float:
    """0 where the segments cross, else the nearest of their four ends to the other."""
    ab, cd = b - a, d - c
    if _cross(ab, c - a) * _cross(ab, d - a) < 0 and _cross(cd, a - c) * _cross(cd, b - c) < 0:
        return 0.0
    return min(
        _point_segment(a, c, d), _point_segment(b, c, d),
        _point_segment(c, a, b), _point_segment(d, a, b),
    )


def _segment_arc(a: complex, b: complex, c: complex, r: float, angles) -> float:
    """0 where the segment meets the arc's circle inside the arc; else the least of
    its ends to the arc, the arc's ends to it, and the foot of the perpendicular
    from ``c`` on it (where the two can be closest inside both) to the arc."""
    d, w = b - a, a - c
    norm, half = abs(d) ** 2, (w * d.conjugate()).real
    disc = half * half - norm * (abs(w) ** 2 - r * r)  # |w + t d| = r as a quadratic in t
    if disc >= 0:
        for t in ((-half - math.sqrt(disc)) / norm, (-half + math.sqrt(disc)) / norm):
            if 0.0 <= t <= 1.0 and _on_arc(w + t * d, angles):
                return 0.0
    near = [_point_arc(a, c, r, angles), _point_arc(b, c, r, angles)]
    near += [_point_segment(e, a, b) for e in _arc_ends(c, r, angles)]
    if 0.0 <= (foot := -half / norm) <= 1.0:
        near.append(_point_arc(a + foot * d, c, r, angles))
    return min(near)


def _arc_arc(c1: complex, r1: float, angles1, c2: complex, r2: float, angles2) -> float:
    """0 at a crossing of the circles inside both arcs; else the least of each
    arc's ends and of its points on the line of centers to the other arc.
    Concentric arcs are ``|r1 - r2|`` apart where their angles overlap."""
    ends = [(e, c2, r2, angles2) for e in _arc_ends(c1, r1, angles1)]
    ends += [(e, c1, r1, angles1) for e in _arc_ends(c2, r2, angles2)]
    dist = abs(c2 - c1)
    if dist == 0:
        if angles1 is None or angles2 is None or any(_on_arc(e - c, a) for e, c, _, a in ends):
            return abs(r1 - r2)
        return min(_point_arc(*end) for end in ends)
    u = (c2 - c1) / dist
    if abs(r1 - r2) <= dist <= r1 + r2:
        along = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
        height = math.sqrt(max(0.0, r1 * r1 - along * along))
        for x in (c1 + u * complex(along, height), c1 + u * complex(along, -height)):
            if _on_arc(x - c1, angles1) and _on_arc(x - c2, angles2):
                return 0.0
    for c, r, angles, other in ((c1, r1, angles1, (c2, r2, angles2)),
                                (c2, r2, angles2, (c1, r1, angles1))):
        ends += [(x, *other) for x in (c + r * u, c - r * u) if _on_arc(x - c, angles)]
    return min(_point_arc(*end) for end in ends)


def _segment(a: complex, b: complex) -> tuple:
    return ("segment", a, b) if abs(b - a) ** 2 > 0 else ("point", a)  # no division by 0


def _arc(c: complex, r: float, angles) -> tuple:
    return ("arc", c, r, angles) if r > 0 else ("point", c)


def _pieces(p: Primitive) -> list[tuple]:
    """The boundary of a primitive as connected pieces: ``("point", z)``,
    ``("segment", a, b)`` or ``("arc", c, r, angles)``, with ``angles`` ``None``
    for a full circle; a piece of length 0 is a point."""
    if isinstance(p, PointSet):
        return [("point", z) for z in p.points]
    if isinstance(p, Segment):
        return [_segment(p.a, p.b)]
    if isinstance(p, (Circle, FilledDisk)):
        return [_arc(p.center, p.radius, None)]
    angles = _sector_angles(p)  # an annulus sector: two arcs, and two radial segments if partial
    pieces = [_arc(p.center, p.r_out, angles), _arc(p.center, p.r_in, angles)]
    for ray in () if angles is None else (cmath.exp(1j * t) for t in angles):
        pieces.append(_segment(p.center + p.r_in * ray, p.center + p.r_out * ray))
    return pieces


def _distance(x: tuple, y: tuple) -> float:
    """Distance between two pieces, from its critical points."""
    if x[0] > y[0]:
        x, y = y, x  # kinds in the order arc, point, segment
    kinds = (x[0], y[0])
    if kinds == ("point", "point"):
        return abs(x[1] - y[1])
    if kinds == ("point", "segment"):
        return _point_segment(x[1], *y[1:])
    if kinds == ("segment", "segment"):
        return _segment_segment(*x[1:], *y[1:])
    if kinds == ("arc", "point"):
        return _point_arc(y[1], *x[1:])
    if kinds == ("arc", "segment"):
        return _segment_arc(*y[1:], *x[1:])
    return _arc_arc(*x[1:], *y[1:])


def _a_point(piece: tuple) -> complex:
    if piece[0] == "arc":
        _, c, r, angles = piece
        return c + r if angles is None else _arc_ends(c, r, angles)[0]
    return piece[1]


def _in_solid(p: Primitive, z: complex) -> bool:
    """Whether ``z`` lies in the filled region of a filled disk or an annulus
    sector, with the ``REGION_PAD`` slack (never, for a curve or a point set)."""
    if isinstance(p, FilledDisk):
        return abs(z - p.center) <= p.radius + REGION_PAD
    if isinstance(p, AnnulusSector):
        w = z - p.center
        return p.r_in - REGION_PAD <= abs(w) <= p.r_out + REGION_PAD and _on_arc(w, _sector_angles(p))
    return False


def _primitives_meet(p: Primitive, q: Primitive) -> bool:
    pieces_p, pieces_q = _pieces(p), _pieces(q)
    if any(_distance(x, y) <= REGION_PAD for x in pieces_p for y in pieces_q):
        return True
    # the boundaries are apart, so each connected piece lies wholly inside the
    # other's filled region or wholly outside it: one point of it decides
    return any(_in_solid(q, _a_point(x)) for x in pieces_p) or any(
        _in_solid(p, _a_point(y)) for y in pieces_q
    )


def compacts_meet(a: CompactSpec, b: CompactSpec) -> bool:
    """Whether two compacts come within ``REGION_PAD`` of each other, decided in
    closed form from their primitives: two primitives meet when a piece of the
    boundary of one (:func:`_pieces`) comes that close to a piece of the other's,
    or when a point of one lies in the other's filled region.  Partial annulus
    sectors read angles with the ``+-2 pi`` wraps of :func:`_in_angles`."""
    return any(_primitives_meet(p, q) for p in a.primitives for q in b.primitives)
