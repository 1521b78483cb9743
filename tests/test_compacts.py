import json
import math

import numpy as np
import pytest

from pade_universal.compacts import (
    AnnulusSector,
    Circle,
    CompactSpec,
    DomainSpec,
    FilledDisk,
    Grid,
    PointSet,
    REGION_PAD,
    Segment,
    discretize,
    exhausting_family,
    outer_family,
    spec_region_contains,
)
from pade_universal.errors import EmptyResultError, EmptySpecError
from pade_universal.series import Polynomial

from conftest import random_coefficients

UNIT_DISK = DomainSpec(kind="disk", center=0.0, radius=1.0)
# Im z < 0.5: the normal 2j has unit normal 1j
HALF_PLANE = DomainSpec(kind="half_plane", normal=2j, offset=0.5)
EXTERIOR = DomainSpec(kind="disk_complement", center=1.0, radius=2.0)
UNION = DomainSpec(kind="disk_union", disks=((0.0, 1.0), (1.5, 1.0)))


def grid_domain_distance(grid: Grid, domain: DomainSpec) -> float:
    """Smallest distance from a grid point to the closure of the domain."""
    return float(np.min(domain.distance_from(grid.points)))


def grids_min_distance(a: Grid, b: Grid) -> float:
    """Smallest pairwise distance between two grids."""
    return float(np.min(np.abs(a.points[:, None] - b.points[None, :])))


class TestDiscretize:
    def test_segment_equal_spacing_with_endpoints(self):
        grid = discretize(CompactSpec([Segment(2.0, 3.0)], 64))
        pts = sorted(z.real for z in grid.points)
        assert len(pts) == 64
        assert pts[0] == 2.0 and pts[-1] == 3.0
        gaps = np.diff(pts)
        assert np.allclose(gaps, gaps[0])

    def test_circle_roots_of_unity(self):
        grid = discretize(CompactSpec([Circle(0.0, 1.0)], 8))
        expected = sorted(np.angle(np.array(grid.points)))
        assert np.allclose(expected, np.sort(np.angle(np.exp(2j * np.pi * np.arange(8) / 8))))

    def test_filled_disk_center_and_boundary(self):
        grid = discretize(CompactSpec([FilledDisk(0.0, 0.4)], 64))
        assert len(grid.points) == 64
        assert any(z == 0.0 for z in grid.points)
        boundary = [z for z in grid.points if abs(abs(z) - 0.4) <= 1e-12]
        assert len(boundary) >= 16

    def test_point_set_passthrough(self):
        grid = discretize(CompactSpec([PointSet([1.0, 2.0j])], 8))
        assert grid.points.tolist() == [1.0, 2.0j]

    def test_annulus_sector_bounds(self):
        spec = CompactSpec([AnnulusSector(0.0, 1.0, 2.0, 0.0, math.pi)], 32)
        grid = discretize(spec)
        radii = np.abs(np.array(grid.points))
        assert radii.min() >= 1.0 - 1e-12
        assert radii.max() <= 2.0 + 1e-12

    def test_empty_spec(self):
        with pytest.raises(EmptySpecError):
            discretize(CompactSpec([], 8))

    def test_validation(self):
        with pytest.raises(ValueError):
            CompactSpec([Segment(0.0, 1.0)], 4)
        with pytest.raises(ValueError):
            AnnulusSector(0.0, 2.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            FilledDisk(0.0, -1.0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Circle(0.0, -0.5), "radius must be nonnegative"),
            (lambda: AnnulusSector(0.0, -1.0, 1.0, 0.0, 1.0), "radii must be nonnegative"),
            (lambda: AnnulusSector(0.0, 1.0, -1.0, 0.0, 1.0), "radii must be nonnegative"),
            (lambda: AnnulusSector(0.0, 2.0, 1.0, 0.0, 1.0), "r_in must not exceed r_out"),
            (lambda: AnnulusSector(0.0, 1.0, 2.0, 1.0, 0.5), "theta_b must not precede theta_a"),
            (lambda: PointSet([]), "point set must be non-empty"),
            (lambda: FilledDisk(0.0, math.nan), "radius must be nonnegative and finite"),
            (lambda: Circle(0.0, math.inf), "radius must be nonnegative and finite"),
            (lambda: AnnulusSector(0.0, 1.0, math.inf, 0.0, 1.0), "radii must be nonnegative"),
            (lambda: AnnulusSector(0.0, math.nan, 1.0, 0.0, 1.0), "radii must be nonnegative"),
            (lambda: AnnulusSector(0.0, 1.0, 2.0, math.nan, 1.0), "angles must be finite"),
            (lambda: AnnulusSector(0.0, 1.0, 2.0, 0.0, math.inf), "angles must be finite"),
            (lambda: CompactSpec.from_json({"kind": "circle", "center": [0, 0], "radius": "inf"}),
             "expected a finite number"),
            (lambda: DomainSpec(kind="disk", radius=math.nan), "radius must be positive"),
            (lambda: DomainSpec.from_json({"kind": "disk_complement", "center": [0, 0],
                                           "radius": "inf"}), "expected a finite number"),
            (lambda: DomainSpec(kind="half_plane", normal=1.0, offset=math.nan), "offset finite"),
            (lambda: DomainSpec(kind="disk_union", disks=((0.0, 1.0), (3.0, math.inf))),
             "disk radii must be positive and finite"),
            (lambda: FilledDisk(complex(math.nan, 0.0), 1.0), "center must be finite"),
            (lambda: Circle(complex(0.0, math.inf), 1.0), "center must be finite"),
            (lambda: AnnulusSector(math.nan, 1.0, 2.0, 0.0, 1.0), "center must be finite"),
            (lambda: Segment(0.0, math.inf), "segment end must be finite"),
            (lambda: Segment(complex(math.nan, 1.0), 1.0), "segment end must be finite"),
            (lambda: PointSet([0.0, complex(1.0, math.nan)]), "point must be finite"),
            (lambda: DomainSpec(kind="disk", center=math.inf, radius=1.0),
             "domain center must be finite"),
            (lambda: DomainSpec(kind="disk_complement", center=math.nan, radius=1.0),
             "domain center must be finite"),
            (lambda: DomainSpec(kind="disk_union", disks=((0.0, 1.0), (math.nan, 1.0))),
             "domain center must be finite"),
            (lambda: DomainSpec(kind="half_plane", normal=math.inf, offset=0.0),
             "normal must be nonzero and finite"),
        ],
    )
    def test_primitive_constructors_reject(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


def scalar_discretize(spec: CompactSpec) -> np.ndarray:
    """The list-of-scalars samplers the array sampler replaced, point by point."""
    n = spec.samples_per_primitive
    pts = []
    for p in spec.primitives:
        if isinstance(p, Circle):
            pts.extend(p.center + p.radius * np.exp(2j * math.pi * k / n) for k in range(n))
        elif isinstance(p, Segment):
            pts.extend(p.a + (p.b - p.a) * (k / (n - 1)) for k in range(n))
        elif isinstance(p, FilledDisk):
            if p.radius == 0:
                pts.append(p.center)
                continue
            m = max(2, int(round(math.sqrt(n / 2.0))))
            weights = m * (m + 1) // 2
            counts = [max(1, ((n - 1) * j) // weights) for j in range(1, m + 1)]
            counts[-1] += n - 1 - sum(counts)
            pts.append(p.center)
            for j, cnt in enumerate(counts, start=1):
                radius = p.radius * j / m
                pts.extend(p.center + radius * np.exp(2j * math.pi * k / cnt) for k in range(cnt))
        elif isinstance(p, AnnulusSector):
            m_r = max(2, int(round(math.sqrt(n / 4.0))) + 1)
            per_ring = max(4, n // m_r)
            for i in range(m_r):
                radius = p.r_in + (p.r_out - p.r_in) * (i / (m_r - 1))
                if (p.theta_b - p.theta_a) >= 2.0 * math.pi - 1e-12:
                    angles = [p.theta_a + 2.0 * math.pi * k / per_ring for k in range(per_ring)]
                else:
                    span = p.theta_b - p.theta_a
                    angles = [p.theta_a + span * (k / (per_ring - 1)) for k in range(per_ring)]
                pts.extend(p.center + radius * np.exp(1j * t) for t in angles)
        else:
            pts.extend(p.points)
    return np.array(pts, dtype=complex)


def scalar_contains(spec: CompactSpec, z: complex) -> bool:
    """The one-point membership test the array test replaced."""
    for p in spec.primitives:
        if isinstance(p, FilledDisk):
            if abs(z - p.center) <= p.radius + REGION_PAD:
                return True
        elif isinstance(p, Circle):
            if abs(abs(z - p.center) - p.radius) <= REGION_PAD:
                return True
        elif isinstance(p, Segment):
            d = p.b - p.a
            if abs(d) == 0:
                if abs(z - p.a) <= REGION_PAD:
                    return True
                continue
            t = ((z - p.a) * np.conj(d)).real / abs(d) ** 2
            t = min(1.0, max(0.0, t))
            if abs(z - (p.a + t * d)) <= REGION_PAD:
                return True
        elif isinstance(p, AnnulusSector):
            w = z - p.center
            r = abs(w)
            if p.r_in - REGION_PAD <= r <= p.r_out + REGION_PAD:
                if (p.theta_b - p.theta_a) >= 2.0 * math.pi - 1e-12:
                    return True
                ang = math.atan2(w.imag, w.real)
                for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                    if p.theta_a - REGION_PAD <= ang + shift <= p.theta_b + REGION_PAD:
                        return True
        elif any(abs(z - w) <= REGION_PAD for w in p.points):
            return True
    return False


#: One of every primitive kind: segments with real and complex endpoints
#: (and a degenerate one), radius 0, full and partial annulus sectors (one
#: with negative angles), complex centers.
PRIMITIVES = [
    Circle(0.0, 1.0),
    Circle(0.3 - 0.7j, 2.5),
    Circle(1j, 0.0),
    Segment(2.0, 3.0),
    Segment(-1.5, 0.25),
    Segment(-1.0 - 0.5j, 2.0 + 1.5j),
    Segment(0.5j, -0.75),
    Segment(0.0, 0.0),
    FilledDisk(0.0, 0.4),
    FilledDisk(-0.25 + 0.1j, 1.3),
    FilledDisk(2.0 - 1j, 0.0),
    AnnulusSector(0.0, 0.5, 1.5, 0.0, 2.0 * math.pi),
    AnnulusSector(1.0 - 1j, 0.0, 2.0, -1.0, 2.0 * math.pi - 1.0),
    AnnulusSector(0.0, 1.0, 1.0, 0.5 * math.pi, 1.5 * math.pi),
    AnnulusSector(-0.5j, 0.2, 0.9, -0.75 * math.pi, 0.1),
    PointSet([1.0, -2.0j, -0.0, 0.5 - 0.25j]),
]


class TestArrayParity:
    """The array sampler and membership test against their scalar forms."""

    @pytest.mark.parametrize("n", [*range(8, 66), 1024, 4096])
    def test_discretize_is_byte_equal_to_the_scalar_samplers(self, n):
        for spec in [CompactSpec([p], n) for p in PRIMITIVES] + [CompactSpec(PRIMITIVES, n)]:
            points = discretize(spec).points
            expected = scalar_discretize(spec)
            assert points.dtype == np.complex128 and points.shape == expected.shape
            assert points.tobytes() == expected.tobytes(), spec

    def test_points_are_read_only(self):
        points = discretize(CompactSpec(PRIMITIVES, 16)).points
        assert points.ndim == 1 and not points.flags.writeable
        with pytest.raises(ValueError):
            points[0] = 0.0

    def test_contains_matches_the_scalar_test_pointwise(self, rng):
        pad = REGION_PAD
        edges = [0.4 + pad, 1.0 + pad, 1.0 - pad, 2.5 + pad, 1.5 + pad, 0.5 - pad, pad]
        edges = [x for e in edges for x in (e, np.nextafter(e, 0.0), np.nextafter(e, 9.0))]
        z = np.concatenate([
            discretize(CompactSpec(PRIMITIVES, 24)).points,
            (rng.standard_normal(400) + 1j * rng.standard_normal(400)) * 1.5,
            np.outer([1.0, -1.0, 1j, -1j], edges).ravel(),
            # off the axes numpy's complex abs rounds differently at some angles
            np.outer(np.exp(2j * math.pi * np.arange(128) / 128), edges).ravel(),
        ])
        for spec in [CompactSpec([p], 8) for p in PRIMITIVES] + [CompactSpec(PRIMITIVES, 8)]:
            inside = spec_region_contains(spec, z)
            assert inside.dtype == bool and inside.shape == z.shape
            assert inside.tolist() == [scalar_contains(spec, complex(w)) for w in z], spec
        # the edges straddle the slack: |z| = 0.4 + pad is in, one ulp out is not
        disk = CompactSpec([FilledDisk(0.0, 0.4)], 8)
        assert spec_region_contains(disk, edges[:3]).tolist() == [True, True, False]


def sup_norm(g, grid) -> float:
    """``max |g(z)|`` over the grid points."""
    return float(np.max(np.abs(g(grid.points))))


class TestSupNorms:
    def test_constant_zero(self):
        grid = discretize(CompactSpec([Segment(2.0, 3.0)], 16))
        assert sup_norm(lambda z: np.zeros_like(z), grid) == 0.0

    def test_identity_on_segment(self):
        grid = discretize(CompactSpec([Segment(2.0, 3.0)], 64))
        assert sup_norm(lambda z: z, grid) == 3.0

    def test_refinement_oracle_on_circle(self):
        g = lambda z: z**2 - (1.0 + z)
        coarse = discretize(CompactSpec([Circle(0.0, 1.0)], 64))
        fine = discretize(CompactSpec([Circle(0.0, 1.0)], 4096))
        assert abs(sup_norm(g, coarse) - sup_norm(g, fine)) <= 1e-3

    def test_refinement_stability_for_polynomials(self, rng):
        # decay keeps the second derivative O(1) on the compacts; by Markov's
        # inequality a 1e-3 refinement budget cannot hold for arbitrary
        # bounded degree-10 polynomials
        presets = [
            CompactSpec([Segment(2.0, 3.0)], 128),
            CompactSpec([Circle(0.0, 1.0)], 128),
            CompactSpec([FilledDisk(0.0, 0.4)], 128),
        ]
        for spec in presets:
            scale = max(
                abs(z) for z in discretize(CompactSpec(spec.primitives, 8)).points
            )
            raw = random_coefficients(rng, 11, bound=1.0)
            poly = Polynomial([c / (k + 1) ** 3 / scale**k for k, c in enumerate(raw)])
            doubled = CompactSpec(spec.primitives, 2 * spec.samples_per_primitive)
            a = sup_norm(poly.eval, discretize(spec))
            b = sup_norm(poly.eval, discretize(doubled))
            assert abs(a - b) <= 1e-3


class TestDoubleSup:
    """The sup over a product grid L x K, taken center by center."""

    def test_recentering_invariance(self, rng):
        poly = Polynomial(random_coefficients(rng, 9, bound=1.0))
        l_grid = discretize(CompactSpec([FilledDisk(0.0, 0.4)], 16))
        k_grid = discretize(CompactSpec([Segment(2.0, 3.0)], 32))
        z = k_grid.points
        value = max(
            float(np.max(np.abs(poly.recenter(zeta).eval(z) - poly.eval(z))))
            for zeta in l_grid.points
        )
        assert value <= 1e-10


class TestFamilies:
    def test_unit_disk_interior(self):
        spec = exhausting_family(UNIT_DISK, 2, "interior")
        assert spec.primitives == (FilledDisk(0.0, 0.5),)

    def test_unit_disk_boundary(self):
        spec = exhausting_family(UNIT_DISK, 2, "boundary")
        assert spec.primitives == (FilledDisk(0.0, 1.0),)

    def test_interior_too_small_is_empty(self):
        with pytest.raises(EmptyResultError):
            exhausting_family(UNIT_DISK, 1, "interior")

    def test_monotone_in_k(self):
        domains = [
            UNIT_DISK,
            DomainSpec(kind="half_plane", normal=1.0, offset=0.5),
            DomainSpec(kind="disk_complement", center=0.0, radius=0.5),
            DomainSpec(kind="disk_union", disks=((0.0, 1.0), (2.5, 0.75))),
        ]
        for domain in domains:
            for mode in ("interior", "boundary"):
                previous = None
                for k in range(2, 7):
                    try:
                        spec = exhausting_family(domain, k, mode, samples=24)
                    except EmptyResultError:
                        assert previous is None
                        continue
                    if previous is not None:
                        for z in discretize(previous).points:
                            assert spec_region_contains(spec, z), (domain.kind, mode, k, z)
                    previous = spec

    def test_outer_presets(self):
        off_closure = outer_family(UNIT_DISK, 1, "off-closure")
        assert off_closure.primitives == (Segment(2.0, 3.0),)
        off_domain = outer_family(UNIT_DISK, 1, "off-domain")
        assert off_domain.primitives == (Segment(1.0, 2.0),)

    def test_outer_disjoint_from_domain(self):
        for m in range(1, 5):
            spec = outer_family(UNIT_DISK, m, "off-closure")
            dist = grid_domain_distance(discretize(spec), UNIT_DISK)
            assert dist >= 1.0 / m - 1e-12
            touching = outer_family(UNIT_DISK, m, "off-domain")
            assert grid_domain_distance(discretize(touching), UNIT_DISK) >= 0.0

    def test_outer_nested_in_m(self):
        for mode in ("off-closure", "off-domain"):
            previous = None
            for m in range(1, 6):
                spec = outer_family(UNIT_DISK, m, mode, samples=16)
                if previous is not None:
                    for z in discretize(previous).points:
                        assert spec_region_contains(spec, z)
                previous = spec

    @pytest.mark.parametrize(
        "domain, m, mode, primitive",
        [
            (HALF_PLANE, 2, "off-closure", Segment(1j, 3j)),
            (HALF_PLANE, 2, "off-domain", Segment(0.5j, 2.5j)),
            (EXTERIOR, 2, "off-closure", FilledDisk(1.0, 1.5)),
            (EXTERIOR, 2, "off-domain", FilledDisk(1.0, 2.0)),
            (UNION, 2, "off-closure", Segment(3.0, 5.0)),
            (UNION, 2, "off-domain", Segment(2.5, 4.5)),
        ],
    )
    def test_outer_presets_of_the_other_kinds(self, domain, m, mode, primitive):
        spec = outer_family(domain, m, mode, samples=16)
        assert spec.primitives == (primitive,)
        gap = 1.0 / m if mode == "off-closure" else 0.0
        assert grid_domain_distance(discretize(spec), domain) >= gap - 1e-12

    def test_outer_disk_complement_needs_room(self):
        small = DomainSpec(kind="disk_complement", center=0.0, radius=0.5)
        for m in (1, 2):
            with pytest.raises(EmptyResultError):
                outer_family(small, m, "off-closure")
        assert outer_family(small, 3, "off-closure").primitives == (FilledDisk(0.0, 0.5 - 1 / 3),)

    def test_outer_disjoint_from_exhausting(self):
        for k in range(2, 6):
            inner = discretize(exhausting_family(UNIT_DISK, k, "interior", samples=24))
            for m in range(1, 5):
                outer = discretize(outer_family(UNIT_DISK, m, "off-closure", samples=24))
                assert grids_min_distance(inner, outer) > 0.0


class TestDomainDistance:
    @pytest.mark.parametrize(
        "domain, z, distance",
        [
            (HALF_PLANE, [0.0, 5 + 0.2j, 0.5j, 3j, -2 + 1.5j], [0.0, 0.0, 0.0, 2.5, 1.0]),
            (EXTERIOR, [10.0, 3.0, 1.0, 1.5, 1 + 0.5j], [0.0, 0.0, 2.0, 1.5, 1.5]),
            (UNION, [0.5, 2.5, 4.0, -3j], [0.0, 0.0, 1.5, 2.0]),
        ],
        ids=["half_plane", "disk_complement", "disk_union"],
    )
    def test_distance_from(self, domain, z, distance):
        assert domain.distance_from(z).tolist() == distance


ANNULUS = {"kind": "annulus_sector", "center": [0, 0], "r_in": 1, "r_out": 2,
           "theta_a": 0, "theta_b": 1}
#: Every real-valued JSON field of a compact or a domain: its reader, and the
#: object the reader takes with that field set to a given value.
REAL_FIELDS = {
    **{kind: (CompactSpec.from_json, lambda v, kind=kind: {"kind": kind, "center": [0, 0],
                                                           "radius": v})
       for kind in ("filled_disk", "circle")},
    **{field: (CompactSpec.from_json, lambda v, field=field: {**ANNULUS, field: v})
       for field in ("r_in", "r_out", "theta_a", "theta_b")},
    **{kind: (DomainSpec.from_json, lambda v, kind=kind: {"kind": kind, "center": [0, 0],
                                                          "radius": v})
       for kind in ("disk", "disk_complement")},
    "offset": (DomainSpec.from_json,
               lambda v: {"kind": "half_plane", "normal": [1, 0], "offset": v}),
    "disk_union": (DomainSpec.from_json, lambda v: {
        "kind": "disk_union", "disks": [{"center": [0, 0], "radius": 1},
                                        {"center": [1, 0], "radius": v}]}),
}


class TestJson:
    def test_compact_round_trip(self):
        spec = CompactSpec(
            [FilledDisk(0.1j, 0.4), Segment(2.0, 3.0), Circle(1.0, 0.5)], 32
        )
        again = CompactSpec.from_json(spec.to_json())
        assert again == spec

    def test_annulus_sector_and_point_set_round_trip(self):
        spec = CompactSpec(
            [AnnulusSector(1 + 1j, 0.5, 2.0, 0.1, 1.2), PointSet([1.0, 2j, -1 - 1j])], 16
        )
        payload = spec.to_json()
        assert payload["primitives"] == [
            {"kind": "annulus_sector", "center": [1.0, 1.0], "r_in": 0.5, "r_out": 2.0,
             "theta_a": 0.1, "theta_b": 1.2},
            {"kind": "point_set", "points": [[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0]]},
        ]
        again = CompactSpec.from_json(json.loads(json.dumps(payload)))
        assert again == spec
        assert discretize(again).points.tobytes() == discretize(spec).points.tobytes()

    def test_single_primitive_shorthand(self):
        spec = CompactSpec.from_json({"kind": "segment", "a": [2, 0], "b": [3, 0], "samples": 16})
        assert spec.primitives == (Segment(2.0, 3.0),)
        assert spec.samples_per_primitive == 16

    @pytest.mark.parametrize(
        "value", [True, "0.5", 10**400], ids=["boolean", "string", "huge-integer"]
    )
    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_real_fields_are_json_numbers(self, field, value):
        # float() read true as 1.0 and "0.5" as 0.5, and raised OverflowError
        read, make = REAL_FIELDS[field]
        read(make(1))
        with pytest.raises(ValueError, match="expected a finite number"):
            read(make(value))

    def test_domain_round_trip(self):
        for domain in (
            UNIT_DISK,
            DomainSpec(kind="half_plane", normal=1j, offset=2.0),
            DomainSpec(kind="disk_complement", center=1.0, radius=0.5),
            DomainSpec(kind="disk_union", disks=((0.0, 1.0), (3.0, 0.5))),
        ):
            assert DomainSpec.from_json(domain.to_json()) == domain
