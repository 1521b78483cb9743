import dataclasses
import gc
import json
import math
import types

import numpy as np
import pytest

from pade_universal.compacts import (
    AnnulusSector,
    Circle,
    CompactSpec,
    FilledDisk,
    PointSet,
    Segment,
    discretize,
)
from pade_universal import construct
from pade_universal.construct import (
    Certificate,
    ExtensionRequirement,
    IndexSequence,
    RAMP_CAP,
    RequirementSpec,
    TargetFunction,
    _ArnoldiLadder,
    _fit_on_points,
    _fit_ramp,
    build_universal_polynomial,
    extend_prefix,
    run_extension_schedule,
    select_index,
    verify_construction,
)
from pade_universal.errors import (
    FitFailedError,
    IllConditionedError,
    IndexExhaustedError,
    OriginInKError,
    PadeNotExistError,
    PadeUniversalError,
    PerturbationFailedError,
    PoleProximityError,
    ScheduleStepError,
)
from pade_universal.pade import HankelReport
from pade_universal.series import Polynomial, disagreement_metric

from conftest import random_coefficients

SEGMENT_K = CompactSpec([Segment(2.0, 3.0)], 64)
DISK_L = CompactSpec([FilledDisk(0.0, 0.4)], 16)
DISK_J = CompactSpec([FilledDisk(0.0, 0.6)], 64)
CIRCLE_K = CompactSpec([Circle(2.0, 0.5)], 64)
RECIPROCAL = TargetFunction.rational([1.0], [0.0, 1.0])
F_DEFAULT = IndexSequence([(k, k % 3) for k in range(41)])


def desk_requirement(s=50, levels=0):
    return RequirementSpec(
        K=SEGMENT_K,
        target_on_K=TargetFunction.poly([0.0, 0.0, 1.0]),
        L=DISK_L,
        s=s,
        derivative_levels=levels,
        J=DISK_J,
    )


F_ON_L = TargetFunction.rational([1.0], [2.0, -1.0])


QUADRATIC = TargetFunction.poly([0.0, 0.0, 1.0])
F_Q2 = IndexSequence([(k, 2) for k in range(61)])


def quadratic_build(f_seq):
    """The desk geometry with z^2 on K, L and J, so the ramp fits it exactly
    at degree 2 and no target has a pole for the guard to reject."""
    req = dataclasses.replace(desk_requirement(), target_on_K=QUADRATIC)
    return build_universal_polynomial(req, QUADRATIC, f_seq)


def fail_every_hankel_test(monkeypatch):
    """Make each measured trial fail: the measurement runs, then raises as
    the per-center path does when the Hankel test fails at its first center."""
    call = construct._Measurement.__call__

    def failing(measurement, u, p, q, *args):
        call(measurement, u, p, q, *args)
        center = complex(measurement.centers[0])
        raise PadeNotExistError(HankelReport(0j, p, q, center, False, 1.0, 1.0))

    monkeypatch.setattr(construct._Measurement, "__call__", failing)


def table_loop(points, values, z):
    """Table lookup one point at a time: the nearest entry within 1e-9."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    pts = np.array(points, dtype=complex)
    vals = np.array(values, dtype=complex)
    out = np.empty(zz.shape, dtype=complex)
    for i, point in enumerate(zz):
        dist = np.abs(pts - point)
        j = int(np.argmin(dist))
        if dist[j] > 1e-9:
            raise ValueError(f"table target has no value at z = {point}")
        out[i] = vals[j]
    return complex(out[0]) if np.ndim(z) == 0 else out


class TestSelectIndex:
    def test_first_admissible(self):
        f_seq = IndexSequence([(1, 0), (2, 1), (5, 2)])
        assert select_index(f_seq, 1) == (2, 1)

    def test_exhausted(self):
        f_seq = IndexSequence([(1, 0), (2, 1), (5, 2)])
        with pytest.raises(IndexExhaustedError):
            select_index(f_seq, 5)

    def test_sequence_order_not_smallest_q(self):
        f_seq = IndexSequence([(3, 3), (4, 0)])
        assert select_index(f_seq, 2) == (3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexSequence([])
        with pytest.raises(ValueError):
            IndexSequence([(-1, 0)])


class TestTargets:
    def test_json_round_trip(self):
        for t in (
            TargetFunction.poly([1.0, 2.0j]),
            TargetFunction.rational([1.0], [2.0, -1.0]),
            TargetFunction.table([1.0, 2.0], [3.0, 4.0]),
        ):
            assert TargetFunction.from_json(t.to_json()) == t

    def test_table_lookup(self):
        t = TargetFunction.table([1.0, 2.0], [5.0, 7.0])
        assert t.evaluate(2.0) == 7.0
        with pytest.raises(ValueError):
            t.evaluate(1.5)

    def test_table_lookup_matches_the_point_loop(self, rng, monkeypatch):
        # blocks of three points against a seven-entry table: the lookup
        # spans several blocks, and the error names the first point in order
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", 3 * 7)
        pts = np.array(random_coefficients(rng, 7))
        vals = np.array(random_coefficients(rng, 7))
        table = TargetFunction.table(pts, vals)
        z = pts[rng.integers(0, 7, 20)] + 1e-11
        assert table.evaluate(z).tobytes() == table_loop(pts, vals, z).tobytes()
        assert table.evaluate(pts[3]) == table_loop(pts, vals, pts[3]) == vals[3]
        for bad in (0, 5, 19):
            off = z.copy()
            off[bad:] = 10.0 + bad
            with pytest.raises(ValueError) as want:
                table_loop(pts, vals, off)
            with pytest.raises(ValueError) as got:
                table.evaluate(off)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "points, values, message",
        [
            ([math.nan, 1.0], [5.0, 7.0], "table point must be finite"),
            ([1.0, complex(2.0, math.inf)], [5.0, 7.0], "table point must be finite"),
            ([1.0, 2.0], [math.inf, 7.0], "table value must be finite"),
        ],
    )
    def test_table_rejects_non_finite_entries(self, points, values, message):
        # a NaN point would match every z, the table's own points included
        with pytest.raises(ValueError, match=message):
            TargetFunction.table(points, values)

    def test_rational_pole_guard(self):
        with pytest.raises(PoleProximityError):
            F_ON_L.evaluate(2.0)

    def test_rational_pole_guard_scales_with_denominator(self):
        scaled = TargetFunction.rational([1e3], [2e3, -1e3])
        points = [2.0 - delta for delta in (0.0, 1e-13, 1e-12, 1.5e-12, 3e-12, 1e-11, 1e-3)]

        def raises(target, z):
            try:
                target.evaluate(z)
            except PoleProximityError:
                return True
            return False

        near = [raises(F_ON_L, z) for z in points]
        assert near == [True, True, True, True, False, False, False]
        assert [raises(scaled, z) for z in points] == near

    def test_rational_pole_guard_names_the_same_point(self):
        with pytest.raises(PoleProximityError) as scalar:
            F_ON_L.evaluate(2.0)
        with pytest.raises(PoleProximityError) as array:
            F_ON_L.evaluate(np.array([1.0, 2.0, 3.0]))
        assert scalar.value.point == array.value.point == 2.0
        assert scalar.value.magnitude == array.value.magnitude

    def test_rational_derivative_descriptor(self):
        z = np.array([0.0, 0.5, 0.3j])
        d1 = F_ON_L.level_values(z, 1)[1]  # derivative of 1/(2-z) is 1/(2-z)^2
        assert np.abs(d1 - 1.0 / (2.0 - z) ** 2).max() <= 1e-12


def fit_of(ladder, values, degree):
    """``_fit_on_points`` of ``values``, given as their projection operand."""
    return _fit_on_points(ladder, np.conj(ladder.weight * values), degree)


def ladder_fit(pieces, degree):
    """One fit of ``degree`` on the joint grid of ``(grid, values)`` pieces,
    with the sup residual on each piece."""
    z = np.concatenate([grid.points for grid, _ in pieces])
    values = np.concatenate([np.asarray(v, dtype=complex) for _, v in pieces])
    fit = fit_of(_ArnoldiLadder(z), values, degree)
    residuals = [
        float(np.max(np.abs(fit.eval(grid.points) - np.asarray(v, dtype=complex))))
        for grid, v in pieces
    ]
    return fit, residuals


class TestPolyFit:
    def test_recovers_exact_polynomial(self, rng):
        poly = Polynomial(random_coefficients(rng, 6, bound=1.0))
        grid = discretize(CompactSpec([Segment(-1.0, 1.0)], 64))
        fit, residuals = ladder_fit([(grid, poly.eval(grid.points))], 5)
        assert residuals[0] <= 1e-10

    def test_degree_zero_is_best_constant(self):
        grid = discretize(CompactSpec([Segment(2.0, 3.0)], 65))
        fit, residuals = ladder_fit([(grid, grid.points)], 0)
        # best L2 constant on the symmetric grid is the midpoint
        assert abs(fit.coeffs[0] - 2.5) <= 1e-9
        assert abs(residuals[0] - 0.5) <= 1e-9

    def test_disjoint_compacts_joint_fit(self):
        k_grid = discretize(CompactSpec([Segment(2.0, 3.0)], 64))
        l_grid = discretize(CompactSpec([FilledDisk(0.0, 0.4)], 64))
        targets = [
            (k_grid, k_grid.points ** 2),
            (l_grid, 1.0 / (2.0 - l_grid.points)),
        ]
        fit, residuals = ladder_fit(targets, 24)
        assert max(residuals) <= 1e-3

    def test_insufficient_points(self):
        grid = discretize(CompactSpec([PointSet([1.0, 2.0, 3.0])], 8))
        with pytest.raises(ValueError):
            ladder_fit([(grid, [1.0, 2.0, 3.0])], 5)

    def test_degenerate_grid_collapses(self):
        grid = discretize(CompactSpec([PointSet([1.0, 2.0, 3.0] * 4)], 8))
        with pytest.raises(IllConditionedError):
            ladder_fit([(grid, [1.0, 2.0, 3.0] * 4)], 6)


def desk_glued_points():
    """The 144 points of the desk geometry: K, then L, then J."""
    return np.concatenate([discretize(spec).points for spec in (SEGMENT_K, DISK_L, DISK_J)])


def wide_points():
    """The 1152 points of the wide geometry, K, then L at 1024 centers, then
    J, and a glued target on them: a large point set for the ladder."""
    k = discretize(SEGMENT_K).points
    lj = np.concatenate(
        [
            discretize(CompactSpec([FilledDisk(0.0, 0.4)], 1024)).points,
            discretize(DISK_J).points,
        ]
    )
    values = np.concatenate([0.5 - 0.25j * k + (0.3 + 0.1j) * k**2, 1.0 / (2.2j - lj)])
    return np.concatenate([k, lj]), values


def reference_ladder(z, weight, degree):
    """The ladder grown to ``degree`` as it was written before its kernels were
    trimmed: ``np.linalg.norm`` and fresh ``np.conj`` temporaries, views taken
    at every pass.  Returns ``(q, c, collapse degree or None)``."""
    m = len(z)
    weight = np.ones(m, dtype=complex) if weight is None else weight
    rms = float(np.linalg.norm(weight)) / math.sqrt(m)
    rows = min(RAMP_CAP + 1, m)
    q, c = np.empty((rows, m), dtype=complex), np.zeros((rows, rows), dtype=complex)
    q[0], c[0, 0] = weight / rms, 1.0 / rms
    z_scale = max(1.0, float(np.max(np.abs(z))))
    for k in range(degree):
        v = np.multiply(z, q[k], out=q[k + 1])
        image = c[: k + 2, k + 1]
        image[0] = 0
        image[1:] = c[: k + 1, k]
        for _ in range(2):
            h = np.conj(q[: k + 1] @ np.conj(v)) / m
            v -= h @ q[: k + 1]
            image[: k + 1] -= c[: k + 1, : k + 1] @ h
        h_next = float(np.linalg.norm(v) / math.sqrt(m))
        if h_next <= 1e-13 * z_scale:
            image[:] = 0
            return q[: k + 1], c, k + 1
        np.divide(v, h_next, out=v)
        np.divide(image, h_next, out=image)
    return q[: degree + 1], c, None


def ladder_points(case):
    """The points and weight of a named ladder case."""
    if case == "desk":
        return desk_glued_points(), None
    if case == "weighted circle":
        z = discretize(CIRCLE_K).points
        return z, z**15
    if case == "wide":
        return wide_points()[0], None
    return np.array([1.0, 2.0, 3.0] * 4, dtype=complex), None  # collapses at degree 3


class TestArnoldiLadder:
    @pytest.mark.parametrize("case", ["desk", "wide", "weighted circle", "collapsing"])
    def test_columns_are_bitwise_the_reference_ladder(self, case):
        z, weight = ladder_points(case)
        degree = min(RAMP_CAP, len(z) - 1)
        q_ref, c_ref, collapse = reference_ladder(z, weight, degree)
        ladder = _ArnoldiLadder(z, weight)
        try:
            ladder.basis(degree)
            collapsed = None
        except IllConditionedError:
            collapsed = ladder.columns  # columns 0..k were kept; k + 1 collapsed
        assert collapsed == collapse == (3 if case == "collapsing" else None)
        assert ladder.columns == len(q_ref)
        assert ladder.q[: ladder.columns].tobytes() == q_ref.tobytes()
        assert ladder.c.tobytes() == c_ref.tobytes()

    @pytest.mark.parametrize(
        "case, degree",
        [("desk", 48), ("weighted circle", 48), ("wide", 30)],
    )
    def test_columns_are_orthonormal_in_the_weighted_product(self, case, degree):
        z, weight = ladder_points(case)
        q, c = _ArnoldiLadder(z, weight).basis(degree)
        assert q.shape == (degree + 1, len(z)) and q.flags.c_contiguous
        gram = np.conj(q) @ q.T / len(z)
        assert np.max(np.abs(gram - np.eye(degree + 1))) <= 1e-13
        # the monomial images: one upper-triangular matrix, column j of
        # degree exactly j, and q_j = weight * poly(c[:, j]) on the points
        # (checked at low degrees: monomial rounding grows fast with j)
        assert np.array_equal(np.triu(c), c) and np.all(np.diag(c) != 0)
        w = np.ones(len(z)) if weight is None else weight
        for j in range(4):
            images = w * Polynomial(c[: j + 1, j]).eval(z)
            assert np.max(np.abs(images - q[j])) <= 1e-11

    def test_start_vector_is_the_weight_at_unit_rms(self):
        z = discretize(CIRCLE_K).points
        weight = z**15
        q, c = _ArnoldiLadder(z, weight).basis(0)
        rms = np.linalg.norm(weight) / math.sqrt(len(z))
        assert np.array_equal(q[0], weight / rms) and c[0, 0] == 1.0 / rms
        q, c = _ArnoldiLadder(z).basis(0)
        assert np.array_equal(q[0], np.ones(len(z))) and c[0, 0] == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_fits_are_the_least_squares_solutions(self, seed, weighted):
        # random values, so every degree leaves a residual: the projection's
        # coefficients are those of lstsq on the same weighted system
        rng = np.random.default_rng(seed)
        z = discretize(CIRCLE_K).points if weighted else desk_glued_points()
        weight = z**15 if weighted else np.ones(len(z))
        values = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
        ladder = _ArnoldiLadder(z, weight if weighted else None)
        for degree in (0, 3, 10, 20):
            fit = fit_of(ladder, values, degree)
            q, c = ladder.basis(degree)
            solution, *_ = np.linalg.lstsq(q.T, weight * values, rcond=None)
            expected = c @ solution
            assert np.max(np.abs(fit.coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))


    @pytest.mark.parametrize("case", ["weighted circle", "desk"])
    def test_growth_patterns_give_the_same_bits(self, case):
        # degree by degree, the even degrees of a build ramp, or one call:
        # each column is computed by the same operations in the same order
        z, weight = ladder_points(case)
        bases = []
        for pattern in (range(49), range(2, 49, 2), [48]):
            ladder = _ArnoldiLadder(z, weight)
            for degree in pattern:
                q, c = ladder.basis(degree)
            assert q.base is ladder.q and c.base is ladder.c
            bases.append((q.tobytes(), c.copy().tobytes()))
        assert bases[0] == bases[1] == bases[2]

    def test_a_ramp_allocates_once(self):
        # one (RAMP_CAP + 1)-row allocation serves a ramp to the cap
        z = desk_glued_points()
        ladder = _ArnoldiLadder(z)
        q, c = ladder.q, ladder.c
        assert q.shape == (RAMP_CAP + 1, 144) and c.shape == (RAMP_CAP + 1, RAMP_CAP + 1)
        for degree in range(RAMP_CAP + 1):
            fit_of(ladder, z, degree)
            assert ladder.q is q and ladder.c is c
        assert ladder.columns == RAMP_CAP + 1
        # twelve points hold degrees 0..11 only
        assert len(_ArnoldiLadder(np.arange(12, dtype=complex)).q) == 12

    @pytest.mark.parametrize("degree", [-1, RAMP_CAP + 1])
    def test_fit_refuses_a_degree_the_ladder_does_not_hold(self, degree):
        ladder = _ArnoldiLadder(desk_glued_points())
        with pytest.raises(ValueError, match=f"degree {degree} is outside"):
            fit_of(ladder, desk_glued_points(), degree)
        assert ladder.columns == 1

    def test_collapse_keeps_the_good_columns(self):
        # one call grows columns 1 and 2, then collapses at 3
        z = np.array([1.0, 2.0, 3.0] * 4, dtype=complex)
        q, c = _ArnoldiLadder(z).basis(2)
        good = (q.tobytes(), c.copy().tobytes())
        ladder = _ArnoldiLadder(z)
        with pytest.raises(IllConditionedError, match="collapsed at degree 3"):
            ladder.basis(6)
        assert ladder.columns == 3
        # no partial image column is left behind
        assert not ladder.c[:, 3:].any()
        q, c = ladder.basis(2)
        assert (q.tobytes(), c.copy().tobytes()) == good
        with pytest.raises(IllConditionedError, match="collapsed at degree 3"):
            ladder.basis(3)
        assert ladder.columns == 3


class TestFitRamp:
    @staticmethod
    def recorded(z, values, clears_at=None):
        """A residual that records each fit and its sup residual, and reads 0
        (clearing any positive target) from the ``clears_at``-th fit on."""
        fits, residuals = [], []

        def residual(fit):
            fits.append(fit)
            residuals.append(float(np.max(np.abs(fit.eval(z) - values))))
            return 0.0 if len(fits) == clears_at else residuals[-1]

        return fits, residuals, residual

    @pytest.mark.parametrize("weighted", [False, True])
    def test_ramp_fits_are_bitwise_the_fresh_ladder_fits(self, weighted):
        z, values = wide_points()
        weight = z**3 if weighted else None
        fits, _, residual = self.recorded(z, values, clears_at=25)
        degree, fit, r = _fit_ramp(_ArnoldiLadder(z, weight), values, range(25), 1e-12, residual)
        assert (degree, fit, r) == (24, fits[-1], 0.0) and len(fits) == 25
        for degree, fit in enumerate(fits):
            fresh = fit_of(_ArnoldiLadder(z, weight), values, degree)
            assert np.array_equal(fit.coeffs, fresh.coeffs)

    def test_ramp_stops_where_a_fresh_ladder_collapses(self):
        z = np.array([1.0, 2.0, 3.0] * 4, dtype=complex)
        fits, _, residual = self.recorded(z, z * z)
        with pytest.raises(FitFailedError) as info:
            _fit_ramp(_ArnoldiLadder(z), z * z, range(10), 0.0, residual)
        assert [len(fit.coeffs) - 1 for fit in fits] == [0, 1, 2]
        assert info.value.degree == 2
        with pytest.raises(IllConditionedError, match="collapsed at degree 3"):
            fit_of(_ArnoldiLadder(z), z * z, 3)

    def test_non_finite_values_rejected(self):
        z = discretize(SEGMENT_K).points
        values = np.ones(len(z), dtype=complex)
        values[5] = complex("nan")
        with pytest.raises(ValueError, match="finite"):
            _fit_ramp(_ArnoldiLadder(z), values, range(3), math.inf, lambda fit: 0.0)

    def test_ramp_returns_the_first_fit_below_the_target(self):
        z, values = wide_points()
        fits, residuals, residual = self.recorded(z, values)
        target = 1e-2
        degree, fit, r = _fit_ramp(_ArnoldiLadder(z), values, range(25), target, residual)
        # the ramp stops at its first clearing degree, which is not its last
        assert 0 < degree < 24 and len(fits) == degree + 1
        assert (fit, r) == (fits[-1], residuals[-1]) and r < target
        assert min(residuals[:-1]) >= target

    def test_ramp_without_a_clearing_fit_raises(self):
        z, values = wide_points()
        _, residuals, residual = self.recorded(z, values)
        with pytest.raises(FitFailedError) as info:
            _fit_ramp(_ArnoldiLadder(z), values, range(6), 1e-12, residual)
        assert len(residuals) == 6
        assert (info.value.target, info.value.best_residual) == (1e-12, min(residuals))
        assert info.value.degree == 5

    def test_refusal_names_the_last_degree_fitted(self):
        # the fit's 16 points, K and J (not the centers of L): the ramp 2, 4, ...
        # ends after degree 14, not at RAMP_CAP
        req = RequirementSpec(
            K=CompactSpec([Segment(2.0, 3.0)], 8), target_on_K=TargetFunction.poly([0.0, 0.0, 1.0]),
            L=CompactSpec([FilledDisk(0.0, 0.4)], 8), s=10**8, J=CompactSpec([Circle(0.0, 0.6)], 8),
        )
        with pytest.raises(FitFailedError, match="reached degree 14 ") as info:
            build_universal_polynomial(req, F_ON_L, F_DEFAULT)
        assert info.value.degree == 14

    def test_ramp_that_fits_nothing_names_degree_minus_one(self):
        z, values = wide_points()
        with pytest.raises(FitFailedError) as info:
            _fit_ramp(_ArnoldiLadder(z), values, range(len(z), len(z) + 3), 1.0, lambda fit: 0.0)
        assert (info.value.degree, info.value.best_residual) == (-1, math.inf)

    def count_fits(self, monkeypatch):
        """Count ``_fit_on_points`` calls and the ladder columns computed: a
        ladder builds its start column when it is made, and each later
        column from ``z * q_k``, construct's one ``np.multiply`` call, so a
        column computed twice counts twice."""
        counts = {"fits": 0, "columns": 0}
        fit, init = construct._fit_on_points, _ArnoldiLadder.__init__

        def counted_fit(*args, **kwargs):
            counts["fits"] += 1
            return fit(*args, **kwargs)

        def counted_init(ladder, *args, **kwargs):
            init(ladder, *args, **kwargs)
            counts["columns"] += ladder.columns

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def multiply(self, *args, **kwargs):
                counts["columns"] += 1
                return np.multiply(*args, **kwargs)

        monkeypatch.setattr(construct, "_fit_on_points", counted_fit)
        monkeypatch.setattr(_ArnoldiLadder, "__init__", counted_init)
        monkeypatch.setattr(construct, "np", CountedNumpy())
        return counts

    def test_build_builds_each_column_once(self, monkeypatch):
        counts = self.count_fits(monkeypatch)
        _, cert = build_universal_polynomial(desk_requirement(), F_ON_L, F_DEFAULT)
        degree = cert.fit_degree
        assert degree >= 4
        # degrees 2, 4, ..., degree on one ladder of columns 0..degree
        assert counts["fits"] == degree // 2
        assert counts["columns"] == 1 + degree

    def test_extend_builds_each_column_once(self, monkeypatch):
        counts = self.count_fits(monkeypatch)
        _, cert = extend_prefix([1.0, 0.5], CIRCLE_K, RECIPROCAL, 100, F_DEFAULT)
        degree = cert.fit_degree
        assert degree >= 2
        assert counts["fits"] == degree + 1
        assert counts["columns"] == 1 + degree

    def schedule_on_one_compact(self):
        quadratic = TargetFunction.poly([1.0, 0.0, 0.5])
        return [ExtensionRequirement(CIRCLE_K, psi, s)
                for psi, s in ((RECIPROCAL, 10), (quadratic, 50), (RECIPROCAL, 100))]

    def test_schedule_builds_each_column_once(self, monkeypatch):
        counts = self.count_fits(monkeypatch)
        _, certs = run_extension_schedule([0.0], self.schedule_on_one_compact(), F_DEFAULT)
        assert min(cert.fit_degree for cert in certs) >= 2
        assert len({cert.fit_degree for cert in certs}) > 1
        assert counts["fits"] == sum(cert.fit_degree + 1 for cert in certs)
        # each step weights its fit by z^(n0+1) of its own prefix, so each
        # step grows one ladder of its own
        assert counts["columns"] == sum(1 + cert.fit_degree for cert in certs)

    def test_schedule_equals_its_steps_alone(self):
        schedule = self.schedule_on_one_compact()
        coeffs, certs = run_extension_schedule([0.0], schedule, F_DEFAULT)
        alone, alone_certs = (0.0,), []
        for step in schedule:
            alone, cert = extend_prefix(alone, step.K, step.psi, step.s, F_DEFAULT)
            alone_certs.append(cert)
        assert np.array_equal(np.array(coeffs).view(np.int64), np.array(alone).view(np.int64))
        assert certs == alone_certs


class TestBuilder:
    def test_desk_scenario_passes(self):
        u, cert = build_universal_polynomial(desk_requirement(), F_ON_L, F_DEFAULT)
        assert cert.passed
        assert cert.perturbation != 0
        for key in ("2", "3", "4", "5"):
            assert cert.achieved[key] < cert.requested
        p, q = cert.selected
        assert u.array_degree() == p
        assert abs(u.coeffs[p] - cert.perturbation) == 0.0

    def test_j_absent_is_l(self, monkeypatch):
        # with no J the inner target is measured on the grid of L, which is
        # discretized once per build and once per verification, each after K
        req = dataclasses.replace(desk_requirement(levels=1), J=None)
        grids = []

        def counted(spec):
            grids.append(spec)
            return discretize(spec)

        monkeypatch.setattr(construct, "discretize", counted)
        u, cert = build_universal_polynomial(req, F_ON_L, F_DEFAULT)
        assert cert.passed and cert.diagnostics["by_identity"] is True
        assert grids == [req.K, req.L]
        again = verify_construction(u, req, cert.selected, F_ON_L)
        assert grids[2:] == [req.K, req.L]
        assert [(k, v.hex()) for k, v in again.achieved.items()] == [
            (k, v.hex()) for k, v in cert.achieved.items()
        ]
        assert {"4", "5", "J_taylor_d1"} <= set(cert.achieved) | set(cert.diagnostics)

    def test_exact_gluing_of_shared_polynomial(self):
        cubic = TargetFunction.poly([0.5, 0.0, -1.0, 0.25])
        req = RequirementSpec(K=SEGMENT_K, target_on_K=cubic, L=DISK_L, s=50, J=DISK_J)
        u, cert = build_universal_polynomial(req, cubic, F_DEFAULT)
        assert cert.passed
        p, _ = cert.selected
        sup_k = 3.0**p
        assert cert.achieved["3"] <= abs(cert.perturbation) * sup_k + 1e-9

    def test_build_is_independent_of_the_centers(self):
        # the fit is on K and J, the points the certificate measures; L holds
        # only the centers, so u and its certificate are the same at 16 and
        # at 1024 of them
        (u, cert), (wide_u, wide_cert) = (
            build_universal_polynomial(wide_requirement(n), WIDE_F_ON_L, F_WIDE)
            for n in (16, 1024)
        )
        assert (wide_u.center, wide_u.coeffs.tobytes()) == (u.center, u.coeffs.tobytes())
        assert json.dumps(wide_cert.to_json()) == json.dumps(cert.to_json())

    def test_zero_perturbation_never_passes(self):
        # d = 0 leaves u below degree p: its Hankel test fails and the trial is refused
        with pytest.raises(PerturbationFailedError) as info:
            build_universal_polynomial(desk_requirement(), F_ON_L, F_DEFAULT, d_override=0.0)
        assert (info.value.d, info.value.attempts) == (0.0, 1)

    def test_overlapping_compacts_rejected(self):
        req = RequirementSpec(
            K=CompactSpec([Segment(0.0, 1.0)], 16),
            target_on_K=TargetFunction.poly([1.0]),
            L=CompactSpec([Segment(0.5, 1.5)], 16),
            s=10,
        )
        with pytest.raises(ValueError):
            build_universal_polynomial(req, TargetFunction.poly([1.0]), F_DEFAULT)

    @pytest.mark.parametrize("name", ["L", "J"])
    def test_crossing_compacts_rejected(self, name):
        # the segments cross at 2 and share no grid point, which a sampled
        # check missed: crossing L certified, crossing J ended in FitFailedError
        crossing = CompactSpec([Segment(1.5, 2.5)], 64)
        req = dataclasses.replace(
            desk_requirement(), K=CompactSpec([Segment(2 - 0.5j, 2 + 0.5j)], 64),
            target_on_K=TargetFunction.poly([1.0]), **{name: crossing},
        )
        with pytest.raises(ValueError, match=f"^K and {name} overlap"):
            build_universal_polynomial(req, TargetFunction.poly([0.0]), F_DEFAULT)

    def test_short_index_sequence_exhausts(self):
        with pytest.raises(IndexExhaustedError):
            build_universal_polynomial(
                desk_requirement(), F_ON_L, IndexSequence([(1, 0), (2, 1)])
            )

    def test_monotone_improvement_with_s(self):
        _, loose = build_universal_polynomial(desk_requirement(s=25), F_ON_L, F_DEFAULT)
        _, tight = build_universal_polynomial(desk_requirement(s=100), F_ON_L, F_DEFAULT)
        assert loose.passed and tight.passed
        worst_loose = max(loose.achieved[k] for k in ("2", "3", "4", "5"))
        worst_tight = max(tight.achieved[k] for k in ("2", "3", "4", "5"))
        assert worst_tight <= worst_loose

    def test_self_reproduction_invariant(self):
        u, cert = build_universal_polynomial(desk_requirement(), F_ON_L, F_DEFAULT)
        zkj = np.concatenate(
            [discretize(SEGMENT_K).points, discretize(DISK_J).points]
        )
        sup_u = float(np.max(np.abs(u.eval(zkj))))
        assert cert.achieved["id_pade_l0"] <= 1e-9 * (1.0 + sup_u)
        assert cert.achieved["id_taylor_l0"] <= 1e-10 * (1.0 + sup_u)

    def test_boundary_split_scenario(self):
        # centers fill a boundary-inclusive half of the closed unit disk; the
        # outer compact touches the other half of the boundary at z = 1
        left_half = CompactSpec(
            [AnnulusSector(0.0, 0.0, 1.0, math.pi / 2, 3 * math.pi / 2)], 24
        )
        touching_k = CompactSpec([Segment(1.0, 2.0)], 48)
        target = TargetFunction.poly([0.0, 1.0, 1.0])  # z + z^2 on K
        req = RequirementSpec(
            K=touching_k, target_on_K=target, L=left_half, s=25,
            derivative_levels=2, J=left_half,
        )
        u, cert = build_universal_polynomial(req, target, F_DEFAULT)
        assert cert.passed
        boundary_centers = [
            z for z in discretize(left_half).points if abs(abs(z) - 1.0) <= 1e-12
        ]
        assert boundary_centers  # the split really includes boundary centers
        for level in range(3):
            bound = 1e-8 * (1.0 + cert.diagnostics[f"sup_u_d{level}"])
            assert cert.achieved[f"id_pade_l{level}"] <= bound
            assert cert.achieved[f"id_taylor_l{level}"] <= bound


class TestVerify:
    def test_reverification_is_deterministic(self):
        req = desk_requirement()
        u, cert = build_universal_polynomial(req, F_ON_L, F_DEFAULT)
        again = verify_construction(
            u,
            req,
            cert.selected,
            F_ON_L,
            perturbation=cert.perturbation,
            fit_degree=cert.fit_degree,
        )
        assert again.passed == cert.passed
        for key, value in cert.achieved.items():
            assert key in again.achieved
            assert abs(again.achieved[key] - value) <= 1e-12

    def test_trailing_zeros_keep_the_identity(self):
        # the degree decides, not the stored length: u padded by exact zeros
        # (-0.0 among them) up to p + q + 1 coefficients, or beyond, is measured as u
        req = desk_requirement(levels=1)
        u, cert = build_universal_polynomial(req, F_ON_L, F_DEFAULT)
        p, q = cert.selected
        assert q >= 1
        zeros = [complex(-0.0, 0.0)] + [0j] * (q - 1)
        padded = Polynomial(np.append(u.coeffs, zeros), u.center)
        again = verify_construction(padded, req, cert.selected, F_ON_L, fit_degree=cert.fit_degree)
        assert again.diagnostics["by_identity"] is True
        assert again == verify_construction(u, req, cert.selected, F_ON_L,
                                            fit_degree=cert.fit_degree)
        padded = Polynomial(np.append(u.coeffs, [0j] * (q + 1)), u.center)
        assert verify_construction(padded, req, cert.selected, F_ON_L,
                                   fit_degree=cert.fit_degree) == again

    def test_level_zero_entries_match_plain(self):
        req = desk_requirement(levels=2)
        u, cert = build_universal_polynomial(req, F_ON_L, F_DEFAULT)
        plain = verify_construction(
            u, dataclasses.replace(req, derivative_levels=0), cert.selected, F_ON_L,
            perturbation=cert.perturbation, fit_degree=cert.fit_degree,
        )
        for key in ("2", "3", "4", "5"):
            assert abs(plain.achieved[key] - cert.achieved[key]) <= 1e-12

    def test_build_measures_one_trial(self, monkeypatch):
        # the first pair above the fit, one d, one measurement, decided by identity
        calls = []
        call = construct._Measurement.__call__

        def counted(measurement, u, p, q, *args, **kwargs):
            calls.append((p, q))
            return call(measurement, u, p, q, *args, **kwargs)

        monkeypatch.setattr(construct._Measurement, "__call__", counted)
        f_seq = IndexSequence([(k, 2) for k in range(41)])
        u, cert = build_universal_polynomial(desk_requirement(), F_ON_L, f_seq)
        assert calls == [cert.selected] == [(cert.fit_degree + 1, 2)]
        assert cert.passed and cert.diagnostics["by_identity"] is True
        assert cert.hankel_min == abs(cert.perturbation) ** 2

    def test_perturbation_spends_half_the_headroom(self):
        # |u - T| <= r + |d| R^p = (1/s + r) / 2 on K and J, r the fit's error there
        req = desk_requirement()
        u, cert = build_universal_polynomial(req, F_ON_L, F_DEFAULT)
        p, _ = cert.selected
        zk, zj = discretize(req.K).points, discretize(req.inner_compact()).points
        fit = Polynomial(u.coeffs[:p])
        r = max(
            float(np.max(np.abs(fit.eval(zk) - req.target_on_K.evaluate(zk)))),
            float(np.max(np.abs(fit.eval(zj) - F_ON_L.evaluate(zj)))),
        )
        radius = float(np.max(np.abs(np.concatenate([zk, zj]))))
        assert cert.perturbation == (req.requested - r) / 2.0 / radius**p
        worst = max(cert.achieved[k] for k in ("2", "3", "4", "5"))
        assert worst <= (req.requested + r) / 2.0 * (1.0 + 1e-12)

    def test_failed_search_survives_an_exhausted_ramp(self, monkeypatch):
        # the one trial of (3, 2) fails its Hankel test, and the build
        # reports it with its one attempt
        fail_every_hankel_test(monkeypatch)
        calls = []
        call = construct._Measurement.__call__

        def counted(measurement, *args, **kwargs):
            calls.append(args[1:3])
            return call(measurement, *args, **kwargs)

        monkeypatch.setattr(construct._Measurement, "__call__", counted)
        with pytest.raises(PerturbationFailedError) as info:
            quadratic_build(IndexSequence([(3, 2)]))
        assert calls == [(3, 2)]
        assert (info.value.p, info.value.q, info.value.attempts) == (3, 2, 1)

    def test_pair_beyond_the_float_range_is_refused(self, monkeypatch):
        # 3^1100 overflows: d reads 0, nothing is measured, and the build
        # makes its one trial on the first fit of the ramp and no other
        calls, trials = [], []
        certify = construct._certify

        def counted(*args, **kwargs):
            trials.append(args[0])
            return certify(*args, **kwargs)

        monkeypatch.setattr(construct._Measurement, "__call__", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(construct, "_certify", counted)
        with pytest.raises(PerturbationFailedError) as info:
            build_universal_polynomial(desk_requirement(), F_ON_L, IndexSequence([(1100, 1)]))
        assert calls == []
        assert len(trials) == 1
        assert (info.value.p, info.value.q, info.value.d, info.value.attempts) == (1100, 1, 0.0, 0)

    def test_certificate_json_round_trip(self):
        _, cert = build_universal_polynomial(desk_requirement(), F_ON_L, F_DEFAULT)
        again = Certificate.from_json(cert.to_json())
        assert again == cert


def wide_requirement(centers):
    """The wide geometry (s = 200, levels 2) with a target whose fit stops at
    degree 22, so its first pair (23, 2) is refused."""
    return RequirementSpec(
        K=SEGMENT_K,
        target_on_K=TargetFunction.poly([0.5, 0.25j, -0.5]),
        L=CompactSpec([FilledDisk(0.0, 0.4)], centers),
        s=200,
        derivative_levels=2,
        J=DISK_J,
    )


WIDE_F_ON_L = TargetFunction.rational([1.0], [2.5, -1.0])
F_WIDE = IndexSequence([(k, 1 + k % 2) for k in range(61)])
DESK_POLES = (2.5, 2.5j, -2.5, 2.2 * np.exp(1j), 3.0 * np.exp(2j))
GREEDY_WEIGHTS = (0.6, 1.1, 1.2)


def desk_build(pole):
    """A desk-geometry build of the wide workload's target shape: 1/(a - z) on L."""
    target = TargetFunction.poly([0.5, 0.25j, -0.5])
    req = dataclasses.replace(desk_requirement(), target_on_K=target)
    return build_universal_polynomial(req, TargetFunction.rational([1.0], [pole, -1.0]), F_WIDE)


def greedy_steps(w):
    """The three-step schedule of the desk benchmark, every target scaled by ``w``."""
    schedule = [
        ExtensionRequirement(CIRCLE_K, TargetFunction.rational([w], [0.0, 1.0]), 10),
        ExtensionRequirement(CIRCLE_K, TargetFunction.poly([w, 0.0, 0.5 * w]), 50),
        ExtensionRequirement(CIRCLE_K, TargetFunction.rational([w], [0.0, 1.0]), 100),
    ]
    f_seq = IndexSequence([(k, k % 3) for k in range(61)])
    _, certs = run_extension_schedule([0.0], schedule, f_seq)
    return certs


def construct_frames_left(call):
    """Names of the frames of :mod:`construct` that a refused ``call`` leaves
    for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with pytest.raises(PadeUniversalError):
            call()
        gc.collect()
        return [
            obj.f_code.co_name for obj in gc.garbage
            if isinstance(obj, types.FrameType) and obj.f_code.co_filename == construct.__file__
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class TestRefusalsLeaveNoCycle:
    @pytest.mark.parametrize(
        "call, error, hankel_fails",
        [
            (lambda: quadratic_build(IndexSequence([(3, 2)])), PerturbationFailedError, True),
            (lambda: build_universal_polynomial(
                desk_requirement(), F_ON_L, IndexSequence([(1100, 1)])),
             PerturbationFailedError, False),
            (lambda: build_universal_polynomial(
                desk_requirement(s=10000), F_ON_L, F_DEFAULT), FitFailedError, False),
            (lambda: extend_prefix(
                [0.0], CIRCLE_K, RECIPROCAL, 10, IndexSequence([(1100, 1)])),
             PerturbationFailedError, False),
            (lambda: extend_prefix([0.0], CIRCLE_K, RECIPROCAL, 10, F_Q2),
             PerturbationFailedError, True),
        ],
        ids=["failed-build", "refused-build", "fit-failed-build", "refused-extension",
             "failed-extension"],
    )
    def test_no_construct_frame_is_left_for_the_collector(
        self, call, error, hankel_fails, monkeypatch
    ):
        # "failed": the one trial was measured and failed; "refused": d left
        # the float range, so nothing was measured
        if hankel_fails:
            fail_every_hankel_test(monkeypatch)
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        if error is PerturbationFailedError:
            assert info.value.attempts == (0 if info.value.p == 1100 else 1)
        del info
        assert construct_frames_left(call) == []


class TestExtendPrefix:
    def test_reciprocal_target(self):
        coeffs, cert = extend_prefix([0.0], CIRCLE_K, RECIPROCAL, 100, F_DEFAULT)
        assert cert.passed
        assert coeffs[0] == 0.0
        assert cert.achieved["3"] < 0.01
        assert cert.achieved["2"] < 0.01
        assert cert.diagnostics["prefix_metric"] < 1.0

    def test_prefix_polynomial_is_fixed_point(self):
        prefix = [1.0, -0.5, 0.25]
        psi = TargetFunction.poly(prefix)
        coeffs, cert = extend_prefix(prefix, CIRCLE_K, psi, 50, F_DEFAULT)
        assert cert.passed
        assert coeffs[:3] == (1.0, -0.5, 0.25)
        p_k, _ = cert.selected
        sup_k = float(np.max(np.abs(discretize(CIRCLE_K).points))) ** p_k
        assert cert.achieved["3"] <= abs(cert.perturbation) * sup_k * (1.0 + 1e-9) + 1e-12

    def test_origin_in_k_rejected(self):
        bad = CompactSpec([Segment(-1.0, 1.0)], 65)  # grid contains 0
        with pytest.raises(OriginInKError):
            extend_prefix([0.0], bad, RECIPROCAL, 10, F_DEFAULT)

    def test_prefix_survives_exactly(self, rng):
        prefix = random_coefficients(rng, 4)
        coeffs, cert = extend_prefix(
            prefix, CIRCLE_K, TargetFunction.poly([1.0, 1.0]), 20, F_DEFAULT
        )
        assert coeffs[:4] == tuple(prefix)
        padded = list(prefix) + [0j] * (len(coeffs) - 4)
        assert disagreement_metric(padded, list(coeffs)) < 0.5**3


class TestSchedule:
    def test_empty_schedule(self):
        coeffs, certs = run_extension_schedule([1.0, 2.0], [], F_DEFAULT)
        assert coeffs == (1.0, 2.0)
        assert certs == []

    def test_two_step_tightening(self):
        f_seq = IndexSequence([(k, k % 3) for k in range(61)])
        schedule = [
            ExtensionRequirement(CIRCLE_K, RECIPROCAL, 10),
            ExtensionRequirement(CIRCLE_K, RECIPROCAL, 100),
        ]
        coeffs, certs = run_extension_schedule([0.0], schedule, f_seq)
        assert all(c.passed for c in certs)
        assert certs[1].achieved["3"] < certs[0].requested

    def test_step_error_carries_index(self):
        schedule = [
            ExtensionRequirement(CIRCLE_K, RECIPROCAL, 10),
            ExtensionRequirement(CIRCLE_K, RECIPROCAL, 10),
        ]
        # a single pair: step 0 consumes it, step 1 finds nothing above it
        short = IndexSequence([(8, 0)])
        with pytest.raises(ScheduleStepError) as info:
            run_extension_schedule([0.0], schedule, short)
        assert info.value.step == 1
        assert isinstance(info.value.cause, IndexExhaustedError)


class TestRequirementJson:
    def test_requirement_round_trip(self):
        req = desk_requirement(levels=2)
        again = RequirementSpec.from_json(req.to_json())
        assert again == req
