"""Parity of prefix extensions with the scalar closure that measured them.

Extensions are the one-center case of the blocked verifier: L = {0}, K
alone, derivative level 0, with the labels "3" (Taylor) and "2" (Pade).
``oracle_extension_measure`` is the closure they used before, built from the
public scalar API only (``hankel_determinant``, ``pade_approximant``,
``disagreement_metric``).  Every trial an extension measures has degree
exactly ``p``, so the shared path decides its Hankel conclusion and its
approximant by identity: the Taylor sup "3" equals the closure's bit for
bit, the Pade sup "2" equals "3", and ``hankel_min`` is ``|d|^q``.  Where
the closure's float Hankel test passes its "2" is that same value; where it
fails (``|d|`` small against the coefficients below it), the exact
determinant of the same float coefficients is still nonzero.  The shared
path adds ``id_taylor_l0``, ``id_pade_l0`` (both exactly 0.0), ``sup_u_d0``
and ``by_identity``.  The prefix diagnostics are measured once, on the
returned extension, and compared there.  The closure's prefix gate
``prefix_metric < 0.5**n0`` underflowed for prefixes of 1076 or more
coefficients; the shared path checks the prefix by index instead
(``test_long_prefix_is_kept_verbatim``).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from pade_universal import construct
from pade_universal.compacts import Circle, CompactSpec, FilledDisk, Segment, discretize
from pade_universal.construct import (
    Certificate,
    ExtensionRequirement,
    IndexSequence,
    RequirementSpec,
    TargetFunction,
    _Measurement,
    build_universal_polynomial,
    extend_prefix,
    run_extension_schedule,
)
from pade_universal.errors import PadeNotExistError, PoleProximityError
from pade_universal.exact import QComplex, exact_hankel_determinant
from pade_universal.pade import hankel_determinant, pade_approximant
from pade_universal.series import DEFAULT_TOL, Polynomial, disagreement_metric

from conftest import PerCenter

CIRCLE_K = CompactSpec([Circle(2.0, 0.5)], 64)
GREEDY_F = IndexSequence([(k, k % 3) for k in range(61)])
#: Added by ``extend_prefix`` to the certificate it returns.
PREFIX_KEYS = {"prefix_metric", "prefix_length"}


def oracle_extension_measure(prefix, coeffs, d, pq, z, psi_vals, fit_degree, fit_residual,
                             requested, tol=DEFAULT_TOL):
    """The scalar extension closure: one Hankel test and one approximant at 0."""
    p_k, q_k = pq
    n0 = len(prefix) - 1
    h_poly = Polynomial(coeffs, 0.0)
    series = h_poly.to_series(p_k + q_k + 1)
    report = hankel_determinant(series, p_k, q_k, tol)
    h_vals = h_poly.eval(z)
    achieved = {"3": float(np.max(np.abs(h_vals - psi_vals)))}
    if report.nonvanishing:
        approximant = pade_approximant(series, p_k, q_k, tol)
        achieved["2"] = float(np.max(np.abs(approximant.eval(z) - psi_vals)))
    prefix_metric = disagreement_metric(
        list(prefix) + [0j] * (len(coeffs) - len(prefix)), coeffs
    )
    passed = bool(
        all(v < requested for v in achieved.values())
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
            "fit_residual": fit_residual,
        },
    )
    return cert, report.nonvanishing


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def exact_hankel_at_zero(coeffs, p: int, q: int):
    """The exact ``(p, q)`` Hankel determinant of the float ``coeffs`` at 0."""
    exact = [QComplex.of(c.real, c.imag) for c in np.asarray(coeffs, dtype=complex)]
    exact += [QComplex.zero()] * (p + q + 1 - len(exact))
    return exact_hankel_determinant(exact, p, q)


class Spy:
    """Records every extension measurement: ``steps`` holds one list per
    ``_certify`` call, each entry ``(cert, coeffs)`` with ``coeffs`` the
    polynomial the shared measurement was handed.  ``measures`` holds per
    step a ``measure(d, p, q)`` that measures one more trial the way that
    step's ``_certify`` does, rebuilt from the ``(fit, measurement,
    fit_degree, fit_residual)`` it received, and records it with the step."""

    def __init__(self, monkeypatch):
        self.steps: list[list] = []
        self.measures: list = []
        self._active: list = []
        call, certify = construct._Measurement.__call__, construct._certify

        def spied_call(measurement, u, p, q, perturbation, fit_degree):
            cert = call(measurement, u, p, q, perturbation, fit_degree)
            self._active.append((cert, u.coeffs.tolist()))
            return cert

        def spied_certify(fit, f_seq, measurement, fit_degree, fit_residual, *args):
            calls = []
            self.steps.append(calls)

            def measure(d, p, q):
                self._active = calls
                cert = measurement(fit.plus_monomial(d, p), p, q, d, fit_degree)
                cert.diagnostics["fit_residual"] = fit_residual
                return cert

            self.measures.append(measure)
            self._active = calls
            return certify(fit, f_seq, measurement, fit_degree, fit_residual, *args)

        monkeypatch.setattr(construct._Measurement, "__call__", spied_call)
        monkeypatch.setattr(construct, "_certify", spied_certify)


def assert_matches_oracle(calls, prefix, k_compact, psi, s):
    """Each recorded extension certificate against the closure's, and its
    Hankel conclusion against the exact determinant; returns the closure's
    float Hankel verdicts."""
    z = discretize(k_compact).points
    psi_vals = np.asarray(psi.evaluate(z))
    verdicts = []
    for cert, coeffs in calls:
        old, old_ok = oracle_extension_measure(
            prefix, coeffs, cert.perturbation, cert.selected, z, psi_vals,
            cert.fit_degree, cert.diagnostics["fit_residual"], 1.0 / s,
        )
        p, q = cert.selected
        verdicts.append(old_ok)
        assert not exact_hankel_at_zero(coeffs, p, q).is_zero()
        assert cert.diagnostics["by_identity"] is True
        assert cert.hankel_min == abs(cert.perturbation) ** q
        assert (cert.selected, cert.perturbation) == (old.selected, old.perturbation)
        assert cert.requested == old.requested and cert.fit_degree == old.fit_degree
        assert same_bits(cert.achieved["3"], old.achieved["3"])
        assert same_bits(cert.achieved["2"], cert.achieved["3"])
        if old_ok:
            assert same_bits(cert.achieved["2"], old.achieved["2"])
            assert cert.passed == old.passed
        for key, value in old.diagnostics.items():
            if key in cert.diagnostics or key not in PREFIX_KEYS | {"hankel_tau_max"}:
                assert same_bits(cert.diagnostics[key], value), key
        assert cert.achieved["id_taylor_l0"] == cert.achieved["id_pade_l0"] == 0.0
        assert set(cert.achieved) == {"3", "2", "id_taylor_l0", "id_pade_l0"}
        extra = set(cert.diagnostics) - set(old.diagnostics)
        assert extra == {"sup_u_d0", "by_identity"}
    return verdicts


@pytest.mark.parametrize("w", [0.5, 0.8, 1.0, 1.2])
def test_desk_greedy_steps(w, monkeypatch):
    """The benchmark's three-step greedy schedule, and extra measurements of
    each step at a q = 0 pair, at a tiny and a huge ``d``."""
    reciprocal = TargetFunction.rational([w], [0.0, 1.0])
    quadratic = TargetFunction.poly([w, 0.0, 0.5 * w])
    schedule = [
        ExtensionRequirement(CIRCLE_K, reciprocal, 10),
        ExtensionRequirement(CIRCLE_K, quadratic, 50),
        ExtensionRequirement(CIRCLE_K, reciprocal, 100),
    ]
    spy = Spy(monkeypatch)
    coeffs, certs = run_extension_schedule([0.0], schedule, GREEDY_F)
    assert all(cert.passed for cert in certs)
    prefix_length = 1
    verdicts = []
    for step, cert, measure, calls in zip(schedule, certs, spy.measures, spy.steps):
        p, q = cert.selected
        d = cert.perturbation
        assert PREFIX_KEYS <= set(cert.diagnostics)
        assert [trial for trial, _ in calls] == [cert]
        for extra in ((d, p + 3 - p % 3, 0), (1e-30 * d, p, q), (1e6 * d, p, q),
                      (1e-30 * d, p, 2)):
            measure(*extra)
        verdicts += assert_matches_oracle(calls, coeffs[:prefix_length], step.K, step.psi, step.s)
        prefix_length = p + 1
    measured = [trial for calls in spy.steps for trial, _ in calls]
    assert any(cert.selected[1] == 0 and cert.passed for cert in measured)
    assert any(not cert.passed and "2" in cert.achieved for cert in measured)
    # the tiny q = 2 trials fail the closure's float test, never the exact one
    assert False in verdicts


def test_float_hankel_failure_refuses_the_padded_trial(monkeypatch):
    """q = 2 at s = 1000: a ``d`` small against the coefficient below it fails
    the float Hankel test where the general path measures the trial (padded
    by one zero coefficient as a ``PerCenter``), so that measurement raises; the trial itself
    holds by identity, and the exact determinant agrees with the identity."""
    spy = Spy(monkeypatch)
    psi = TargetFunction.rational([1.5], [0.0, 1.0])
    f_seq = IndexSequence([(k, 2) for k in range(61)])
    _, cert = extend_prefix([0.0], CIRCLE_K, psi, 1000, f_seq)
    assert cert.passed
    (calls,) = spy.steps
    (measure,) = spy.measures
    p, q = cert.selected
    tiny = measure(1e-30 * cert.perturbation, p, q)
    assert {"2", "id_pade_l0"} <= set(tiny.achieved)
    trials = list(calls)
    z = discretize(CIRCLE_K).points
    measurement = _Measurement(lambda: np.zeros(1, dtype=complex),
                               [(z, psi, "3", "2", "K")], 0, DEFAULT_TOL, 1e-3)
    coeffs = calls[-1][1]
    with pytest.raises(PadeNotExistError) as refused:
        measurement(PerCenter(coeffs + [0j]), p, q, tiny.perturbation, 0)
    assert refused.value.report.center == 0 and not refused.value.report.nonvanishing
    assert not exact_hankel_at_zero(coeffs, p, q).is_zero()
    assert_matches_oracle(trials, [0.0], CIRCLE_K, psi, 1000)


@pytest.mark.parametrize("q_only", [None, 2])
def test_trials_reuse_the_taylor_sums(q_only, monkeypatch):
    """Every q >= 1 trial of the greedy schedule (and of a q = 2 extension),
    with extra trials at a large and a small ``d``: where the trial padded by one zero
    coefficient as a ``PerCenter`` passes the float Hankel test, the general path it takes
    gives the same sups bit for bit; where it fails, that path raises and the
    exact determinant of the trial is nonzero, as the identity says."""
    reciprocal = TargetFunction.rational([1.0], [0.0, 1.0])
    if q_only is None:
        f_seq = GREEDY_F
        quadratic = TargetFunction.poly([1.0, 0.0, 0.5])
        schedule = [
            ExtensionRequirement(CIRCLE_K, reciprocal, 10),
            ExtensionRequirement(CIRCLE_K, quadratic, 50),
            ExtensionRequirement(CIRCLE_K, reciprocal, 100),
        ]
    else:
        f_seq = IndexSequence([(k, q_only) for k in range(61)])
        psi = TargetFunction.rational([1.5], [0.0, 1.0])
        schedule = [ExtensionRequirement(CIRCLE_K, psi, 1000)]
    spy = Spy(monkeypatch)
    run_extension_schedule([0.0], schedule, f_seq)
    for (cert, _), measure in zip([calls[-1] for calls in spy.steps], spy.measures):
        p, q = cert.selected
        for scale in (1e6, 1e-9):
            measure(scale * cert.perturbation, p, max(q, 1))
    steps = [list(calls) for calls in spy.steps]
    compared = []
    for step, calls in zip(schedule, steps):
        z = discretize(step.K).points
        measurement = _Measurement(lambda: np.zeros(1, dtype=complex),
                                   [(z, step.psi, "3", "2", "K")], 0, DEFAULT_TOL, 1.0 / step.s)
        for cert, coeffs in calls:
            p, q = cert.selected
            if q == 0:
                continue
            args = (p, q, cert.perturbation, cert.fit_degree)
            fast = measurement(Polynomial(coeffs), *args)
            assert fast.achieved == cert.achieved and "id_pade_l0" in fast.achieved
            try:
                general = measurement(PerCenter(coeffs + [0j]), *args)
            except PadeNotExistError:
                assert not exact_hankel_at_zero(coeffs, p, q).is_zero()
                compared.append(False)
            else:
                assert general.achieved == fast.achieved
                compared.append(True)
    assert True in compared and False in compared


def test_long_prefix_is_kept_verbatim(monkeypatch):
    """A prefix of 1100 coefficients, where ``2^-n0`` underflows to 0.0 (the
    closure's prefix gate failed here): the extension certifies at the first
    pair and first ``d``, and keeps the prefix bit for bit."""
    spy = Spy(monkeypatch)
    k_compact = CompactSpec([Circle(0.0, 1.0)], 64)
    psi = TargetFunction.poly([0.0])
    prefix = [0.0] * 1100
    coeffs, cert = extend_prefix(prefix, k_compact, psi, 10, IndexSequence([(1100, 1), (1101, 0)]))
    assert cert.passed and cert.selected == (1100, 1)
    assert len(coeffs) == 1101 and coeffs[1100] == cert.perturbation != 0
    kept = np.array(coeffs[:1100]).view(np.uint64)
    assert np.array_equal(kept, np.array(prefix, dtype=complex).view(np.uint64))
    assert cert.diagnostics["prefix_length"] == 1100.0
    assert cert.diagnostics["prefix_metric"] == 0.5**1100 == 0.0
    ((trial, _),) = spy.steps[0]
    assert trial is cert and "2" in trial.achieved and trial.sup_ok


def test_pole_next_to_k_raises_at_the_same_point():
    """A (3, 1) approximant at 0 with its pole on the 5th point of K."""
    z = discretize(CIRCLE_K).points
    psi = TargetFunction.rational([1.0], [0.0, 1.0])
    coeffs = [0j, 0j, 0j, complex(z[5]), 1.0 + 0j]
    measurement = _Measurement(lambda: np.zeros(1, dtype=complex),
                               [(z, psi, "3", "2", "K")], 0, DEFAULT_TOL, 0.1)
    with pytest.raises(PoleProximityError) as old:
        oracle_extension_measure([0j], coeffs, 1.0, (3, 1), z, psi.evaluate(z), 0, 0.0, 0.1)
    with pytest.raises(PoleProximityError) as new:
        measurement(Polynomial(coeffs), 3, 1, 1.0, 0)
    assert complex(new.value.point) == complex(old.value.point) == z[5]
    assert new.value.args == old.value.args


class TestTargetEvaluations:
    """Targets are evaluated once per requirement, not once per ``d`` tried."""

    @staticmethod
    def count(monkeypatch) -> list:
        seen = []
        level_values = TargetFunction.level_values

        def counted(self, *args, **kwargs):
            seen.append(self)
            return level_values(self, *args, **kwargs)

        monkeypatch.setattr(TargetFunction, "level_values", counted)
        return seen

    def test_build(self, monkeypatch):
        outer = TargetFunction.poly([0.5, -0.2 + 1j, -0.3 - 0.6j])
        inner = TargetFunction.rational([1.0], [-1.0 + 1.73j, -1.0])
        req = RequirementSpec(
            K=CompactSpec([Segment(2.0, 3.0)], 64), target_on_K=outer,
            L=CompactSpec([FilledDisk(0.0, 0.4)], 16), s=50, derivative_levels=1,
            J=CompactSpec([FilledDisk(0.0, 0.6)], 64),
        )
        seen = self.count(monkeypatch)
        _, cert = build_universal_polynomial(
            req, inner, IndexSequence([(k, 1 + k % 2) for k in range(61)])
        )
        assert cert.passed
        # the measurement: K and J, every level in one call each; the fit reads
        # its values on K and J from it and evaluates nothing on L
        assert sum(t is outer for t in seen) == 1
        assert sum(t is inner for t in seen) == 1
        assert len(seen) == 2

    def test_extension(self, monkeypatch):
        psi = TargetFunction.rational([1.5], [0.0, 1.0])
        seen = self.count(monkeypatch)
        f_seq = IndexSequence([(k, 2) for k in range(61)])
        _, cert = extend_prefix([0.0], CIRCLE_K, psi, 1000, f_seq)
        assert cert.passed
        # once, for the fit and the measurement
        assert len(seen) == 1 and seen[0] is psi
