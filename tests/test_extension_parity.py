"""Parity of prefix extensions with the scalar closure that measured them.

Extensions are the one-center case of the blocked verifier: L = {0}, K
alone, derivative level 0, with the labels "3" (Taylor) and "2" (Pade).
``oracle_extension_measure`` is the closure they used before, built from the
public scalar API only (``hankel_determinant``, ``pade_approximant``,
``disagreement_metric``).  Every quantity it reports must come out bit for
bit the same through the shared path, with the same decisions and the same
errors at the same point; the shared path adds only ``id_taylor_l0``,
``id_pade_l0`` (both exactly 0.0) and ``sup_u_d0``.  The prefix
diagnostics are measured once, on the returned extension, and compared
there.  The closure's prefix gate ``prefix_metric < 0.5**n0`` underflowed
for prefixes of 1076 or more coefficients; the shared path checks the
prefix by index instead (``test_long_prefix_is_kept_verbatim``).
"""

from __future__ import annotations

import json
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
from pade_universal.errors import PoleProximityError
from pade_universal.pade import hankel_determinant, pade_approximant
from pade_universal.series import DEFAULT_TOL, Polynomial, disagreement_metric

CIRCLE_K = CompactSpec([Circle(2.0, 0.5)], 64)
GREEDY_F = IndexSequence([(k, k % 3) for k in range(61)])
#: Added by the perturbation search to the certificate it returns.
SEARCH_KEYS = {"d_window_lo", "d_window_hi", "d_attempts"}
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
        achieved["2"] = float(np.max(np.abs(approximant.eval(z, tol) - psi_vals)))
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


class Spy:
    """Records every extension measurement: ``steps`` holds one list per
    ``_certify`` call, each entry ``(cert, coeffs)`` with ``coeffs`` the
    polynomial the shared measurement was handed.  ``measures`` holds per
    step a ``measure(d, p, q)`` that measures one more trial the way that
    step's ``_certify`` does, rebuilt from the ``(fit, measurement,
    fit_degree, diagnostics)`` it received, and records it with the step."""

    def __init__(self, monkeypatch):
        self.steps: list[list] = []
        self.measures: list = []
        self._active: list = []
        call, certify = construct._Measurement.__call__, construct._certify

        def spied_call(measurement, u, p, q, perturbation, fit_degree, strict):
            cert = call(measurement, u, p, q, perturbation, fit_degree, strict)
            self._active.append((cert, u.coeffs.tolist()))
            return cert

        def spied_certify(fit, min_degree, f_seq, measurement, s, sup_abs, fit_degree,
                          diagnostics, *args):
            calls = []
            self.steps.append(calls)

            def measure(d, p, q):
                self._active = calls
                cert = measurement(fit.plus_monomial(d, p), p, q, d, fit_degree, strict=False)
                cert.diagnostics.update(diagnostics)
                return cert

            self.measures.append(measure)
            self._active = calls
            return certify(fit, min_degree, f_seq, measurement, s, sup_abs, fit_degree,
                           diagnostics, *args)

        monkeypatch.setattr(construct._Measurement, "__call__", spied_call)
        monkeypatch.setattr(construct, "_certify", spied_certify)


def assert_matches_oracle(calls, prefix, k_compact, psi, s):
    """Each recorded extension certificate against the closure's; the
    prefix diagnostics only where a certificate carries them."""
    z = discretize(k_compact).points
    psi_vals = np.asarray(psi.evaluate(z))
    for cert, coeffs in calls:
        old, old_ok = oracle_extension_measure(
            prefix, coeffs, cert.perturbation, cert.selected, z, psi_vals,
            cert.fit_degree, cert.diagnostics["fit_residual"], 1.0 / s,
        )
        assert cert.hankel_ok == old_ok
        assert (cert.selected, cert.perturbation, cert.passed) == (
            old.selected, old.perturbation, old.passed
        )
        assert same_bits(cert.hankel_min, old.hankel_min)
        assert cert.requested == old.requested and cert.fit_degree == old.fit_degree
        for key, value in old.achieved.items():
            assert same_bits(cert.achieved[key], value), key
        for key, value in old.diagnostics.items():
            if key in cert.diagnostics or key not in PREFIX_KEYS:
                assert same_bits(cert.diagnostics[key], value), key
        added = set(cert.achieved) - set(old.achieved)
        assert added == ({"id_taylor_l0", "id_pade_l0"} if "2" in old.achieved
                         else {"id_taylor_l0"})
        assert all(cert.achieved[key] == 0.0 for key in added)
        extra = set(cert.diagnostics) - set(old.diagnostics) - SEARCH_KEYS
        assert extra == {"sup_u_d0"}


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
    for step, cert, measure, calls in zip(schedule, certs, spy.measures, spy.steps):
        p, q = cert.selected
        d = cert.perturbation
        assert PREFIX_KEYS <= set(cert.diagnostics)
        assert any(trial is cert for trial, _ in calls)
        for extra in ((d, p + 3 - p % 3, 0), (1e-30 * d, p, q), (1e6 * d, p, q),
                      (1e-30 * d, p, 2)):
            measure(*extra)
        assert_matches_oracle(calls, coeffs[:prefix_length], step.K, step.psi, step.s)
        prefix_length = p + 1
    measured = [trial for calls in spy.steps for trial, _ in calls]
    assert any(cert.selected[1] == 0 and cert.passed for cert in measured)
    assert any(not cert.passed and cert.hankel_ok for cert in measured)


def test_hankel_failure_drops_the_pade_sup(monkeypatch):
    """q = 2: a ``d`` small against the coefficient below it fails the Hankel
    test, so "2" is absent and the search moves ``d`` up."""
    spy = Spy(monkeypatch)
    psi = TargetFunction.rational([1.5], [0.0, 1.0])
    f_seq = IndexSequence([(k, 2) for k in range(61)])
    _, cert = extend_prefix([0.0], CIRCLE_K, psi, 1000, f_seq)
    assert cert.passed and cert.diagnostics["d_attempts"] > 1
    (calls,) = spy.steps
    failed = [trial for trial, _ in calls if not trial.hankel_ok]
    assert failed and all("2" not in c.achieved and not c.passed for c in failed)
    assert_matches_oracle(calls, [0.0], CIRCLE_K, psi, 1000)


@pytest.mark.parametrize("q_only", [None, 2])
def test_trials_reuse_the_taylor_sums(q_only, monkeypatch):
    """Every q >= 1 trial of the greedy schedule (and of a q = 2 extension,
    whose small ``d`` fail the Hankel test): its certificate equals, in JSON,
    that of the trial padded by one zero coefficient, which the measurement
    takes through the denominator solve."""
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
    steps = [list(calls) for calls in spy.steps]
    compared = []
    for step, calls in zip(schedule, steps):
        z = discretize(step.K).points
        measurement = _Measurement(np.zeros(1, dtype=complex), [(z, step.psi, "3", "2", "K")], 0,
                                   DEFAULT_TOL, 1.0 / step.s)
        for cert, coeffs in calls:
            p, q = cert.selected
            if q == 0:
                continue
            args = (p, q, cert.perturbation, cert.fit_degree)
            fast = measurement(Polynomial(coeffs), *args, strict=False)
            general = measurement(Polynomial(coeffs + [0j]), *args, strict=False)
            assert json.dumps(fast.to_json()) == json.dumps(general.to_json())
            assert fast.achieved == cert.achieved
            compared.append(fast.hankel_ok)
    assert True in compared and (q_only is None or False in compared)


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
    assert cert.diagnostics["d_attempts"] == 1
    assert len(coeffs) == 1101 and coeffs[1100] == cert.perturbation != 0
    kept = np.array(coeffs[:1100]).view(np.uint64)
    assert np.array_equal(kept, np.array(prefix, dtype=complex).view(np.uint64))
    assert cert.diagnostics["prefix_length"] == 1100.0
    assert cert.diagnostics["prefix_metric"] == 0.5**1100 == 0.0
    ((trial, _),) = spy.steps[0]
    assert trial is cert and trial.hankel_ok and trial.sup_ok


def test_pole_next_to_k_raises_at_the_same_point():
    """A (3, 1) approximant at 0 with its pole on the 5th point of K."""
    z = discretize(CIRCLE_K).points
    psi = TargetFunction.rational([1.0], [0.0, 1.0])
    coeffs = [0j, 0j, 0j, complex(z[5]), 1.0 + 0j]
    measurement = _Measurement(np.zeros(1, dtype=complex), [(z, psi, "3", "2", "K")], 0,
                               DEFAULT_TOL, 0.1)
    with pytest.raises(PoleProximityError) as old:
        oracle_extension_measure([0j], coeffs, 1.0, (3, 1), z, psi.evaluate(z), 0, 0.0, 0.1)
    with pytest.raises(PoleProximityError) as new:
        measurement(Polynomial(coeffs), 3, 1, 1.0, 0, strict=False)
    assert complex(new.value.point) == complex(old.value.point) == z[5]
    assert new.value.args == old.value.args


class TestTargetEvaluations:
    """Targets are evaluated once per requirement, not once per ``d`` tried."""

    @staticmethod
    def count(monkeypatch) -> list:
        seen = []
        evaluate = TargetFunction.evaluate

        def counted(self, *args, **kwargs):
            seen.append(self)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(TargetFunction, "evaluate", counted)
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
        assert cert.passed and cert.diagnostics["d_attempts"] > 1
        # the fit: K, L and J; the measurement: K and J, and their derivatives
        assert sum(t is outer for t in seen) == 2
        assert sum(t is inner for t in seen) == 3
        assert len(seen) == 7

    def test_extension(self, monkeypatch):
        psi = TargetFunction.rational([1.5], [0.0, 1.0])
        seen = self.count(monkeypatch)
        f_seq = IndexSequence([(k, 2) for k in range(61)])
        _, cert = extend_prefix([0.0], CIRCLE_K, psi, 1000, f_seq)
        assert cert.passed and cert.diagnostics["d_attempts"] > 1
        # once, for the fit and the measurement
        assert len(seen) == 1 and seen[0] is psi
