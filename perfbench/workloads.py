"""Seeded workloads: inputs, requests and output checks.

Each workload turns the benchmark seed into a fixed list of *cycles*, one
*pass*.  A single closed-loop client runs the cycles in order, sending each
request only after the previous one has completed, and replays the pass
until the run's time is up.  The program keeps no cache, so a replayed
cycle does the same work again; its outputs must match the first pass
exactly.

Why each workload looks the way it does (figures from a shared 2-CPU x86
box, Python 3.11, numpy 2.4):

``wide``
    Certified builds, each followed by ``verify_construction`` of its
    output, through the library API: K = Segment(2, 3) with 64 points,
    L = FilledDisk(0, 0.4) with 1024 centers, J = FilledDisk(0, 0.6) with
    64 points, s = 200, derivative levels 2, F = (k, 1 + k mod 2) for
    k <= 60.  Almost all of the time goes to the per-center verify loop
    (recenter, Hankel test, Pade construction and evaluation per center),
    so this is where a batched verifier shows.
    - s = 200, not 1000: at s = 1000 only 1 of 30 off-axis-pole targets
      certifies, because ``id_taylor_l0`` sits near 2.5e-3 at fit degree
      ~30, the float64 floor.
    - F = (k, 1 + k mod 2): the demo's (k, k mod 3) certifies at q = 0 on
      this geometry, where the Pade step is trivial.
    - Every target comes from the frozen ``wide`` pool of ``inputs.json``:
      targets whose fit ramp stopped at degree 22 when the pool was made,
      so that every build selected p = 24, q = 1 and cost about the same.
      Lower degrees are cheaper, and a mix of them made a run's median
      depend on the draw (spread 10% over five seeds, against 2.4% with
      degree 22 only).  Degree 24 is left out because it is not feasible
      in general: of 31 such targets re-measured at 1024 centers, 5 miss
      1/s (the level-2 identity sup reaches 0.8-1.2 / s), and the
      perturbation search then runs 60 measure calls per index pair before
      ``PerturbationFailedError`` (minutes at 1024 centers).  Those
      infeasible requests are not timed here; they become a workload once
      the search is bounded.  Degree-22 targets stay below 0.67 / s.  The
      seed picks a subset of the pool; the program is never asked which
      inputs to use, so every commit is measured on the same inputs.

``desk``
    File-driven requests through ``cli.main([...])`` in-process.  Each
    cycle is ``build`` -> ``verify`` of the saved record -> ``greedy``.
    ``build`` uses the acceptance desk geometry (16 centers, s = 50,
    levels 0) with the same seeded targets and F as ``wide``; every tenth
    ``build`` asks for s = 10^4, below the float64 fit floor (5.4e-5), and
    must end in exit 4.  ``greedy`` runs the three-step schedule of
    acceptance criterion 6 on Circle(2, 0.5), every target scaled by a
    seeded weight w in [0.5, 1.5].  The per-center loop is small here, so
    fixed per-request costs dominate: grids, the overlap check, the fit
    ramp, record JSON and CLI dispatch.
    - Three steps, not six: six-step schedules end in ``FitFailedError`` on
      every geometry tried at s >= 50.  A weight above about 1.21 makes the
      schedule refuse at step 2 with ``FitFailedError``; those stay in the
      stream as typed refusals, and each costs about six certified
      schedules.  So the weights sit within a tenth of a stratum of the
      midpoints of 20 equal strata of [0.5, 1.5]: every pass then holds
      the same six heavy weights whatever the seed (with one draw per
      stratum, the stratum holding 1.21 made it five or six, and the pass
      time moved by 10%).  Pole moduli and arguments are drawn one per
      stratum.
    - The s = 10^4 builds use targets of the frozen ``desk_refusal`` pool
      of ``inputs.json``, whose fit ramp refused when the pool was made:
      about one target in twelve fits below 1/(2 s), and its build then
      spends seconds in a perturbation search before exit 6.  If a later
      program fits them, the check reports it: they must end in exit 4.

``table``
    One length-64 series per request, from five families in turn: exp(rho
    z), -log(1 - z)/z, a geometric series with ratio rho e^{i theta},
    random complex coefficients, and the exact Taylor expansion of an
    exact-degree rational about a random center.  Each request runs
    ``emit_pade_table(f, 30, 30)`` (961 cells), then ``pade_approximant`` and
    ``order_condition_residual`` over p < 20, 0 <= q < 12, which covers both
    the Jacobi route (q <= 6) and the Toeplitz solve.  This is the ``pade``
    layer with no recentering: a costlier Hankel test shows here, not in
    ``wide``, whose certificates sit at q = 1.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

import pade_universal.cli as cli
import pade_universal.construct as construct
import pade_universal.exact as exact
import pade_universal.pade as pade
import pade_universal.reporting as reporting
from pade_universal.compacts import Circle, CompactSpec, FilledDisk, Segment, discretize
from pade_universal.errors import (
    DegenerateDenominatorError,
    FitFailedError,
    IndexExhaustedError,
    PadeNotExistError,
    PerturbationFailedError,
)
from pade_universal.series import FormalPowerSeries, Polynomial

#: The re-verification rule of ``cli verify``.
VERIFY_MAX_DEVIATION = 1e-12
#: Acceptance criterion 2: residual bound on cells decidable in doubles.
DECIDABLE_FLOOR = 1e-10
RESIDUAL_BOUND = 1e-8
#: CLI exit codes of typed refusals: fit ramp, index sequence, perturbation.
REFUSAL_EXITS = {4, 5, 6}
LIBRARY_REFUSALS = (FitFailedError, IndexExhaustedError, PerturbationFailedError)
#: Frozen target pools, screened once with the program (see make_inputs.py).
INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.json")


@dataclass
class Request:
    """One timed request; ``outcome`` is certified, refused, done or error."""

    kind: str
    seconds: float
    outcome: str
    extra: dict = field(default_factory=dict)


def _uniform_pair(rng) -> complex:
    re, im = rng.uniform(-1.0, 1.0, 2)
    return complex(re, im)


def _near_midpoints(rng, n: int) -> list[float]:
    """The midpoints of n equal strata of [0, 1), each moved by at most a
    tenth of a stratum, shuffled."""
    return [(k + 0.5 + 0.1 * rng.uniform(-1.0, 1.0)) / n for k in rng.permutation(n)]


def _stratified(rng, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [0, 1), shuffled.

    A pass then covers the whole parameter range, so its mix of cheap and
    costly inputs changes little from seed to seed.
    """
    return [(k + rng.uniform()) / n for k in rng.permutation(n)]


def draw_target(rng, modulus_u: float, argument_u: float) -> dict:
    """Inner 1/(a - z) with |a| in [2, 3]; outer a random complex quadratic.

    ``modulus_u`` and ``argument_u`` in [0, 1) place the pole ``a``.  The
    target is returned as plain numbers, each complex as [re, im], the form
    ``inputs.json`` stores.
    """
    a = (2.0 + modulus_u) * cmath.exp(2j * math.pi * argument_u)
    outer = [_uniform_pair(rng) for _ in range(3)]
    return {"pole": [a.real, a.imag], "outer": [[c.real, c.imag] for c in outer]}


def targets(entry: dict):
    """The inner and outer ``TargetFunction`` of a drawn or stored target."""
    a = complex(*entry["pole"])
    inner = construct.TargetFunction.rational([1.0], [a, -1.0])
    outer = construct.TargetFunction.poly([complex(*c) for c in entry["outer"]])
    return inner, outer


def requirement(outer, centers: int, s: int, levels: int):
    return construct.RequirementSpec(
        K=CompactSpec([Segment(2.0, 3.0)], 64),
        target_on_K=outer,
        L=CompactSpec([FilledDisk(0.0, 0.4)], centers),
        s=s,
        derivative_levels=levels,
        J=CompactSpec([FilledDisk(0.0, 0.6)], 64),
    )


def _pool(name: str, rng, n: int) -> list[dict]:
    """n distinct targets of a frozen pool of ``inputs.json``, seeded."""
    with open(INPUTS, "r", encoding="utf-8") as handle:
        pool = json.load(handle)[name]
    return [pool[k] for k in rng.choice(len(pool), size=n, replace=False)]


BUILD_F = construct.IndexSequence([(k, 1 + k % 2) for k in range(61)])
GREEDY_F = construct.IndexSequence([(k, k % 3) for k in range(61)])


def _center_oracle(u, centers, p: int, q: int) -> list[int]:
    """``[agreeing, compared]``: the float Hankel verdict of each center's
    recentered series, as the verifier forms it, against the exact oracle on
    the same float coefficients."""
    agree = 0
    for zeta in centers:
        series = u.recenter(zeta).to_series(p + q + 1)
        floating = pade.hankel_determinant(series, p, q).nonvanishing
        coeffs = [exact.QComplex.of(c.real, c.imag) for c in series.coeffs]
        agree += floating == (not exact.exact_hankel_determinant(coeffs, p, q).is_zero())
    return [agree, len(centers)]


def _max_deviation(built, verified) -> tuple[float, list[str]]:
    missing = [k for k in built if k not in verified]
    devs = [abs(verified[k] - built[k]) for k in built if k in verified]
    return (max(devs) if devs else 0.0), missing


class Wide:
    """Library-API builds at 1024 centers, each re-verified."""

    name = "wide"
    pass_length = 3
    traced_cycles = 2
    centers = 1024
    s = 200
    levels = 2
    fit_degree = 22

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for entry in _pool("wide", rng, self.pass_length):
            inner, outer = targets(entry)
            self.inputs.append((inner, requirement(outer, self.centers, self.s, self.levels)))

    def run_cycle(self, i: int, clock=perf_counter):
        inner, req = self.inputs[i]
        start = clock()
        try:
            u, cert = construct.build_universal_polynomial(req, inner, BUILD_F)
        except LIBRARY_REFUSALS as exc:
            elapsed = clock() - start
            return [Request("build", elapsed, "refused")], {"refusal": exc}
        elapsed = clock() - start
        requests = [Request("build", elapsed, "certified" if cert.passed else "error")]
        start = clock()
        verified = construct.verify_construction(
            u, req, cert.selected, inner,
            perturbation=cert.perturbation, fit_degree=cert.fit_degree,
        )
        elapsed = clock() - start
        requests.append(Request("verify", elapsed, "certified" if verified.passed else "error"))
        return requests, {"u": u, "cert": cert, "verified": verified}

    def check(self, i: int, evidence) -> list[str]:
        if "refusal" in evidence:
            return []  # a typed library error: correct, not certified
        cert, verified = evidence["cert"], evidence["verified"]
        dev, missing = _max_deviation(cert.achieved, verified.achieved)
        problems = []
        if not (cert.passed and verified.passed):
            problems.append(f"cycle {i}: certificate did not pass on re-verification")
        if missing or dev > VERIFY_MAX_DEVIATION:
            problems.append(f"cycle {i}: re-verification deviates by {dev:.3e}, missing {missing}")
        return problems

    def fingerprint(self, evidence) -> str:
        if "refusal" in evidence:
            return repr(evidence["refusal"])
        return json.dumps(
            [evidence["cert"].to_json(), evidence["verified"].to_json()], sort_keys=True
        )

    def oracle(self, evidence_by_cycle: dict) -> dict:
        """Hankel verdicts at every center of each certified build (see
        ``_center_oracle``), as ``{"build": [agreeing, compared]}``."""
        counts = [0, 0]
        for i, evidence in sorted(evidence_by_cycle.items()):
            if "cert" in evidence and evidence["cert"].passed:
                _, req = self.inputs[i]
                p, q = evidence["cert"].selected
                agree, compared = _center_oracle(evidence["u"], discretize(req.L).points, p, q)
                counts[0] += agree
                counts[1] += compared
        return {"build": counts}


class Desk:
    """CLI build -> verify -> greedy cycles on the acceptance desk geometry."""

    name = "desk"
    pass_length = 20
    traced_cycles = 10
    centers = 16
    s = 50
    refusal_s = 10**4
    refusal_every = 10

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        n = self.pass_length
        self.paths = []
        self.requirements = []
        strata = zip(_stratified(rng, n), _stratified(rng, n), _near_midpoints(rng, n))
        refusals = iter(_pool("desk_refusal", rng, n // self.refusal_every))
        for i, (modulus, argument, weight) in enumerate(strata):
            if self._expects_fit_refusal(i):
                entry = next(refusals)
            else:
                entry = draw_target(rng, modulus, argument)
            inner, outer = targets(entry)
            s = self.refusal_s if self._expects_fit_refusal(i) else self.s
            req = requirement(outer, self.centers, s, 0)
            build = {"requirement": req.to_json(), "f_on_L": inner.to_json(), "F": BUILD_F.to_json()}
            w = 0.5 + weight
            circle = CompactSpec([Circle(2.0, 0.5)], 64)
            reciprocal = construct.TargetFunction.rational([w], [0.0, 1.0])
            quadratic = construct.TargetFunction.poly([w, 0.0, 0.5 * w])
            schedule = [
                construct.ExtensionRequirement(circle, reciprocal, 10),
                construct.ExtensionRequirement(circle, quadratic, 50),
                construct.ExtensionRequirement(circle, reciprocal, 100),
            ]
            greedy = {
                "prefix": [[0.0, 0.0]],
                "schedule": [step.to_json() for step in schedule],
                "F": GREEDY_F.to_json(),
            }
            paths = {
                "build": os.path.join(workdir, f"build_{i}.json"),
                "build_out": os.path.join(workdir, f"build_{i}.out.json"),
                "greedy": os.path.join(workdir, f"greedy_{i}.json"),
                "greedy_out": os.path.join(workdir, f"greedy_{i}.out.json"),
            }
            for key, scenario in (("build", build), ("greedy", greedy)):
                with open(paths[key], "w", encoding="utf-8") as handle:
                    json.dump(scenario, handle)
            self.paths.append(paths)
            self.requirements.append(req)

    def _expects_fit_refusal(self, i: int) -> bool:
        return i % self.refusal_every == self.refusal_every - 1

    @staticmethod
    def _cli(argv, clock):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = clock()
            code = cli.main(argv)
            elapsed = clock() - start
        return code, elapsed, out.getvalue(), err.getvalue()

    @staticmethod
    def _read(path):
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    @staticmethod
    def _outcome(code: int) -> str:
        if code == 0:
            return "certified"
        return "refused" if code in REFUSAL_EXITS else "error"

    def run_cycle(self, i: int, clock=perf_counter):
        paths = self.paths[i]
        for key in ("build_out", "greedy_out"):
            if os.path.exists(paths[key]):
                os.remove(paths[key])
        evidence = {}
        requests = []
        code, elapsed, out, err = self._cli(
            ["build", "--scenario", paths["build"], "--out", paths["build_out"]], clock
        )
        requests.append(Request("build", elapsed, self._outcome(code)))
        evidence["build"] = (code, out, err, self._read(paths["build_out"]))
        if code == 0:
            code, elapsed, out, err = self._cli(["verify", "--run", paths["build_out"]], clock)
            requests.append(Request("verify", elapsed, self._outcome(code)))
            evidence["verify"] = (code, out, err)
        code, elapsed, out, err = self._cli(
            ["greedy", "--scenario", paths["greedy"], "--out", paths["greedy_out"]], clock
        )
        requests.append(Request("extend", elapsed, self._outcome(code)))
        evidence["greedy"] = (code, out, err, self._read(paths["greedy_out"]))
        return requests, evidence

    @staticmethod
    def _refusal_problems(what, code, err, record) -> list[str]:
        problems = []
        try:
            diag = json.loads(err.strip().splitlines()[-1])
            typed = isinstance(diag, dict) and "error" in diag
        except (IndexError, ValueError):
            typed = False
        if not typed:
            problems.append(f"{what}: exit {code} without a JSON diagnostic")
        if record is not None and any(c.get("passed") for c in record.get("certificates", [])):
            problems.append(f"{what}: refused, yet a certificate claims a pass")
        return problems

    def check(self, i: int, evidence) -> list[str]:
        problems = []
        code, _, err, record = evidence["build"]
        what = f"cycle {i} build"
        if self._expects_fit_refusal(i) and code != 4:
            problems.append(f"{what}: s = {self.refusal_s} must end in exit 4, got {code}")
        if code == 0:
            certs = record["certificates"] if record else []
            if len(certs) != 1 or not certs[0]["passed"]:
                problems.append(f"{what}: exit 0 without one passed certificate")
            v_code, v_out, _ = evidence["verify"]
            try:
                report = json.loads(v_out)
            except ValueError:
                report = {}
            dev = report.get("max_deviation", math.inf)
            if v_code != 0 or not report.get("match") or not report.get("passed") or dev > VERIFY_MAX_DEVIATION:
                problems.append(f"{what}: re-verification exit {v_code}, deviation {dev}")
        elif code in REFUSAL_EXITS:
            problems += self._refusal_problems(what, code, err, record)
        else:
            problems.append(f"{what}: unexpected exit {code}")

        code, _, err, record = evidence["greedy"]
        what = f"cycle {i} greedy"
        if code == 0:
            certs = record["certificates"] if record else []
            if len(certs) != 3 or not all(
                c["passed"] and all(v < c["requested"] for v in c["achieved"].values())
                for c in certs
            ):
                problems.append(f"{what}: exit 0 without three passed certificates")
        elif code in REFUSAL_EXITS:
            problems += self._refusal_problems(what, code, err, record)
        else:
            problems.append(f"{what}: unexpected exit {code}")
        return problems

    def fingerprint(self, evidence) -> str:
        def stable(record):
            if record is None:
                return None
            return {k: v for k, v in record.items() if k != "environment"}

        b_code, b_out, b_err, b_rec = evidence["build"]
        g_code, g_out, g_err, g_rec = evidence["greedy"]
        return json.dumps(
            [b_code, b_out, b_err, stable(b_rec), evidence.get("verify"),
             g_code, g_out, g_err, stable(g_rec)],
            sort_keys=True,
        )

    def oracle(self, evidence_by_cycle: dict) -> dict:
        """Hankel verdicts at every center of each certified ``build`` (see
        ``_center_oracle``), as ``{"build": [agreeing, compared]}``."""
        counts = [0, 0]
        for i, evidence in sorted(evidence_by_cycle.items()):
            code, _, _, record = evidence["build"]
            if code != 0 or record is None:
                continue
            u = Polynomial.from_json(record["artifacts"]["universal_poly"])
            p, q = construct.Certificate.from_json(record["certificates"][0]).selected
            centers = discretize(self.requirements[i].L).points
            agree, compared = _center_oracle(u, centers, p, q)
            counts[0] += agree
            counts[1] += compared
        return {"build": counts}


def _poly_from_roots(roots):
    """Exact monic coefficients (lowest first) of prod (z - r)."""
    coeffs = [exact.QComplex.one()]
    for r in roots:
        shifted = [exact.QComplex.zero()] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] = shifted[k] - c * r
        coeffs = shifted
    return coeffs


def _gaussian_rational(rng, lo: float, hi: float, avoid=()):
    """Random (a + b i)/4 with modulus in [lo, hi], distinct from ``avoid``."""
    for _ in range(1000):
        re, im = (int(x) for x in rng.integers(-8, 9, 2))
        value = exact.QComplex(Fraction(re, 4), Fraction(im, 4))
        if lo <= abs(value.to_complex()) <= hi and value not in avoid:
            return value
    raise RuntimeError(f"no Gaussian rational of modulus in [{lo}, {hi}] in 1000 draws")


class Table:
    """Membership tables and approximant sweeps of seeded series."""

    name = "table"
    pass_length = 10
    traced_cycles = 5
    length = 64
    table_max = 30
    sweep_p = 20
    sweep_q = 12
    families = ("exp", "log", "geometric", "random", "rational")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        n = self.length
        self.inputs = []
        for i in range(self.pass_length):
            family = self.families[i % len(self.families)]
            exact_coeffs = None
            if family == "exp":
                rho = rng.uniform(0.5, 2.0)
                coeffs = [rho**k / math.factorial(k) for k in range(n)]
            elif family == "log":
                exact_coeffs = [exact.QComplex.of(Fraction(1, k + 1)) for k in range(n)]
            elif family == "geometric":
                ratio = rng.uniform(0.5, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                coeffs = [ratio**k for k in range(n)]
            elif family == "random":
                radius = np.sqrt(rng.uniform(0.0, 1.0, n))
                coeffs = list(radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)))
            else:
                poles = []
                for _ in range(int(rng.integers(1, 5))):
                    poles.append(_gaussian_rational(rng, 1.0, 2.0, poles))
                zeros = []
                for _ in range(int(rng.integers(1, 5))):
                    zeros.append(_gaussian_rational(rng, 0.0, 2.0, poles + zeros))
                center = _gaussian_rational(rng, 0.0, 0.5)
                exact_coeffs = exact.exact_rational_taylor(
                    _poly_from_roots(zeros), _poly_from_roots(poles), center, n
                )
            if exact_coeffs is not None:
                coeffs = [c.to_complex() for c in exact_coeffs]
            self.inputs.append((family, FormalPowerSeries(coeffs), exact_coeffs))

    def run_cycle(self, i: int, clock=perf_counter):
        _, f, _ = self.inputs[i]
        start = clock()
        csv = reporting.emit_pade_table(f, self.table_max, self.table_max)
        table_s = clock() - start
        sweep = []
        start = clock()
        for p in range(self.sweep_p):
            for q in range(self.sweep_q):
                try:
                    r = pade.pade_approximant(f, p, q)
                    sweep.append((p, q, r, pade.order_condition_residual(f, r)))
                except (PadeNotExistError, DegenerateDenominatorError) as exc:
                    sweep.append((p, q, None, type(exc).__name__))
        sweep_s = clock() - start
        extra = {
            "cells": (self.table_max + 1) ** 2,
            "table_s": table_s,
            "approximants": self.sweep_p * self.sweep_q,
            "sweep_s": sweep_s,
        }
        return [Request("table", table_s + sweep_s, "done", extra)], {"csv": csv, "sweep": sweep}

    def check(self, i: int, evidence) -> list[str]:
        family, f, _ = self.inputs[i]
        problems = []
        rows = evidence["csv"].splitlines()
        cells = (self.table_max + 1) ** 2
        if rows[0] != "p,q,det_re,det_im,abs_det,exists" or len(rows) != cells + 1:
            return [f"cycle {i} ({family}): malformed table CSV"]
        for row in rows[1:]:
            p, q, det_re, det_im, _, exists = row.split(",")
            report = pade.hankel_determinant(f, int(p), int(q))
            value = complex(float(det_re), float(det_im))
            if value != report.value or (exists == "true") != report.nonvanishing:
                problems.append(f"cycle {i} ({family}): CSV cell ({p}, {q}) differs from hankel_determinant")
        scale = max(abs(c) for c in f.coeffs)
        for p, q, r, residual in evidence["sweep"]:
            if r is None:
                continue
            if pade.order_condition_decidability(f, r) <= DECIDABLE_FLOOR and residual > RESIDUAL_BOUND * scale:
                problems.append(f"cycle {i} ({family}): residual {residual:.3e} at decidable ({p}, {q})")
        return problems

    def fingerprint(self, evidence) -> str:
        sweep = [(p, q, repr(res)) for p, q, _, res in evidence["sweep"]]
        return evidence["csv"] + repr(sweep)

    def oracle(self, evidence_by_cycle: dict) -> dict:
        """Float membership against the exact Hankel oracle, p < 20, 1 <= q < 12.

        Returns per-family ``[agreeing, compared]`` for the series with exact
        coefficients.  Reported only: this is the baseline a rank-based
        existence test has to raise.
        """
        tally: dict[str, list[int]] = {}
        seen = []
        for i, evidence in sorted(evidence_by_cycle.items()):
            family, _, exact_coeffs = self.inputs[i]
            if exact_coeffs is None or exact_coeffs in seen:
                continue
            seen.append(exact_coeffs)
            verdicts = {}
            for row in evidence["csv"].splitlines()[1:]:
                p, q, *_, exists = row.split(",")
                verdicts[int(p), int(q)] = exists == "true"
            counts = tally.setdefault(family, [0, 0])
            for p in range(self.sweep_p):
                for q in range(1, self.sweep_q):
                    exists = not exact.exact_hankel_determinant(exact_coeffs, p, q).is_zero()
                    counts[0] += exists == verdicts[p, q]
                    counts[1] += 1
        return tally


WORKLOADS = {cls.name: cls for cls in (Wide, Desk, Table)}
