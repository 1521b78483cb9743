"""Command-line interface.

Subcommands: ``pade`` (one approximant), ``table`` (Hankel membership CSV),
``build`` (certified universal polynomial), ``seleznev`` (prefix
extension), ``greedy`` (chained extensions), ``verify`` (re-measure a saved
run), ``family`` (compact-family generators).  Only ``pade`` and ``table``
take ``--tau-det``: the builders decide their outputs by the degree-``p``
identity, which no threshold enters, and ``verify`` re-reads the threshold
stamped in the record.

Exit codes: 0 success, 1 usage/validation, 2 approximant does not exist,
3 numeric failure, 4 fit ramp failed, 5 index sequence exhausted,
6 no admissible perturbation.  Every failure also writes a JSON diagnostic
to stderr, one line.  Records and the ``pade``, ``verify`` and ``family``
reports are strict JSON, written by :func:`.reporting.dumps_canonical`.
"""

from __future__ import annotations

import argparse
import contextlib
from dataclasses import fields
import functools
import json
import sys

import numpy as np

from . import __version__
from .compacts import CompactSpec, DomainSpec, exhausting_family, outer_family
from .construct import (
    Certificate,
    ExtensionRequirement,
    IndexSequence,
    RequirementSpec,
    TargetFunction,
    build_universal_polynomial,
    extend_prefix,
    run_extension_schedule,
    verify_construction,
)
from .errors import (
    DegenerateDenominatorError,
    FitFailedError,
    HankelOverflowError,
    IllConditionedError,
    IndexExhaustedError,
    NonFiniteSupError,
    OriginInKError,
    PadeNotExistError,
    PadeUniversalError,
    PerturbationFailedError,
    PoleProximityError,
    ScheduleStepError,
    SchemaError,
    TruncationExceededError,
)
from .pade import hankel_determinant, order_condition_residual, pade_approximant
from .reporting import (
    RunRecord,
    dumps_canonical,
    emit_pade_table,
    environment_stamp,
    load_run,
    save_run,
)
from .series import (
    DEFAULT_TOL,
    FormalPowerSeries,
    Polynomial,
    ToleranceConfig,
    coeffs_from_json,
    coeffs_to_json,
    complex_to_pair,
    int_from_json,
    pair_to_complex,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_EXIST = 2
EXIT_NUMERIC = 3
EXIT_FIT = 4
EXIT_INDEX = 5
EXIT_PERTURBATION = 6

#: Largest deviation of a re-measured sup from the stored one that
#: ``verify`` accepts as a match.
VERIFY_TOLERANCE = 1e-12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures follow the exit-code table."""

    def error(self, message):
        raise _UsageError(message)


def _diag(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


@contextlib.contextmanager
def _reading(error: type[Exception]):
    """Reads of JSON input: a value of the wrong type, such as a number
    where a list belongs, raises ``error`` instead of a traceback.  Only
    reads sit inside, so a ``TypeError`` of the program itself still shows."""
    try:
        yield
    except (TypeError, AttributeError, IndexError) as exc:
        raise error(f"malformed input: {exc}") from exc


def _load_series(args) -> FormalPowerSeries:
    with _reading(ValueError):
        if args.series:
            text = args.series.strip()
            if text.startswith("{"):
                return FormalPowerSeries.from_json(json.loads(text))
            with open(args.series, "r", encoding="utf-8") as handle:
                return FormalPowerSeries.from_json(json.load(handle))
        if args.coeffs:
            coeffs = coeffs_from_json(json.loads(args.coeffs))
            center = pair_to_complex(json.loads(args.center)) if args.center else 0.0
            return FormalPowerSeries(coeffs, center)
    raise _UsageError("one of --series or --coeffs is required")


def _tolerances(args) -> ToleranceConfig:
    return DEFAULT_TOL if args.tau_det is None else ToleranceConfig(tau_det=args.tau_det)


def _add_series_arguments(parser) -> None:
    parser.add_argument(
        "--series", help="series JSON {center, coeffs}: a file path or inline"
    )
    parser.add_argument("--coeffs", help="inline coefficient JSON, e.g. '[[1,0],[1,0]]'")
    parser.add_argument("--center", help="inline center JSON, e.g. '[0,0]'")
    parser.add_argument("--tau-det", type=float, dest="tau_det", help="Hankel threshold base override")


#: ``pade`` and ``table`` run with numpy's overflow and invalid-value warnings
#: off, so standard error holds only the JSON diagnostic: a determinant or a
#: numerator beyond the float range is refused by a check on its result.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def _cmd_pade(args) -> int:
    f = _load_series(args)
    tol = _tolerances(args)
    r = pade_approximant(f, args.p, args.q, tol)
    residual = order_condition_residual(f, r)
    report = hankel_determinant(f, args.p, args.q, tol)
    if not np.isfinite(residual):  # A/B's expansion left the float range
        raise HankelOverflowError(args.p, args.q, report.scale, part="residual")
    sys.stdout.write(dumps_canonical({
        "rational": r.to_json(),
        "order_condition_residual": residual,
        "hankel": report.to_json(),
    }))
    return EXIT_OK


@_QUIET_OVERFLOW
def _cmd_table(args) -> int:
    f = _load_series(args)
    csv = emit_pade_table(f, args.p_max, args.q_max, _tolerances(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def _write_record(record: RunRecord, path: str | None) -> None:
    if path:
        save_run(record, path)
    else:
        sys.stdout.write(dumps_canonical(record.to_json()))


#: The typed refusals of a run: the record is still written, with no certificate.
_REFUSALS = (FitFailedError, IndexExhaustedError, PerturbationFailedError)


def _run_scenario(args, run) -> int:
    """Run ``run(scenario) -> (certificates, artifacts)`` on the scenario
    file and write its record; the exit code of its certificates.  A refusal,
    also as the cause of a failed schedule step, writes it with no certificate.
    """
    with open(args.scenario, "r", encoding="utf-8") as handle:
        scenario = json.load(handle)
    record = RunRecord(scenario=scenario, certificates=[], environment=environment_stamp())
    try:
        record.certificates, record.artifacts = run(scenario)
    except (*_REFUSALS, ScheduleStepError) as exc:
        if isinstance(getattr(exc, "cause", exc), _REFUSALS):
            _write_record(record, args.out)
        raise
    _write_record(record, args.out)
    return EXIT_OK if all(c.passed for c in record.certificates) else EXIT_PERTURBATION


def _build(scenario):
    with _reading(ValueError):
        req = RequirementSpec.from_json(scenario["requirement"])
        f_on_l = TargetFunction.from_json(scenario["f_on_L"])
        f_seq = IndexSequence.from_json(scenario["F"])
    u, cert = build_universal_polynomial(req, f_on_l, f_seq)
    return [cert], {"universal_poly": u.to_json()}


def _seleznev(scenario):
    with _reading(ValueError):
        prefix = coeffs_from_json(scenario["prefix"])
        k_compact = CompactSpec.from_json(scenario["K"])
        psi = TargetFunction.from_json(scenario["psi"])
        s = int_from_json(scenario["s"])
        f_seq = IndexSequence.from_json(scenario["F"])
    coeffs, cert = extend_prefix(prefix, k_compact, psi, s, f_seq)
    return [cert], {"coefficients": coeffs_to_json(np.array(coeffs, dtype=complex))}


def _greedy(scenario):
    with _reading(ValueError):
        prefix = coeffs_from_json(scenario.get("prefix", [[0.0, 0.0]]))
        schedule = [ExtensionRequirement.from_json(step) for step in scenario["schedule"]]
        f_seq = IndexSequence.from_json(scenario["F"])
    coeffs, certs = run_extension_schedule(prefix, schedule, f_seq)
    return certs, {"coefficients": coeffs_to_json(np.array(coeffs, dtype=complex))}


def _cmd_verify(args) -> int:
    record = load_run(args.run)
    if "universal_poly" not in record.artifacts or not record.certificates:
        raise SchemaError("record carries no built polynomial to verify")
    known = {f.name for f in fields(ToleranceConfig)}
    with _reading(SchemaError):
        req = RequirementSpec.from_json(record.scenario["requirement"])
        f_on_l = TargetFunction.from_json(record.scenario["f_on_L"])
        u = Polynomial.from_json(record.artifacts["universal_poly"])
        # re-measured under the stamped tau_det; retired keys such as tau_zero are ignored
        stamped = record.environment.get("tolerances", {})
        try:
            tol = ToleranceConfig(**{k: v for k, v in stamped.items() if k in known})
        except ValueError as exc:  # a stamped tau_det that is no finite positive number
            raise SchemaError(f"malformed tolerances: {exc}") from exc
    stored = record.certificates[0]
    # the perturbation is re-read from the polynomial, not copied from the record
    cert = verify_construction(
        u, req, stored.selected, f_on_l, fit_degree=stored.fit_degree, tol=tol
    )
    deviations = {
        key: abs(cert.achieved[key] - stored.achieved[key])
        for key in stored.achieved
        if key in cert.achieved
    }
    missing = [key for key in stored.achieved if key not in cert.achieved]
    max_dev = max(deviations.values()) if deviations else 0.0
    same_d = cert.perturbation == stored.perturbation
    match = not missing and max_dev <= VERIFY_TOLERANCE and same_d
    sys.stdout.write(dumps_canonical({
        "match": match,
        "max_deviation": max_dev,
        "passed": cert.passed,
        "certificate": cert.to_json(),
    }))
    if not match:
        deviating = {
            key: {"stored": stored.achieved[key], "remeasured": cert.achieved[key]}
            for key, dev in deviations.items()
            if dev > VERIFY_TOLERANCE
        }
        if not same_d:
            deviating["perturbation"] = {
                "stored": complex_to_pair(stored.perturbation),
                "remeasured": complex_to_pair(cert.perturbation),
            }
        _diag({
            "error": "verification-mismatch",
            "max_deviation": max_dev,
            "missing": missing,
            "deviating": deviating,
        })
        return EXIT_NUMERIC
    return EXIT_OK if cert.passed else EXIT_PERTURBATION


def _cmd_family(args) -> int:
    with _reading(ValueError):
        domain = DomainSpec.from_json(json.loads(args.domain)) if args.domain.strip().startswith("{") else DomainSpec(
            kind=args.domain, center=pair_to_complex(json.loads(args.center)) if args.center else 0.0,
            radius=args.radius if args.radius is not None else 1.0,
        )
    if args.mode in {"interior", "boundary"}:
        spec = exhausting_family(domain, args.index, args.mode, args.samples)
    else:
        spec = outer_family(domain, args.index, args.mode, args.samples)
    sys.stdout.write(dumps_canonical(spec.to_json()))
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on the first :func:`main` call of a process
    and reused by every later one (``parse_args`` leaves it unchanged)."""
    parser = _Parser(prog="pade-universal", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_pade = sub.add_parser("pade", help="compute one Pade approximant")
    _add_series_arguments(p_pade)
    p_pade.add_argument("--p", type=int, required=True)
    p_pade.add_argument("--q", type=int, required=True)
    p_pade.set_defaults(func=_cmd_pade)

    p_table = sub.add_parser("table", help="emit the Hankel membership table as CSV")
    _add_series_arguments(p_table)
    p_table.add_argument("--p-max", type=int, required=True, dest="p_max")
    p_table.add_argument("--q-max", type=int, required=True, dest="q_max")
    p_table.add_argument("--out")
    p_table.set_defaults(func=_cmd_table)

    for name, run, help_text in (
        ("build", _build, "build a certified universal polynomial"),
        ("seleznev", _seleznev, "extend a coefficient prefix against a compact target"),
        ("greedy", _greedy, "run a schedule of prefix extensions"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--scenario", required=True)
        p_run.add_argument("--out")
        p_run.set_defaults(func=functools.partial(_run_scenario, run=run))

    p_verify = sub.add_parser(
        "verify", help="re-measure a saved build record under its recorded tolerances"
    )
    p_verify.add_argument("--run", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_family = sub.add_parser("family", help="generate compact families for a domain")
    p_family.add_argument("--domain", required=True, help="domain kind or inline domain JSON")
    p_family.add_argument("--center", help="center JSON for simple kinds, e.g. '[0,0]'")
    p_family.add_argument("--radius", type=float)
    p_family.add_argument("--mode", required=True,
                          choices=["interior", "boundary", "off-closure", "off-domain"])
    p_family.add_argument("--index", "--k", "--m", type=int, required=True,
                          dest="index", help="family index (k or m)")
    p_family.add_argument("--samples", type=int, default=64)
    p_family.set_defaults(func=_cmd_family)

    return parser


#: Failure -> (exit code, diagnostic label), first matching row wins.  The
#: order matters: ``np.linalg.LinAlgError`` and ``json.JSONDecodeError`` are
#: ``ValueError``s, and every package error is a ``PadeUniversalError``.
_FAILURES = (
    (_UsageError, EXIT_USAGE, "usage"),
    (PadeNotExistError, EXIT_NOT_EXIST, "pade-not-exist"),
    (FitFailedError, EXIT_FIT, "fit-failed"),
    (IndexExhaustedError, EXIT_INDEX, "index-exhausted"),
    (PerturbationFailedError, EXIT_PERTURBATION, "perturbation-failed"),
    ((DegenerateDenominatorError, PoleProximityError, IllConditionedError, HankelOverflowError,
      TruncationExceededError, OriginInKError, NonFiniteSupError, np.linalg.LinAlgError),
     EXIT_NUMERIC, "numeric"),
    (SchemaError, EXIT_USAGE, "schema"),
    ((ValueError, KeyError, OSError, PadeUniversalError), EXIT_USAGE, "validation"),
)


def _failure(exc: BaseException) -> tuple[int, str] | None:
    """The exit code and label of the first row of ``_FAILURES`` that ``exc`` matches."""
    return next(((code, label) for cls, code, label in _FAILURES if isinstance(exc, cls)), None)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ScheduleStepError as exc:
        # a failed step exits as its cause would; a cause with no row is numeric
        code, _ = _failure(exc.cause) or (EXIT_NUMERIC, None)
        _diag({"error": "schedule-step", "step": exc.step, "message": str(exc.cause)})
        return code
    except Exception as exc:
        failure = _failure(exc)
        if failure is None:
            raise
        code, label = failure
        if isinstance(exc, PadeNotExistError):
            _diag({"error": label, "hankel": exc.report.to_json()})
        else:
            _diag({"error": label, "message": str(exc)})
        return code


if __name__ == "__main__":
    sys.exit(main())
