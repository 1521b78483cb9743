"""Command-line interface.

Subcommands: ``pade`` (one approximant), ``table`` (Hankel membership CSV),
``build`` (certified universal polynomial), ``seleznev`` (prefix
extension), ``greedy`` (chained extensions), ``verify`` (re-measure a saved
run), ``family`` (compact-family generators).

Exit codes: 0 success, 1 usage/validation, 2 approximant does not exist,
3 numeric failure, 4 fit ramp failed, 5 index sequence exhausted,
6 no admissible perturbation.  Every failure also writes a JSON diagnostic
to stderr.
"""

from __future__ import annotations

import argparse
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
    IllConditionedError,
    IndexExhaustedError,
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


def _load_series(args) -> FormalPowerSeries:
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
    if getattr(args, "tau_det", None) is not None:
        return ToleranceConfig(tau_det=args.tau_det)
    return DEFAULT_TOL


def _add_series_arguments(parser) -> None:
    parser.add_argument(
        "--series", help="series JSON {center, coeffs}: a file path or inline"
    )
    parser.add_argument("--coeffs", help="inline coefficient JSON, e.g. '[[1,0],[1,0]]'")
    parser.add_argument("--center", help="inline center JSON, e.g. '[0,0]'")
    parser.add_argument("--tau-det", type=float, dest="tau_det", help="Hankel threshold base override")


def _cmd_pade(args) -> int:
    f = _load_series(args)
    tol = _tolerances(args)
    r = pade_approximant(f, args.p, args.q, tol)
    residual = order_condition_residual(f, r)
    print(json.dumps({
        "rational": r.to_json(),
        "order_condition_residual": residual,
        "hankel": hankel_determinant(f, args.p, args.q, tol).to_json(),
    }, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_table(args) -> int:
    f = _load_series(args)
    csv = emit_pade_table(f, args.p_max, args.q_max, _tolerances(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_record(record: RunRecord, path: str | None) -> None:
    if path:
        save_run(record, path)
    else:
        sys.stdout.write(dumps_canonical(record.to_json()))


def _cmd_build(args) -> int:
    scenario = _read_json(args.scenario)
    req = RequirementSpec.from_json(scenario["requirement"])
    f_on_l = TargetFunction.from_json(scenario["f_on_L"])
    f_seq = IndexSequence.from_json(scenario["F"])
    tol = _tolerances(args)
    record = RunRecord(
        scenario=scenario,
        certificates=[],
        environment=environment_stamp(tol),
    )
    try:
        u, cert = build_universal_polynomial(req, f_on_l, f_seq, tol)
    except (FitFailedError, IndexExhaustedError, PerturbationFailedError):
        # record what we can for diagnosis, then map the exit code
        _write_record(record, args.out)
        raise
    record.certificates = [cert]
    record.artifacts = {"universal_poly": u.to_json()}
    _write_record(record, args.out)
    return EXIT_OK if cert.passed else EXIT_PERTURBATION


def _cmd_seleznev(args) -> int:
    scenario = _read_json(args.scenario)
    prefix = coeffs_from_json(scenario["prefix"])
    k_compact = CompactSpec.from_json(scenario["K"])
    psi = TargetFunction.from_json(scenario["psi"])
    f_seq = IndexSequence.from_json(scenario["F"])
    tol = _tolerances(args)
    coeffs, cert = extend_prefix(prefix, k_compact, psi, int(scenario["s"]), f_seq, tol)
    record = RunRecord(
        scenario=scenario,
        certificates=[cert],
        environment=environment_stamp(tol),
        artifacts={"coefficients": [[c.real, c.imag] for c in coeffs]},
    )
    _write_record(record, args.out)
    return EXIT_OK if cert.passed else EXIT_PERTURBATION


def _cmd_greedy(args) -> int:
    scenario = _read_json(args.scenario)
    prefix = coeffs_from_json(scenario.get("prefix", [[0.0, 0.0]]))
    schedule = [ExtensionRequirement.from_json(step) for step in scenario["schedule"]]
    f_seq = IndexSequence.from_json(scenario["F"])
    tol = _tolerances(args)
    coeffs, certs = run_extension_schedule(prefix, schedule, f_seq, tol)
    record = RunRecord(
        scenario=scenario,
        certificates=certs,
        environment=environment_stamp(tol),
        artifacts={"coefficients": [[c.real, c.imag] for c in coeffs]},
    )
    _write_record(record, args.out)
    return EXIT_OK if all(c.passed for c in certs) else EXIT_PERTURBATION


def _cmd_verify(args) -> int:
    record = load_run(args.run)
    scenario = record.scenario
    req = RequirementSpec.from_json(scenario["requirement"])
    f_on_l = TargetFunction.from_json(scenario["f_on_L"])
    if "universal_poly" not in record.artifacts or not record.certificates:
        raise SchemaError("record carries no built polynomial to verify")
    u = Polynomial.from_json(record.artifacts["universal_poly"])
    stored = record.certificates[0]
    tol = _tolerances(args)
    cert = verify_construction(
        u,
        req,
        stored.selected,
        f_on_l,
        perturbation=stored.perturbation,
        fit_degree=stored.fit_degree,
        tol=tol,
    )
    deviations = {
        key: abs(cert.achieved[key] - stored.achieved[key])
        for key in stored.achieved
        if key in cert.achieved
    }
    missing = [key for key in stored.achieved if key not in cert.achieved]
    max_dev = max(deviations.values()) if deviations else 0.0
    match = not missing and max_dev <= VERIFY_TOLERANCE
    print(json.dumps({
        "match": match,
        "max_deviation": max_dev,
        "passed": cert.passed,
        "certificate": cert.to_json(),
    }, sort_keys=True, indent=2))
    if not match:
        deviating = {
            key: {"stored": stored.achieved[key], "remeasured": cert.achieved[key]}
            for key, dev in deviations.items()
            if dev > VERIFY_TOLERANCE
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
    domain = DomainSpec.from_json(json.loads(args.domain)) if args.domain.strip().startswith("{") else DomainSpec(
        kind=args.domain, center=pair_to_complex(json.loads(args.center)) if args.center else 0.0,
        radius=args.radius if args.radius is not None else 1.0,
    )
    if args.mode in {"interior", "boundary"}:
        spec = exhausting_family(domain, args.index, args.mode, args.samples)
    else:
        spec = outer_family(domain, args.index, args.mode, args.samples)
    print(json.dumps(spec.to_json(), sort_keys=True, indent=2))
    return EXIT_OK


def _build_parser() -> _Parser:
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

    p_build = sub.add_parser("build", help="build a certified universal polynomial")
    p_build.add_argument("--scenario", required=True)
    p_build.add_argument("--out")
    p_build.add_argument("--tau-det", type=float, dest="tau_det")
    p_build.set_defaults(func=_cmd_build)

    p_sel = sub.add_parser("seleznev", help="extend a coefficient prefix against a compact target")
    p_sel.add_argument("--scenario", required=True)
    p_sel.add_argument("--out")
    p_sel.add_argument("--tau-det", type=float, dest="tau_det")
    p_sel.set_defaults(func=_cmd_seleznev)

    p_greedy = sub.add_parser("greedy", help="run a schedule of prefix extensions")
    p_greedy.add_argument("--scenario", required=True)
    p_greedy.add_argument("--out")
    p_greedy.add_argument("--tau-det", type=float, dest="tau_det")
    p_greedy.set_defaults(func=_cmd_greedy)

    p_verify = sub.add_parser("verify", help="re-measure a saved build record")
    p_verify.add_argument("--run", required=True)
    p_verify.add_argument("--tau-det", type=float, dest="tau_det")
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _diag({"error": "usage", "message": str(exc)})
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        _diag({"error": "usage", "message": str(exc)})
        return EXIT_USAGE
    except PadeNotExistError as exc:
        _diag({"error": "pade-not-exist", "hankel": exc.report.to_json()})
        return EXIT_NOT_EXIST
    except FitFailedError as exc:
        _diag({"error": "fit-failed", "message": str(exc)})
        return EXIT_FIT
    except IndexExhaustedError as exc:
        _diag({"error": "index-exhausted", "message": str(exc)})
        return EXIT_INDEX
    except PerturbationFailedError as exc:
        _diag({"error": "perturbation-failed", "message": str(exc)})
        return EXIT_PERTURBATION
    except ScheduleStepError as exc:
        _diag({"error": "schedule-step", "step": exc.step, "message": str(exc.cause)})
        cause = exc.cause
        if isinstance(cause, FitFailedError):
            return EXIT_FIT
        if isinstance(cause, IndexExhaustedError):
            return EXIT_INDEX
        if isinstance(cause, PerturbationFailedError):
            return EXIT_PERTURBATION
        return EXIT_NUMERIC
    except (
        DegenerateDenominatorError,
        PoleProximityError,
        IllConditionedError,
        TruncationExceededError,
        OriginInKError,
        np.linalg.LinAlgError,
    ) as exc:
        _diag({"error": "numeric", "message": str(exc)})
        return EXIT_NUMERIC
    except SchemaError as exc:
        _diag({"error": "schema", "message": str(exc)})
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, json.JSONDecodeError, PadeUniversalError) as exc:
        _diag({"error": "validation", "message": str(exc)})
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
