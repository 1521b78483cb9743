"""Persistence of runs: certificates, Hankel tables, JSON round-tripping.

Records serialize to a versioned JSON schema; complex numbers are always
``[re, im]`` arrays, CSV flattens them to two columns with 17 significant
digits so numeric values re-parse exactly.  Unknown top-level fields found
in a record survive a load/save cycle untouched.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .construct import Certificate
from .errors import SchemaError
from .pade import hankel_determinant
from .series import DEFAULT_TOL, FormalPowerSeries, ToleranceConfig

SCHEMA = "pade-universal/1"

_KNOWN_FIELDS = {"schema", "scenario", "certificates", "environment", "tables", "artifacts"}


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def emit_pade_table(
    f: FormalPowerSeries,
    p_max: int,
    q_max: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> str:
    """CSV membership table ``(p, q) -> (|D_{p,q}|, exists)``.

    One row per cell, comma separated, LF terminated.  The ``q = 0`` column
    always exists (empty determinant).
    """
    out = io.StringIO()
    out.write("p,q,det_re,det_im,abs_det,exists\n")
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            report = hankel_determinant(f, p, q, tol)
            out.write(
                ",".join(
                    [
                        str(p),
                        str(q),
                        _format_float(report.value.real),
                        _format_float(report.value.imag),
                        _format_float(abs(report.value)),
                        "true" if report.nonvanishing else "false",
                    ]
                )
                + "\n"
            )
    return out.getvalue()


def environment_stamp(tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    return {
        "version": __version__,
        "tolerances": {
            "tau_zero": tol.tau_zero,
            "tau_det": tol.tau_det,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


@dataclass
class RunRecord:
    """Everything one run produced, ready to persist."""

    scenario: dict
    certificates: list[Certificate]
    environment: dict
    tables: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "certificates": [c.to_json() for c in self.certificates],
            "environment": self.environment,
            "tables": self.tables,
            "artifacts": self.artifacts,
        }
        for key, value in self.extras.items():
            if key not in out:
                out[key] = value
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RunRecord":
        if not isinstance(obj, dict):
            raise SchemaError(f"expected a JSON object, got {type(obj).__name__}")
        schema = obj.get("schema")
        if schema != SCHEMA:
            raise SchemaError(f"unsupported schema {schema!r}; expected {SCHEMA!r}")
        try:
            certificates = [Certificate.from_json(c) for c in obj.get("certificates", [])]
            record = cls(
                scenario=obj.get("scenario", {}),
                certificates=certificates,
                environment=obj.get("environment", {}),
                tables=dict(obj.get("tables", {})),
                artifacts=dict(obj.get("artifacts", {})),
                extras={k: v for k, v in obj.items() if k not in _KNOWN_FIELDS},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed record: {exc}") from exc
        return record


def dumps_canonical(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, LF newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_run(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dumps_canonical(record.to_json()))


def load_run(path) -> RunRecord:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return RunRecord.from_json(obj)
