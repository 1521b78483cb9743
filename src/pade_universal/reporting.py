"""Persistence of runs: certificates, Hankel tables, JSON round-tripping.

Records serialize to a versioned JSON schema; complex numbers are always
``[re, im]`` arrays, CSV flattens them to two columns with 17 significant
digits so numeric values re-parse exactly.  Unknown top-level fields found
in a record survive a load/save cycle untouched.  Records and the CLI's
JSON reports are written by :func:`dumps_canonical`; :func:`load_run`
reads any layout of the same JSON.
"""

from __future__ import annotations

import json
from itertools import chain
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .construct import Certificate
from .errors import SchemaError, TruncationExceededError
from .pade import hankel_test
from .series import DEFAULT_TOL, FormalPowerSeries, ToleranceConfig

SCHEMA = "pade-universal/1"

_KNOWN_FIELDS = {"schema", "scenario", "certificates", "environment", "tables", "artifacts"}


def emit_pade_table(
    f: FormalPowerSeries,
    p_max: int,
    q_max: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> str:
    """CSV membership table ``(p, q) -> (|D_{p,q}|, exists)``.

    One row per cell, p-major, comma separated, LF terminated.  The
    ``q = 0`` column always exists (empty determinant).  Each q-column is
    one stacked :func:`hankel_test` over every ``p``, whose cells are
    bitwise those of :func:`hankel_determinant`.  A table that outruns the
    series raises before anything is emitted, with the error of its first
    such cell in p-major order, which lies on ``p + q = len(f)``; so does a
    table with a cell beyond the float range, naming a cell of the first
    q-column that has one.
    """
    header = "p,q,det_re,det_im,abs_det,exists\n"
    if p_max < 0 or q_max < 0:
        return header
    if p_max + q_max >= len(f):
        raise TruncationExceededError(len(f), len(f))
    ps = np.arange(p_max + 1)
    columns = [hankel_test(f.coeffs, ps, q, tol) for q in range(q_max + 1)]
    values = np.array([column[0] for column in columns]).T  # p-major
    exists = np.array([column[3] for column in columns]).T.ravel().tolist()
    cells = zip(
        np.repeat(ps, q_max + 1).tolist(),
        list(range(q_max + 1)) * (p_max + 1),
        values.real.ravel().tolist(),
        values.imag.ravel().tolist(),
        np.hypot(values.real, values.imag).ravel().tolist(),  # abs of each complex
        map(("false", "true").__getitem__, exists),
    )
    return header + ("%d,%d,%.17g,%.17g,%.17g,%s\n" * values.size) % tuple(chain.from_iterable(cells))


def environment_stamp() -> dict:
    return {
        "version": __version__,
        "tolerances": asdict(DEFAULT_TOL),
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


_FIELD_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def dumps_canonical(obj: dict) -> str:
    """Deterministic, strict JSON text of a JSON object, the one writer of
    every record and every CLI report.

    One top-level field per line, in sorted key order, so a file diffs field
    by field; each field's value is one line of compact JSON with sorted
    keys, written by the C encoder (an ``indent`` would fall back to the
    pure-Python one).  LF line ends, a final newline.  A NaN or an infinity
    raises ``ValueError`` (RFC 8259 has none).  The text parses to the same
    object as an indented dump of ``obj``.
    """
    body = ",\n".join(
        f"{json.dumps(key)}: {_FIELD_ENCODER.encode(obj[key])}" for key in sorted(obj)
    )
    return "{\n" + body + "\n}\n" if body else "{}\n"


def save_run(record: RunRecord, path) -> None:
    text = dumps_canonical(record.to_json())  # before the file is opened and emptied
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def load_run(path) -> RunRecord:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return RunRecord.from_json(obj)
