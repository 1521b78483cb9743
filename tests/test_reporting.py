import cmath
import json
import math
import os
import random
import sys
from dataclasses import fields

import numpy as np
import pytest

from pade_universal.construct import Certificate
from pade_universal.errors import SchemaError, TruncationExceededError
from pade_universal.reporting import (
    RunRecord,
    SCHEMA,
    dumps_canonical,
    emit_pade_table,
    environment_stamp,
    load_run,
    save_run,
)
from pade_universal.exact import exact_rational_taylor
from pade_universal.pade import hankel_determinant
from pade_universal.series import DEFAULT_TOL, FormalPowerSeries, ToleranceConfig

from conftest import make_exact_rational, random_coefficients

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def parse_table(csv: str):
    lines = csv.strip().split("\n")
    assert lines[0] == "p,q,det_re,det_im,abs_det,exists"
    rows = {}
    for line in lines[1:]:
        p, q, re, im, mag, exists = line.split(",")
        rows[(int(p), int(q))] = (float(re), float(im), float(mag), exists == "true")
    return rows


class TestPadeTable:
    def test_geometric_membership_pattern(self):
        f = FormalPowerSeries([1.0] * 9)
        rows = parse_table(emit_pade_table(f, 3, 3))
        for (p, q), (_, _, _, exists) in rows.items():
            expected = q <= 1 or p == 0
            assert exists == expected, (p, q)

    def test_exponential_all_cells_exist(self):
        f = FormalPowerSeries([1 / math.factorial(k) for k in range(9)])
        rows = parse_table(emit_pade_table(f, 3, 3))
        assert all(exists for *_, exists in rows.values())

    def test_q_zero_column_always_exists(self, rng):
        f = FormalPowerSeries(random_coefficients(rng, 9))
        rows = parse_table(emit_pade_table(f, 4, 3))
        assert all(rows[(p, 0)][3] for p in range(5))

    def test_truncation_guard(self):
        f = FormalPowerSeries([1.0, 1.0])
        with pytest.raises(TruncationExceededError):
            emit_pade_table(f, 3, 3)

    def test_csv_reparses_exactly(self):
        f = FormalPowerSeries([1 / math.factorial(k) for k in range(12)])
        csv = emit_pade_table(f, 4, 4)
        rows = parse_table(csv)
        from pade_universal.pade import hankel_determinant

        for (p, q), (re, im, mag, _) in rows.items():
            report = hankel_determinant(f, p, q)
            assert abs(re - report.value.real) <= 1e-15 * max(1.0, abs(report.value.real))
            assert abs(im - report.value.imag) <= 1e-15 * max(1.0, abs(report.value.imag))
            assert abs(mag - abs(report.value)) <= 1e-15 * max(1.0, abs(report.value))

    def test_lf_line_endings(self):
        f = FormalPowerSeries([1.0] * 5)
        csv = emit_pade_table(f, 1, 1)
        assert "\r" not in csv
        assert csv.endswith("\n")


def per_cell_table(f, p_max, q_max, tol=DEFAULT_TOL):
    """Oracle: the table as one ``hankel_determinant`` call per cell, p-major."""
    lines = ["p,q,det_re,det_im,abs_det,exists"]
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            report = hankel_determinant(f, p, q, tol)
            value = report.value
            exists = "true" if report.nonvanishing else "false"
            lines.append(f"{p},{q},{value.real:.17g},{value.imag:.17g},{abs(value):.17g},{exists}")
    return "\n".join(lines) + "\n"


def table_families():
    rng = np.random.default_rng(7)
    numer, denom, zeta, _ = make_exact_rational(random.Random(7), 3, 2)
    rational = [c.to_complex() for c in exact_rational_taylor(numer, denom, zeta, 64)]
    ratio = 0.8 * cmath.exp(2.0j)
    return {
        "exp": FormalPowerSeries([1.5**k / math.factorial(k) for k in range(64)]),
        "log": FormalPowerSeries([1 / (k + 1) for k in range(64)]),
        "geometric": FormalPowerSeries([ratio**k for k in range(64)]),
        "random": FormalPowerSeries(random_coefficients(rng, 64)),
        "rational": FormalPowerSeries(rational),
    }


class TestStackedTableParity:
    @pytest.mark.parametrize("family", sorted(table_families()))
    def test_full_table_matches_per_cell(self, family):
        f = table_families()[family]
        assert emit_pade_table(f, 30, 30) == per_cell_table(f, 30, 30)

    def test_geometric_has_zero_and_signed_zero_cells(self):
        rows = emit_pade_table(table_families()["geometric"], 30, 30).splitlines()[1:]
        parts = [row.split(",")[2:4] for row in rows]
        assert any(part == ["0", "0"] for part in parts)
        assert any("-0" in part for part in parts)

    @pytest.mark.parametrize("p_max, q_max", [(25, 6), (4, 30), (0, 12), (12, 0), (-1, 3), (3, -1)])
    def test_rectangular_tables(self, p_max, q_max):
        for f in table_families().values():
            assert emit_pade_table(f, p_max, q_max) == per_cell_table(f, p_max, q_max)

    def test_custom_tau_det(self):
        tol = ToleranceConfig(tau_det=1e-3)
        moved = 0
        for f in table_families().values():
            table = emit_pade_table(f, 20, 20, tol)
            assert table == per_cell_table(f, 20, 20, tol)
            moved += table != emit_pade_table(f, 20, 20)
        assert moved  # the threshold changes some verdicts

    @pytest.mark.parametrize("p_max, q_max", [(3, 7), (7, 3), (0, 10), (10, 0), (12, 2), (2, 12), (20, 20)])
    def test_truncation_error_matches_first_failing_cell(self, p_max, q_max):
        f = FormalPowerSeries(random_coefficients(np.random.default_rng(3), 10))
        with pytest.raises(TruncationExceededError) as expected:
            per_cell_table(f, p_max, q_max)
        with pytest.raises(TruncationExceededError) as got:
            emit_pade_table(f, p_max, q_max)
        assert str(got.value) == str(expected.value)
        assert (got.value.index, got.value.available) == (expected.value.index, expected.value.available)

    def test_one_determinant_call_per_q_column(self, monkeypatch):
        f = table_families()["random"]
        calls = []
        det = np.linalg.det

        def counting_det(a):
            calls.append(np.shape(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counting_det)
        emit_pade_table(f, 30, 30)
        assert len(calls) <= 30
        assert all(shape[0] == 31 for shape in calls)


def random_certificate(rng):
    achieved = {"2": float(rng.uniform()), "3": float(rng.uniform())}
    return Certificate(
        selected=(int(rng.integers(0, 20)), int(rng.integers(0, 5))),
        perturbation=complex(rng.normal(), rng.normal()),
        fit_degree=int(rng.integers(0, 30)),
        achieved=achieved,
        requested=float(rng.uniform()),
        hankel_min=float(rng.uniform()),
        passed=bool(rng.uniform() < 0.5),
        diagnostics={"fit_residual": float(rng.uniform())},
    )


class TestPersistence:
    def test_round_trip_structural_equality(self, rng, tmp_path):
        record = RunRecord(
            scenario={"s": 50, "F": [[1, 0]]},
            certificates=[random_certificate(rng)],
            environment=environment_stamp(),
            tables={"membership": "p,q\n0,0\n"},
            artifacts={"universal_poly": {"center": [0, 0], "coeffs": [[1, 0]]}},
        )
        path = tmp_path / "run.json"
        save_run(record, path)
        again = load_run(path)
        assert again == record

    def test_stamp_names_every_tolerance(self):
        stamped = environment_stamp()["tolerances"]
        assert list(stamped) == [f.name for f in fields(ToleranceConfig)]
        assert stamped == {"tau_det": DEFAULT_TOL.tau_det} == {"tau_det": 1e-10}

    def test_corrupted_file_is_schema_error(self, rng, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_run(path)
        path.write_text(json.dumps({"schema": "other/9"}), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_run(path)
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_run(path)
        # "passed" is a JSON boolean: the string "false" must not load as passed
        save_run(RunRecord({}, [random_certificate(rng)], environment_stamp()), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["certificates"][0]["passed"] = "false"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_run(path)

    @pytest.mark.parametrize(
        "field, value", [("requested", "0.5"), ("hankel_min", True), ("hankel_min", "1e-3")]
    )
    def test_certificate_numbers_are_json_numbers(self, rng, tmp_path, field, value):
        # a string or a boolean does not load as the number it spells
        path = tmp_path / "run.json"
        save_run(RunRecord({}, [random_certificate(rng)], environment_stamp()), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["certificates"][0][field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError, match="expected a finite number"):
            load_run(path)

    def test_unknown_fields_preserved(self, tmp_path):
        payload = {
            "schema": SCHEMA,
            "scenario": {},
            "certificates": [],
            "environment": {},
            "tables": {},
            "artifacts": {},
            "future_extension": {"nested": [1, 2, 3]},
        }
        path = tmp_path / "fwd.json"
        path.write_text(dumps_canonical(payload), encoding="utf-8")
        record = load_run(path)
        assert record.extras == {"future_extension": {"nested": [1, 2, 3]}}
        out = tmp_path / "fwd2.json"
        save_run(record, out)
        assert json.loads(out.read_text())["future_extension"] == {"nested": [1, 2, 3]}

    def test_records_are_strict_json(self, rng, tmp_path):
        path = tmp_path / "run.json"
        cert = random_certificate(rng)
        finite = dumps_canonical(RunRecord({}, [cert], {}).to_json())
        # beyond the float range: null in the file, inf again when read
        cert.hankel_min = math.inf
        save_run(RunRecord({}, [cert], {}), path)
        text = path.read_text(encoding="utf-8")
        expected = json.loads(finite)
        expected["certificates"][0]["hankel_min"] = None
        assert json.loads(text) == expected
        assert load_run(path).certificates[0].hankel_min == math.inf
        # any other non-finite value refuses, and leaves the old file as it was
        for bad in (math.nan, math.inf, -math.inf):
            cert.diagnostics["fit_residual"] = bad
            with pytest.raises(ValueError, match="JSON compliant"):
                save_run(RunRecord({}, [cert], {}), path)
            assert path.read_text(encoding="utf-8") == text

    def test_hundred_randomized_round_trips(self, rng, tmp_path):
        path = tmp_path / "many.json"
        for i in range(100):
            record = RunRecord(
                scenario={"case": i, "values": [float(rng.uniform()) for _ in range(3)]},
                certificates=[random_certificate(rng) for _ in range(int(rng.integers(1, 4)))],
                environment=environment_stamp(),
                tables={"t": f"a,b\n{i},1\n"},
            )
            save_run(record, path)
            assert load_run(path) == record


def indented(obj: dict) -> str:
    """The layout records had before :func:`dumps_canonical` wrote one field per line."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def random_record(rng, i=0) -> dict:
    return RunRecord(
        scenario={"case": i, "values": [float(rng.uniform()) for _ in range(3)]},
        certificates=[random_certificate(rng) for _ in range(int(rng.integers(1, 4)))],
        environment=environment_stamp(),
        tables={"t": f"a,b\n{i},1\n"},
        artifacts={"universal_poly": {"center": [0.0, 0.0], "coeffs": [[1.0, -0.5]]}},
        extras={"note": "ünïcode \"quoted\"\n"},
    ).to_json()


@pytest.fixture
def desk_records(monkeypatch, tmp_path):
    """The ``build`` and ``greedy`` records of cycle 0 of the ``desk``
    benchmark at seed 101, as the CLI wrote them."""
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    import workloads

    _, evidence = workloads.WORKLOADS["desk"](101, str(tmp_path)).run_cycle(0)
    records = [evidence["build"][3], evidence["greedy"][3]]
    assert all(record is not None for record in records)
    return records


class TestCanonicalWriter:
    def test_desk_and_random_records_parse_as_the_indented_layout(self, rng, desk_records):
        for obj in desk_records + [random_record(rng, i) for i in range(20)]:
            text = dumps_canonical(obj)
            assert json.loads(text) == json.loads(indented(obj))
            assert len(text) < len(indented(obj))

    def test_one_line_per_top_level_field(self, rng, desk_records):
        for obj in desk_records + [random_record(rng)]:
            text = dumps_canonical(obj)
            lines = text.split("\n")
            assert text.endswith("}\n") and lines[-1] == ""
            assert lines[0] == "{" and lines[-2] == "}"
            body = lines[1:-2]
            assert all(line.endswith(",") for line in body[:-1])
            parsed = json.loads(indented(obj))
            assert [json.loads("{" + line.rstrip(",") + "}") for line in body] == [
                {key: parsed[key]} for key in sorted(obj)
            ]
        assert dumps_canonical({}) == "{}\n"

    def test_nested_keys_are_sorted(self):
        text = dumps_canonical({"b": {"z": 1, "a": [{"y": 2, "x": 3}]}, "a": 0})
        assert text == '{\n"a": 0,\n"b": {"a": [{"x": 3, "y": 2}], "z": 1}\n}\n'

    def test_load_run_reads_the_old_and_the_new_layout(self, rng, tmp_path):
        obj = random_record(rng)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(indented(obj), encoding="utf-8")
        save_run(RunRecord.from_json(obj), new)
        assert new.read_text(encoding="utf-8") == dumps_canonical(obj)
        assert load_run(old) == load_run(new) == RunRecord.from_json(obj)

    def test_desk_records_load_the_same_in_both_layouts(self, desk_records, tmp_path):
        for obj in desk_records:
            old, new = tmp_path / "old.json", tmp_path / "new.json"
            old.write_text(indented(obj), encoding="utf-8")
            new.write_text(dumps_canonical(obj), encoding="utf-8")
            assert load_run(old) == load_run(new)
