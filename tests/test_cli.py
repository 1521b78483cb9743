import argparse
import inspect
import json
import math

import numpy as np
import pytest

from pade_universal import cli, construct, errors
from pade_universal.errors import ScheduleStepError
from pade_universal.pade import hankel_determinant, order_condition_residual, pade_approximant
from pade_universal.reporting import dumps_canonical, load_run
from pade_universal.series import FormalPowerSeries

from conftest import overflowing_determinants

EXP_COEFFS = [[1 / math.factorial(k), 0.0] for k in range(8)]
GEOM_COEFFS = [[1.0, 0.0]] * 8


def build_scenario(s=50, f_max=40):
    return {
        "requirement": {
            "K": {"primitives": [{"kind": "segment", "a": [2, 0], "b": [3, 0]}],
                  "samples_per_primitive": 64},
            "target": {"kind": "poly", "coeffs": [[0, 0], [0, 0], [1, 0]]},
            "L": {"primitives": [{"kind": "filled_disk", "center": [0, 0], "radius": 0.4}],
                  "samples_per_primitive": 16},
            "J": {"primitives": [{"kind": "filled_disk", "center": [0, 0], "radius": 0.6}],
                  "samples_per_primitive": 64},
            "s": s,
            "derivative_levels": 0,
        },
        "f_on_L": {"kind": "rational", "numer": [[1, 0]], "denom": [[2, 0], [-1, 0]]},
        "F": [[k, k % 3] for k in range(f_max + 1)],
        "seed": 0,
    }


def wide_scenario():
    """The wide geometry (s = 200, levels 2), whose fit stops at degree 22."""
    scenario = build_scenario(s=200)
    requirement = scenario["requirement"]
    requirement["target"]["coeffs"] = [[0.5, 0], [0, 0.25], [-0.5, 0]]
    requirement["derivative_levels"] = 2
    scenario["f_on_L"]["denom"] = [[2.5, 0], [-1, 0]]
    return scenario


def extension_scenario():
    return {
        "prefix": [[0, 0]],
        "K": {"primitives": [{"kind": "circle", "center": [2, 0], "radius": 0.5}],
              "samples_per_primitive": 64},
        "psi": {"kind": "rational", "numer": [[1, 0]], "denom": [[0, 0], [1, 0]]},
        "s": 100,
        "F": [[k, k % 3] for k in range(61)],
        "seed": 0,
    }


def greedy_scenario():
    step = {"K": extension_scenario()["K"], "psi": extension_scenario()["psi"]}
    return {
        "prefix": [[0, 0]],
        "schedule": [{**step, "s": 10}, {**step, "s": 50}],
        "F": [[k, k % 3] for k in range(61)],
    }


def desk_schedule_scenario(w=1.0):
    """The three-step greedy schedule of the ``desk`` benchmark, every target
    scaled by ``w``."""
    circle = extension_scenario()["K"]
    reciprocal = {"kind": "rational", "numer": [[w, 0]], "denom": [[0, 0], [1, 0]]}
    quadratic = {"kind": "poly", "coeffs": [[w, 0], [0, 0], [0.5 * w, 0]]}
    return {
        "prefix": [[0, 0]],
        "schedule": [
            {"K": circle, "psi": reciprocal, "s": 10},
            {"K": circle, "psi": quadratic, "s": 50},
            {"K": circle, "psi": reciprocal, "s": 100},
        ],
        "F": [[k, k % 3] for k in range(61)],
    }


def one_step_scenario(command, K, psi):
    """A ``seleznev`` scenario, or the ``greedy`` schedule of its one step."""
    step = {"K": K, "psi": psi, "s": 10}
    F = [[k, k % 3] for k in range(61)]
    if command == "seleznev":
        return {"prefix": [[0, 0]], **step, "F": F}
    return {"prefix": [[0, 0]], "schedule": [step], "F": F}


def raising(refusal):
    """A stand-in for ``_Measurement.__call__`` that raises ``refusal``."""
    def measure(measurement, *args):
        raise refusal

    return measure


def failing_sup(measurement, u, p, q, perturbation, fit_degree):
    """A stand-in for ``_Measurement.__call__`` whose certificate fails its sup on K."""
    achieved = {"2": 2.0 * measurement.requested}
    return construct.Certificate(
        (p, q), perturbation, fit_degree, achieved, measurement.requested, 1.0, False
    )


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_json_line(err: str) -> dict:
    """The diagnostic of a standard error that holds it alone: one JSON line,
    with no numpy warning before it."""
    assert err.endswith("\n") and err.count("\n") == 1, err
    return json.loads(err)


def strict(constant):
    raise ValueError(f"not strict JSON: {constant}")


def strict_report(out: str) -> dict:
    """A report as the one writer prints it: strict JSON, one sorted top-level
    field per line."""
    payload = json.loads(out, parse_constant=strict)
    assert out == dumps_canonical(payload)
    return payload


#: The integer fields of a build scenario, by their path in it.
BUILD_INT_FIELDS = {
    "s": ("requirement", "s"),
    "derivative_levels": ("requirement", "derivative_levels"),
    "samples_per_primitive": ("requirement", "K", "samples_per_primitive"),
    "F-pair": ("F", 3, 1),
}

#: An overflowing float literal, an integer beyond int64, a non-integral float.
BAD_INTEGERS = {"1e400": "1e400", "10**400": str(10**400), "2.7": "2.7"}


def with_literal(obj, path, text):
    """The JSON text of ``obj`` with the value at ``path`` written as the literal ``text``."""
    *parents, last = path
    node = obj
    for key in parents:
        node = node[key]
    node[last] = "MARK"
    return json.dumps(obj).replace('"MARK"', text)


class TestPadeCommand:
    def test_exponential_one_one(self, capsys):
        code, out, _ = run(capsys, "pade", "--coeffs", json.dumps(EXP_COEFFS), "--p", "1", "--q", "1")
        assert code == 0
        payload = strict_report(out)
        assert sorted(payload) == ["hankel", "order_condition_residual", "rational"]
        assert payload["order_condition_residual"] < 1e-10
        a = payload["rational"]["A"]
        b = payload["rational"]["B"]
        assert abs(a[0][0] - 1.0) < 1e-12 and abs(a[1][0] - 0.5) < 1e-12
        assert abs(b[0][0] - 1.0) < 1e-12 and abs(b[1][0] + 0.5) < 1e-12

    def test_nonexistent_cell_exits_two(self, capsys):
        code, _, err = run(capsys, "pade", "--coeffs", json.dumps(GEOM_COEFFS), "--p", "1", "--q", "2")
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "pade-not-exist"
        assert abs(diag["hankel"]["value"][0]) <= diag["hankel"]["threshold"]

    def test_q_zero_echoes_partial_sum(self, capsys):
        code, out, _ = run(capsys, "pade", "--coeffs", json.dumps(GEOM_COEFFS), "--p", "3", "--q", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["rational"]["A"] == [[1.0, 0.0]] * 4
        assert payload["rational"]["B"] == [[1.0, 0.0]]

    def test_out_of_range_fraction_exits_one(self, capsys):
        coeffs = '[["1e999", 0], [1, 0]]'
        code, _, err = run(capsys, "pade", "--coeffs", coeffs, "--p", "1", "--q", "0")
        assert code == 1
        diag = json.loads(err)
        assert diag["error"] == "validation" and "must be finite" in diag["message"]

    @pytest.mark.parametrize("series", [
        ("--series", '{"center": [0, 0], "coeffs": 5}'),
        ("--series", '{"center": [0, 0], "coeffs": [[1, [2]]]}'),
        ("--coeffs", "5"),
    ], ids=["coeffs-number", "nested-part", "inline-number"])
    def test_malformed_series_exits_one(self, capsys, series):
        code, out, err = run(capsys, "pade", *series, "--p", "0", "--q", "0")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "validation"

    def test_threshold_overflow_exits_three(self, capsys):
        coeffs = json.dumps([[1e30, 0]] * 20)
        code, out, err = run(capsys, "pade", "--coeffs", coeffs, "--p", "5", "--q", "11")
        assert (code, out) == (3, "")
        diag = json.loads(err)
        assert diag["error"] == "numeric" and "(5,11) cell overflows" in diag["message"]

    def test_threshold_product_overflow_exits_three(self, capsys):
        # 1e10 * (1e150)^2 is inf without an OverflowError: exit 3, where the
        # command exited 2 with a non-JSON "threshold": Infinity
        coeffs = json.dumps([[1e150, 0]] * 4)
        code, out, err = run(
            capsys, "pade", "--coeffs", coeffs, "--p", "1", "--q", "2", "--tau-det", "1e10"
        )
        assert (code, out) == (3, "")
        assert one_json_line(err) == {
            "error": "numeric",
            "message": "Hankel threshold of the (1,2) cell overflows: scale 1.000e+150",
        }

    @pytest.mark.parametrize("tau_det", ["inf", "nan", "0", "-1e-10"])
    def test_tau_det_must_be_finite_and_positive(self, capsys, tau_det):
        # one argument, as "--tau-det -1e-10" reads -1e-10 as an option
        argv = ("--coeffs", json.dumps(EXP_COEFFS), f"--tau-det={tau_det}")
        for command in (("pade", "--p", "1", "--q", "1"), ("table", "--p-max", "1", "--q-max", "1")):
            code, out, err = run(capsys, *command, *argv)
            assert (code, out) == (1, "")
            assert one_json_line(err) == {
                "error": "validation",
                "message": f"tau_det must be a finite positive number, got {float(tau_det)!r}",
            }

    def test_determinant_overflow_exits_three(self, capsys):
        # the (11, 11) threshold is finite, its determinant is not: exit 3,
        # where the command printed a non-JSON -Infinity
        coeffs = json.dumps([[c.real, c.imag] for c in overflowing_determinants()])
        code, out, err = run(capsys, "pade", "--coeffs", coeffs, "--p", "11", "--q", "11")
        assert (code, out) == (3, "")
        diag = one_json_line(err)
        assert diag["error"] == "numeric"
        assert "determinant of the (11,11) cell is not finite" in diag["message"]

    def test_numerator_overflow_exits_three(self, capsys):
        # every input is finite, B = [1, -1e160], and a_0 b_1 leaves the float
        # range: a numeric failure naming the cell, where it read as a
        # validation error "coefficients must be finite" after a numpy warning
        coeffs = "[[1e160,0],[1e-160,0],[1,0],[0,0]]"
        code, out, err = run(capsys, "pade", "--coeffs", coeffs, "--p", "1", "--q", "1")
        assert (code, out) == (3, "")
        assert one_json_line(err) == {
            "error": "numeric",
            "message": "Pade approximant of the (1,1) cell is not finite: scale 1.000e-160",
        }

    def test_residual_overflow_exits_three(self, capsys):
        # the approximant is finite, but the Taylor expansion of A/B leaves the
        # float range (k = 3 reads -inf + nan i): a numeric failure naming the
        # cell, where the JSON writer's "Out of range float values" exited 1
        coeffs = "[[1e4,0],[1e22,0],[1e-191,0],[1e57,0]]"
        f = FormalPowerSeries([1e4, 1e22, 1e-191, 1e57])
        with np.errstate(over="ignore", invalid="ignore"):
            assert order_condition_residual(f, pade_approximant(f, 2, 1)) == math.inf
        code, out, err = run(capsys, "pade", "--coeffs", coeffs, "--p", "2", "--q", "1")
        assert (code, out) == (3, "")
        assert one_json_line(err) == {
            "error": "numeric",
            "message": "order-condition residual of the (2,1) cell is not finite: scale 1.000e-191",
        }

    def test_usage_error_exits_one(self, capsys):
        code, _, err = run(capsys, "pade", "--p", "1", "--q", "1")
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


class TestTableCommand:
    def test_series_inline_and_from_a_file(self, capsys, tmp_path):
        # --coeffs/--center, an inline --series object and a --series file
        # give the same bytes, for pade and for table
        coeffs, center = [[1 / (k + 1), 0.5 * k] for k in range(8)], [0.25, -0.5]
        series = json.dumps({"center": center, "coeffs": coeffs})
        path = tmp_path / "series.json"
        path.write_text(series)
        sources = (
            ("--coeffs", json.dumps(coeffs), "--center", json.dumps(center)),
            ("--series", series),
            ("--series", str(path)),
        )
        for command in (("pade", "--p", "2", "--q", "2"), ("table", "--p-max", "3", "--q-max", "3")):
            outputs = {run(capsys, *command, *source) for source in sources}
            assert len(outputs) == 1
            ((code, out, err),) = outputs
            assert (code, err) == (0, "") and out

    def test_table_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "table", "--coeffs", json.dumps(GEOM_COEFFS),
            "--p-max", "2", "--q-max", "2", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "p,q,det_re,det_im,abs_det,exists"
        assert len(lines) == 10

    def test_tau_det_flips_a_membership_cell(self, capsys):
        # D_{1,1} of exp is a_1 = 1 with scale 1: nonvanishing at 1e-10, not at 1e3
        argv = ("table", "--coeffs", json.dumps(EXP_COEFFS), "--p-max", "1", "--q-max", "1")
        cells = []
        for extra in ((), ("--tau-det", "1e3")):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            cells.append({tuple(row.split(",")[:2]): row.split(",")[-1] for row in out.split()[1:]})
        assert cells[0][("1", "1")] == "true" and cells[1][("1", "1")] == "false"
        assert cells[0][("1", "0")] == cells[1][("1", "0")] == "true"


    def test_threshold_overflow_exits_three(self, capsys, tmp_path):
        # the q = 11 column overflows in its first cell; nothing is written
        coeffs = json.dumps([[1, 0]] * 10 + [[1e30, 0]] + [[1, 0]] * 9)
        out_path = tmp_path / "table.csv"
        code, out, err = run(
            capsys, "table", "--coeffs", coeffs, "--p-max", "8", "--q-max", "11",
            "--out", str(out_path),
        )
        assert (code, out) == (3, "") and not out_path.exists()
        diag = json.loads(err)
        assert diag["error"] == "numeric" and "(0,11) cell overflows" in diag["message"]

    def test_threshold_product_overflow_exits_three(self, capsys):
        # the (0, 2) cell, |D| = 1e300, read "false" against an infinite threshold
        coeffs = json.dumps([[1e150, 0]] * 4)
        argv = ("table", "--coeffs", coeffs, "--p-max", "1", "--q-max", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "0,2,-9.9999999999997626e+299,0,9.9999999999997626e+299,true" in out
        code, out, err = run(capsys, *argv, "--tau-det", "1e10")
        assert (code, out) == (3, "")
        assert one_json_line(err)["message"] == (
            "Hankel threshold of the (0,2) cell overflows: scale 1.000e+150"
        )

    def test_determinant_overflow_exits_three(self, capsys, tmp_path):
        # the q = 11 column overflows from p = 1 on, where the table wrote
        # rows like 1,11,inf,-inf,inf,true; nothing is written
        coeffs = json.dumps([[c.real, c.imag] for c in overflowing_determinants()])
        out_path = tmp_path / "table.csv"
        code, out, err = run(
            capsys, "table", "--coeffs", coeffs, "--p-max", "12", "--q-max", "11",
            "--out", str(out_path),
        )
        assert (code, out) == (3, "") and not out_path.exists()
        diag = one_json_line(err)
        assert diag["error"] == "numeric"
        assert "determinant of the (1,11) cell is not finite" in diag["message"]


class TestBuildCommand:
    def test_build_and_verify(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        code, _, _ = run(capsys, "build", "--scenario", str(scenario), "--out", str(out))
        assert code == 0
        record = load_run(out)
        assert record.certificates[0].passed
        assert "universal_poly" in record.artifacts

        code, verify_out, _ = run(capsys, "verify", "--run", str(out))
        assert code == 0
        payload = json.loads(verify_out)
        assert payload["match"] is True
        assert payload["max_deviation"] <= 1e-12

    def test_zero_target_certifies_by_identity(self, capsys, tmp_path):
        # the fit is three exact zeros; p sits above all three, so u = d z^p
        zero = {"kind": "poly", "coeffs": [[0, 0]]}
        scenario_data = build_scenario()
        scenario_data["requirement"]["target"] = scenario_data["f_on_L"] = zero
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_data))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        cert = load_run(out).certificates[0]
        assert cert.passed and cert.selected[0] == 3 and cert.diagnostics["by_identity"] is True
        code, verify_out, _ = run(capsys, "verify", "--run", str(out))
        assert code == 0 and json.loads(verify_out)["match"] is True

    @pytest.mark.parametrize("command, scenario", [
        ("build", build_scenario()), ("seleznev", extension_scenario()),
        ("greedy", greedy_scenario()),
    ])
    def test_builders_take_no_tolerance_option(self, capsys, tmp_path, command, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(capsys, command, "--scenario", str(path), "--tau-det", "1e-3")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "usage"

    def test_verify_names_the_deviating_conclusion(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        achieved = record["certificates"][0]["achieved"]
        measured = achieved["5"]
        achieved["5"] = measured + 1e-6
        out.write_text(json.dumps(record))

        code, _, err = run(capsys, "verify", "--run", str(out))
        assert code == 3
        diag = json.loads(err)
        assert diag["error"] == "verification-mismatch"
        assert diag["missing"] == []
        assert abs(diag["max_deviation"] - 1e-6) <= 1e-12
        assert diag["deviating"] == {
            "5": {"stored": measured + 1e-6, "remeasured": measured}
        }

    def test_verify_checks_the_perturbation(self, capsys, tmp_path):
        # the stored perturbation is compared with the coefficient of u at p,
        # not copied into the re-measured certificate
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        cert = record["certificates"][0]
        p = cert["selected"][0]
        installed = record["artifacts"]["universal_poly"]["coeffs"][p]
        assert cert["perturbation"] == installed
        cert["perturbation"] = [123.0, 0.0]
        out.write_text(json.dumps(record))

        code, verify_out, err = run(capsys, "verify", "--run", str(out))
        assert code == 3
        payload = json.loads(verify_out)
        assert payload["match"] is False
        assert payload["certificate"]["perturbation"] == installed
        diag = json.loads(err)
        assert diag["error"] == "verification-mismatch"
        assert diag["deviating"] == {
            "perturbation": {"stored": [123.0, 0.0], "remeasured": installed}
        }

    def test_verify_accepts_record_with_retired_tolerance(self, capsys, tmp_path):
        # records written while ToleranceConfig still had tau_residual keep verifying
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        assert "tau_residual" not in record["environment"]["tolerances"]
        record["environment"]["tolerances"]["tau_residual"] = 1e-8
        out.write_text(json.dumps(record))

        code, verify_out, _ = run(capsys, "verify", "--run", str(out))
        assert code == 0
        assert json.loads(verify_out)["match"] is True

    def test_verify_remeasures_under_the_recorded_tolerances(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        assert record["environment"]["tolerances"] == {"tau_det": 1e-10}

        # an older record stamped with the retired tau_zero verifies: the key
        # is ignored, and u holds by identity under any tau_det
        record["environment"]["tolerances"] = {"tau_zero": 1.0, "tau_det": 1e-3}
        out.write_text(json.dumps(record))
        code, verify_out, _ = run(capsys, "verify", "--run", str(out))
        assert code == 0
        payload = json.loads(verify_out)
        assert payload["match"] is True
        assert payload["certificate"]["diagnostics"]["by_identity"] is True

        # u padded by one exact zero keeps its degree, and so its identity
        coeffs = record["artifacts"]["universal_poly"]["coeffs"]
        coeffs.append([0.0, 0.0])
        for tau_det in (1e-3, 1.0):
            record["environment"]["tolerances"] = {"tau_det": tau_det}
            out.write_text(json.dumps(record))
            code, verify_out, _ = run(capsys, "verify", "--run", str(out))
            payload = json.loads(verify_out)
            assert (code, payload["match"]) == (0, True)
            assert payload["certificate"]["diagnostics"]["by_identity"] is True

        # a tiny nonzero coefficient above p is measured center by center under
        # the stamped tau_det: its (13, 1) window at 0 passes the test at 1e-3
        # (the sups then deviate by rounding) and vanishes at 2, where the
        # one-entry window a_p can never exceed 2 |a_p| (at 1 it is a tie
        # that rounding breaks)
        coeffs[-1] = [1e-300, 0.0]
        for tau_det, expected, label in ((1e-3, 3, "verification-mismatch"),
                                         (2.0, 2, "pade-not-exist")):
            record["environment"]["tolerances"] = {"tau_det": tau_det}
            out.write_text(json.dumps(record))
            code, _, err = run(capsys, "verify", "--run", str(out))
            assert (code, json.loads(err)["error"]) == (expected, label)

    @pytest.mark.parametrize("pairs", [2, 5])
    def test_verify_of_many_trailing_zeros_keeps_the_identity(self, capsys, tmp_path, pairs):
        # the build certifies at (13, 1) with 14 coefficients: zeros appended
        # beyond p + q + 1 = 15 leave u of degree 13, verified by identity
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        assert record["certificates"][0]["selected"] == [13, 1]
        record["artifacts"]["universal_poly"]["coeffs"] += [[0.0, 0.0]] * pairs
        out.write_text(json.dumps(record))
        code, verify_out, _ = run(capsys, "verify", "--run", str(out))
        payload = json.loads(verify_out)
        assert (code, payload["match"]) == (0, True)
        assert payload["certificate"]["diagnostics"]["by_identity"] is True

    def test_overflowing_hankel_min_is_written_as_strict_json(self, capsys, tmp_path):
        # K inside the unit disk and p = 300: d = 2.0e64, and |d|^5 overflows
        scenario = build_scenario()
        requirement = scenario["requirement"]
        requirement["K"]["primitives"] = [{"kind": "segment", "a": [0.5, 0], "b": [0.6, 0]}]
        requirement["L"]["primitives"][0]["radius"] = 0.1
        requirement["J"]["primitives"][0]["radius"] = 0.2
        scenario["F"] = [[300, 5]]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(path), "--out", str(out))[0] == 0
        cert = json.loads(out.read_text(), parse_constant=strict)["certificates"][0]
        d = complex(*cert["perturbation"])
        assert cert["passed"] and cert["selected"] == [300, 5] and abs(d) > 1e64
        assert cert["hankel_min"] is None
        assert cert["diagnostics"]["hankel_min_log10"] == 5 * math.log10(abs(d))
        assert load_run(out).certificates[0].hankel_min == math.inf
        code, verify_out, _ = run(capsys, "verify", "--run", str(out))
        payload = strict_report(verify_out)
        assert (code, payload["match"]) == (0, True)
        assert payload["certificate"]["hankel_min"] is None

    def test_verify_refuses_malformed_tolerances(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        record["environment"]["tolerances"]["tau_det"] = "1e-3"
        out.write_text(json.dumps(record))

        code, _, err = run(capsys, "verify", "--run", str(out))
        assert code == 1
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("tau_det", [True, 0.0])
    def test_verify_refuses_a_stamped_tau_det_that_is_no_positive_number(
        self, capsys, tmp_path, tau_det
    ):
        # a stamped true once re-verified under the threshold base 1.0
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        record["environment"]["tolerances"]["tau_det"] = tau_det
        out.write_text(json.dumps(record))
        code, _, err = run(capsys, "verify", "--run", str(out))
        assert code == 1
        assert one_json_line(err) == {
            "error": "schema",
            "message": f"malformed tolerances: tau_det must be a finite positive number, "
                       f"got {tau_det!r}",
        }

    @pytest.mark.parametrize("f_on_l", [
        {"kind": "rational", "numer": [[1e200, 0]], "denom": [[1e200, 0], [-5e199, 0]]},
        {"kind": "poly", "coeffs": [[1, 0], [0, 0], [1e308, 0]]},
    ], ids=["rational", "poly"])
    def test_a_target_level_beyond_the_float_range_writes_one_line(self, capsys, tmp_path, f_on_l):
        # level 1 of each leaves the float range (B^2, or 2e308 z); the set-up
        # wrote numpy RuntimeWarnings before the diagnostic
        scenario = build_scenario()
        scenario["requirement"]["derivative_levels"] = 2
        scenario["f_on_L"] = f_on_l
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(capsys, "build", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert one_json_line(err) == {"error": "validation", "message": "coefficients must be finite"}

    def test_verify_takes_no_tolerance_option(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        code, _, err = run(capsys, "verify", "--run", str(out), "--tau-det", "1e-3")
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_short_index_sequence_exits_five(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario(f_max=2)))
        out = tmp_path / "run.json"
        code, _, err = run(capsys, "build", "--scenario", str(scenario), "--out", str(out))
        assert code == 5
        assert json.loads(err)["error"] == "index-exhausted"
        # the diagnostic record is still written
        assert load_run(out).certificates == []

    def test_failed_search_exits_six(self, capsys, tmp_path):
        # 3^1100 leaves the float range, so d reads 0 and (1100, 1) is
        # refused with a diagnostic and a record, not a traceback
        scenario_data = build_scenario()
        scenario_data["F"] = [[1100, 1]]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_data))
        out = tmp_path / "run.json"
        code, stdout, err = run(capsys, "build", "--scenario", str(scenario), "--out", str(out))
        assert (code, stdout) == (6, "")
        assert json.loads(err) == {
            "error": "perturbation-failed",
            "message": "no admissible perturbation at index pair (1100,1): "
                       "d = 0.000e+00 is not a positive float",
        }
        assert load_run(out).certificates == []

    def test_refused_pairs_exit_six_unmeasured(self, capsys, tmp_path, monkeypatch):
        # the wide geometry at q = 2: (1100, 2) is refused before any measurement
        scenario_data = wide_scenario()
        scenario_data["F"] = [[1100, 2]]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_data))
        out = tmp_path / "run.json"
        calls = []
        monkeypatch.setattr(construct._Measurement, "__call__", lambda *a, **k: calls.append(a))
        code, _, err = run(capsys, "build", "--scenario", str(scenario), "--out", str(out))
        assert code == 6 and calls == []
        diag = json.loads(err)
        assert diag["error"] == "perturbation-failed"
        assert "index pair (1100,2): d = 0.000e+00 is not a positive float" in diag["message"]
        assert load_run(out).certificates == []

    def test_pair_the_walls_refused_certifies_and_verifies(self, capsys, tmp_path):
        # the fit stops at degree 22; the float Hankel test of (23, 2) fails
        # at every |d| the sups allow, but the pair holds exactly
        scenario_data = wide_scenario()
        scenario_data["F"] = [[23, 2]]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_data))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        cert = load_run(out).certificates[0]
        assert cert.passed and cert.selected == (23, 2)
        code, verify_out, _ = run(capsys, "verify", "--run", str(out))
        payload = json.loads(verify_out)
        assert code == 0 and payload["match"] is True and payload["max_deviation"] == 0.0

    def test_verify_of_a_non_finite_sup_exits_three(self, capsys, tmp_path):
        # u = 2.4e127 z^600 overflows on K = [2, 3], and inf * 0 in Horner
        # gives NaN: the re-measurement refuses the sup, where it once
        # recorded 0.0 and then failed to write the NaN of sup_u_d0
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        record["artifacts"]["universal_poly"]["coeffs"] = [[0.0, 0.0]] * 600 + [[2.4e127, 0.0]]
        record["certificates"][0]["selected"] = [600, 1]
        out.write_text(json.dumps(record))
        code, verify_out, err = run(capsys, "verify", "--run", str(out))
        assert (code, verify_out) == (3, "")
        assert one_json_line(err) == {
            "error": "numeric", "message": "the sup on K at derivative level 0 is nan"
        }

    def test_verify_of_a_vanishing_window_exits_two(self, capsys, tmp_path):
        # u_p = 0 in the record: u falls below degree p, so its (23, 2)
        # windows vanish and the re-measurement refuses the first center
        scenario_data = wide_scenario()
        scenario_data["F"] = [[23, 2]]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_data))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        record["artifacts"]["universal_poly"]["coeffs"][23] = [0.0, 0.0]
        out.write_text(json.dumps(record))
        code, verify_out, err = run(capsys, "verify", "--run", str(out))
        assert (code, verify_out) == (2, "")
        diag = json.loads(err)
        assert diag["error"] == "pade-not-exist"
        assert (diag["hankel"]["p"], diag["hankel"]["q"]) == (23, 2)
        assert diag["hankel"]["nonvanishing"] is False
        assert diag["hankel"]["center"] == [0.0, 0.0]

    @pytest.mark.parametrize("measure", [
        raising(errors.PadeNotExistError(hankel_determinant(FormalPowerSeries([1.0] * 8), 1, 2))),
        raising(errors.NonFiniteSupError("the sup on K at derivative level 0 is nan")),
        failing_sup,
    ], ids=["hankel", "non-finite", "failing-sup"])
    def test_refused_measurement_of_the_trial_exits_six(
        self, capsys, tmp_path, monkeypatch, measure
    ):
        # a trial whose Hankel test fails at a center, or whose sup is not
        # finite, is refused like one whose certificate fails a sup: exit 6
        # and the record, not exit 2 or 3
        monkeypatch.setattr(construct._Measurement, "__call__", measure)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        code, stdout, err = run(capsys, "build", "--scenario", str(scenario), "--out", str(out))
        assert (code, stdout) == (6, "")
        diag = json.loads(err)
        assert diag["error"] == "perturbation-failed"
        assert diag["message"].endswith("failed its measurement")
        assert load_run(out).certificates == []

    def test_fit_floor_exits_four(self, capsys, tmp_path):
        # s = 10^4 asks for a residual below the float64 fit floor (5.4e-5)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario(s=10000)))
        out = tmp_path / "run.json"
        code, _, err = run(capsys, "build", "--scenario", str(scenario), "--out", str(out))
        assert code == 4
        assert json.loads(err)["error"] == "fit-failed"
        assert load_run(out).certificates == []

    def test_overlapping_compacts_exit_one(self, capsys, tmp_path):
        scenario_data = build_scenario()
        scenario_data["requirement"]["K"] = {
            "primitives": [{"kind": "segment", "a": [0, 0], "b": [1, 0]}],
            "samples_per_primitive": 16,
        }
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_data))
        code, _, err = run(capsys, "build", "--scenario", str(scenario))
        assert code == 1
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("name", ["L", "J"])
    def test_crossing_compacts_exit_one(self, capsys, tmp_path, name):
        # K crosses L (or J) at 2, between the grid points of both
        scenario_data = build_scenario()
        requirement = scenario_data["requirement"]
        requirement["K"] = {"primitives": [{"kind": "segment", "a": [2, -0.5], "b": [2, 0.5]}]}
        requirement[name] = {"primitives": [{"kind": "segment", "a": [1.5, 0], "b": [2.5, 0]}]}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_data))
        code, out, err = run(capsys, "build", "--scenario", str(scenario))
        assert (code, out) == (1, "")
        diag = one_json_line(err)
        assert diag["error"] == "validation"
        assert diag["message"].startswith(f"K and {name} overlap")

    def test_empty_table_target_is_refused(self, capsys, tmp_path):
        scenario_data = build_scenario()
        scenario_data["f_on_L"] = {"kind": "table", "points": [], "values": []}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(scenario_data))
        code, out, err = run(capsys, "build", "--scenario", str(scenario))
        assert (code, out) == (1, "")
        assert one_json_line(err) == {
            "error": "validation", "message": "a table target needs at least one point",
        }

    def test_determinism_modulo_timestamp(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(first))[0] == 0
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(second))[0] == 0
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        a["environment"].pop("timestamp")
        b["environment"].pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestIntegerFields:
    @pytest.mark.parametrize("value", BAD_INTEGERS.values(), ids=BAD_INTEGERS.keys())
    @pytest.mark.parametrize("field", BUILD_INT_FIELDS)
    def test_build_scenario_field(self, capsys, tmp_path, field, value):
        path = tmp_path / "scenario.json"
        path.write_text(with_literal(build_scenario(), BUILD_INT_FIELDS[field], value))
        code, _, err = run(capsys, "build", "--scenario", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("value", BAD_INTEGERS.values(), ids=BAD_INTEGERS.keys())
    def test_seleznev_s(self, capsys, tmp_path, value):
        path = tmp_path / "scenario.json"
        path.write_text(with_literal(extension_scenario(), ("s",), value))
        code, _, err = run(capsys, "seleznev", "--scenario", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("value", BAD_INTEGERS.values(), ids=BAD_INTEGERS.keys())
    @pytest.mark.parametrize("field", [("fit_degree",), ("selected", 1)], ids=["fit_degree", "selected"])
    def test_record_field(self, capsys, tmp_path, field, value):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario()))
        out = tmp_path / "run.json"
        assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
        record = json.loads(out.read_text())
        out.write_text(with_literal(record, ("certificates", 0, *field), value))
        code, verify_out, err = run(capsys, "verify", "--run", str(out))
        assert code == 1 and verify_out == ""
        diag = json.loads(err)
        assert diag["error"] == "schema"
        assert diag["message"].startswith("malformed record: ")


class TestExtensionCommands:
    def test_seleznev_command(self, capsys, tmp_path):
        scenario = tmp_path / "ext.json"
        scenario.write_text(json.dumps(extension_scenario()))
        out = tmp_path / "run.json"
        code, _, _ = run(capsys, "seleznev", "--scenario", str(scenario), "--out", str(out))
        assert code == 0
        record = load_run(out)
        assert record.certificates[0].passed
        assert record.artifacts["coefficients"][0] == [0.0, 0.0]

    def test_greedy_two_steps(self, capsys, tmp_path):
        scenario = tmp_path / "greedy.json"
        scenario.write_text(json.dumps(greedy_scenario()))
        out = tmp_path / "run.json"
        code, _, _ = run(capsys, "greedy", "--scenario", str(scenario), "--out", str(out))
        assert code == 0
        record = load_run(out)
        assert len(record.certificates) == 2
        assert all(c.passed for c in record.certificates)


    @pytest.mark.parametrize(
        "command, scenario",
        [("seleznev", extension_scenario()), ("greedy", greedy_scenario())],
    )
    def test_verify_refuses_extension_record(self, capsys, tmp_path, command, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "run.json"
        assert run(capsys, command, "--scenario", str(path), "--out", str(out))[0] == 0

        code, verify_out, err = run(capsys, "verify", "--run", str(out))
        assert code == 1
        assert verify_out == ""
        assert json.loads(err) == {
            "error": "schema",
            "message": "record carries no built polynomial to verify",
        }


#: Every failure class with the exit code and label the table gives it.
#: ``ScheduleStepError`` has no row: ``main`` looks up its cause instead.
FAILURE_ROWS = [
    (cli._UsageError, 1, "usage"),
    (errors.PadeUniversalError, 1, "validation"),
    (errors.TruncationExceededError, 3, "numeric"),
    (errors.LengthMismatchError, 1, "validation"),
    (errors.PadeNotExistError, 2, "pade-not-exist"),
    (errors.DegenerateDenominatorError, 3, "numeric"),
    (errors.HankelOverflowError, 3, "numeric"),
    (errors.PoleProximityError, 3, "numeric"),
    (errors.DegreeMismatchError, 1, "validation"),
    (errors.EmptySpecError, 1, "validation"),
    (errors.EmptyResultError, 1, "validation"),
    (errors.UnsupportedDomainError, 1, "validation"),
    (errors.IndexExhaustedError, 5, "index-exhausted"),
    (errors.FitFailedError, 4, "fit-failed"),
    (errors.IllConditionedError, 3, "numeric"),
    (errors.PerturbationFailedError, 6, "perturbation-failed"),
    (errors.OriginInKError, 3, "numeric"),
    (errors.NonFiniteSupError, 3, "numeric"),
    (errors.SchemaError, 1, "schema"),
    (ValueError, 1, "validation"),
    (KeyError, 1, "validation"),
    (OSError, 1, "validation"),
    (json.JSONDecodeError, 1, "validation"),
    (np.linalg.LinAlgError, 3, "numeric"),
]

UNVALUED_TABLE = (
    {"primitives": [{"kind": "circle", "center": [2, 0], "radius": 0.5}],
     "samples_per_primitive": 16},
    {"kind": "table", "points": [[0, 0]], "values": [[1, 0]]},
)
ORIGIN_IN_K = (
    {"primitives": [{"kind": "filled_disk", "center": [0, 0], "radius": 0.5}],
     "samples_per_primitive": 16},
    extension_scenario()["psi"],
)


class TestFailureTable:
    @pytest.mark.parametrize("cls, code, label", FAILURE_ROWS)
    def test_lookup(self, cls, code, label):
        assert cli._failure(cls.__new__(cls)) == (code, label)

    def test_every_package_error_has_a_pinned_row(self):
        classes = {
            cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == errors.__name__
        }
        assert classes - {cls for cls, _, _ in FAILURE_ROWS} == {ScheduleStepError}

    def test_pade_not_exist_carries_the_report_only(self, capsys):
        code, _, err = run(capsys, "pade", "--coeffs", json.dumps(GEOM_COEFFS), "--p", "1", "--q", "2")
        assert code == 2
        report = hankel_determinant(FormalPowerSeries([1.0] * 8), 1, 2).to_json()
        assert err == json.dumps({"error": "pade-not-exist", "hankel": report}, sort_keys=True) + "\n"

    def test_failed_step_exits_as_its_cause(self, capsys, tmp_path):
        # w = 2 makes the third step's fit ramp refuse: its best residual
        # (about 1.6e-2) sits well above the target 5e-3, so rounding in the
        # fit cannot flip it, as it flips the near-floor weights around 1.3
        scenario = tmp_path / "greedy.json"
        scenario.write_text(json.dumps(desk_schedule_scenario(w=2.0)))
        code, _, err = run(capsys, "greedy", "--scenario", str(scenario))
        assert code == 4
        diag = json.loads(err)
        assert diag["error"] == "schedule-step" and diag["step"] == 2
        assert diag["message"].startswith("least-squares ramp reached degree")

        # with --out, the refusal also writes the record, with no certificate
        out = tmp_path / "run.json"
        again = run(capsys, "greedy", "--scenario", str(scenario), "--out", str(out))
        assert again == (4, "", err)
        record = load_run(out)
        assert record.certificates == [] and record.artifacts == {}
        assert record.scenario == desk_schedule_scenario(w=2.0)

    def test_refused_extension_writes_its_record(self, capsys, tmp_path):
        # (1100, 1) on the circle at s = 10: 2.5^1100 leaves the float range,
        # so the pair is refused
        scenario_data = {**extension_scenario(), "s": 10, "F": [[1100, 1]]}
        scenario = tmp_path / "ext.json"
        scenario.write_text(json.dumps(scenario_data))
        code, _, err = run(capsys, "seleznev", "--scenario", str(scenario))
        assert code == 6
        diag = json.loads(err)
        assert diag["error"] == "perturbation-failed"
        assert "index pair (1100,1): d = 0.000e+00 is not a positive float" in diag["message"]

        out = tmp_path / "run.json"
        again = run(capsys, "seleznev", "--scenario", str(scenario), "--out", str(out))
        assert again == (6, "", err)
        assert load_run(out).certificates == []

    @pytest.mark.parametrize("command", ["seleznev", "greedy"])
    def test_failure_that_is_no_refusal_writes_no_record(self, capsys, tmp_path, command):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(one_step_scenario(command, *ORIGIN_IN_K)))
        out = tmp_path / "run.json"
        code, _, _ = run(capsys, command, "--scenario", str(scenario), "--out", str(out))
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["seleznev", "greedy"])
    @pytest.mark.parametrize(
        "case, code, label",
        [(UNVALUED_TABLE, 1, "validation"), (ORIGIN_IN_K, 3, "numeric")],
        ids=["unvalued-table", "origin-in-K"],
    )
    def test_one_step_commands_agree(self, capsys, tmp_path, command, case, code, label):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(one_step_scenario(command, *case)))
        got, _, err = run(capsys, command, "--scenario", str(scenario))
        assert got == code
        diag = json.loads(err)
        if command == "seleznev":
            assert diag["error"] == label
        else:
            assert diag["error"] == "schedule-step" and diag["step"] == 0

    def test_step_cause_without_a_row_exits_three(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ScheduleStepError(1, TypeError("no row"))

        monkeypatch.setattr(cli, "run_extension_schedule", fail)
        scenario = tmp_path / "greedy.json"
        scenario.write_text(json.dumps(greedy_scenario()))
        code, _, err = run(capsys, "greedy", "--scenario", str(scenario))
        assert code == 3
        assert json.loads(err) == {"error": "schedule-step", "message": "no row", "step": 1}

    def test_direct_failure_without_a_row_propagates(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise TypeError("no row")

        monkeypatch.setattr(cli, "extend_prefix", fail)
        scenario = tmp_path / "ext.json"
        scenario.write_text(json.dumps(extension_scenario()))
        with pytest.raises(TypeError, match="no row"):
            cli.main(["seleznev", "--scenario", str(scenario)])
        assert capsys.readouterr().err == ""


def test_tau_det_only_where_it_decides():
    (subcommands,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    with_tau_det = sorted(
        name for name, parser in subcommands.choices.items()
        if any("--tau-det" in action.option_strings for action in parser._actions)
    )
    assert with_tau_det == ["pade", "table"]


def built_record(capsys, tmp_path) -> dict:
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(build_scenario()))
    out = tmp_path / "run.json"
    assert run(capsys, "build", "--scenario", str(scenario), "--out", str(out))[0] == 0
    return json.loads(out.read_text())


#: Malformed values of a build record, by their path in it.
MALFORMED_RECORD = {
    "scenario-list": (("scenario",), "[]"),
    "requirement-list": (("scenario", "requirement"), "[]"),
    "environment-list": (("environment",), "[]"),
    "achieved-list": (("certificates", 0, "achieved"), "[]"),
    "achieved-nan-string": (("certificates", 0, "achieved", "2"), '"nan"'),
    "achieved-nan": (("certificates", 0, "achieved", "2"), "NaN"),
    "selected-short": (("certificates", 0, "selected"), "[5]"),
    "selected-negative": (("certificates", 0, "selected"), "[-5, 10]"),
    "requested-string": (("certificates", 0, "requested"), '"0.5"'),
    "hankel-min-boolean": (("certificates", 0, "hankel_min"), "true"),
    "universal-poly-list": (("artifacts", "universal_poly"), "[]"),
}

#: Malformed build scenarios, by the path of the bad value.
MALFORMED_SCENARIO = {
    "scenario-list": ((), "[]"),
    "requirement-list": (("requirement",), "[]"),
    "target-number": (("requirement", "target"), "5"),
    "F-number": (("F",), "5"),
    "coeffs-nested": (("f_on_L", "numer"), "[[1, [2]]]"),
    # JSON booleans are not numbers: [[true, false]] read as 1 + 0j and certified
    "coeffs-boolean": (("f_on_L", "numer"), "[[true, false]]"),
    # a 401-digit integer raised OverflowError, a traceback with no diagnostic
    "coeffs-huge-integer": (("f_on_L", "numer"), f"[[{10**400}, 0]]"),
    "coeffs-huge-bare-integer": (("f_on_L", "numer"), f"[{10**400}]"),
    # a radius read by float(): true read as 1.0 and "0.5" as 0.5
    "radius-boolean": (("requirement", "L", "primitives", 0, "radius"), "true"),
    "radius-string": (("requirement", "L", "primitives", 0, "radius"), '"0.5"'),
    "radius-huge-integer": (("requirement", "J", "primitives", 0, "radius"), str(10**400)),
}


class TestMalformedInput:
    """A JSON value of the wrong type exits 1 with a diagnostic, not a traceback."""

    @pytest.mark.parametrize("case", MALFORMED_RECORD)
    def test_record(self, capsys, tmp_path, case):
        path, literal = MALFORMED_RECORD[case]
        record = tmp_path / "bad.json"
        record.write_text(with_literal(built_record(capsys, tmp_path), path, literal))
        code, out, err = run(capsys, "verify", "--run", str(record))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("case", MALFORMED_SCENARIO)
    def test_scenario(self, capsys, tmp_path, case):
        path, literal = MALFORMED_SCENARIO[case]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(literal if not path else with_literal(build_scenario(), path, literal))
        code, out, err = run(capsys, "build", "--scenario", str(scenario))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("domain", [
        {"kind": "disk_union", "disks": [1]},
        {"kind": "disk_union", "disks": 5},
        {"kind": "disk", "center": [0, 0], "radius": [1]},
    ], ids=["disk-number", "disks-number", "radius-list"])
    def test_family_domain(self, capsys, domain):
        code, out, err = run(
            capsys, "family", "--domain", json.dumps(domain), "--mode", "interior", "--index", "2",
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "validation"


class TestParserCache:
    def test_successive_calls_match_fresh_parsers(self, capsys):
        calls = [
            ("pade", "--p", "1", "--q", "1"),
            ("table", "--coeffs", json.dumps(GEOM_COEFFS), "--p-max", "2", "--q-max", "2"),
            ("pade", "--coeffs", json.dumps(EXP_COEFFS), "--p", "1", "--q", "1"),
        ]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli._build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in reused] == [1, 0, 0]
        assert reused == fresh
        assert cli._build_parser.cache_info().misses == 1


class TestFamilyCommand:
    def test_interior_preset(self, capsys):
        code, out, _ = run(
            capsys, "family", "--domain", "disk", "--center", "[0,0]",
            "--radius", "1", "--mode", "interior", "--index", "2",
        )
        assert code == 0
        payload = strict_report(out)
        assert payload["primitives"] == [
            {"kind": "filled_disk", "center": [0.0, 0.0], "radius": 0.5}
        ]

    def test_off_closure_preset(self, capsys):
        code, out, _ = run(
            capsys, "family", "--domain", "disk", "--center", "[0,0]",
            "--radius", "1", "--mode", "off-closure", "--index", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["primitives"] == [
            {"kind": "segment", "a": [2.0, 0.0], "b": [3.0, 0.0]}
        ]

    @pytest.mark.parametrize(
        "radius, mode", [("nan", "interior"), ("inf", "off-closure")]
    )
    def test_non_finite_radius_exits_one(self, capsys, radius, mode):
        code, out, err = run(
            capsys, "family", "--domain", "disk", "--radius", radius, "--mode", mode,
            "--index", "2",
        )
        assert (code, out) == (1, "")
        assert "radius must be positive and finite" in err

    def test_inline_domain_json(self, capsys):
        domain = json.dumps({"kind": "half_plane", "normal": [1, 0], "offset": 0.0})
        code, out, _ = run(
            capsys, "family", "--domain", domain, "--mode", "boundary", "--index", "3",
        )
        assert code == 0
        assert json.loads(out)["primitives"][0]["kind"] == "filled_disk"
