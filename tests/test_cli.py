import json
import math

from pade_universal import cli
from pade_universal.reporting import load_run

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


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPadeCommand:
    def test_exponential_one_one(self, capsys):
        code, out, _ = run(capsys, "pade", "--coeffs", json.dumps(EXP_COEFFS), "--p", "1", "--q", "1")
        assert code == 0
        payload = json.loads(out)
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

    def test_usage_error_exits_one(self, capsys):
        code, _, err = run(capsys, "pade", "--p", "1", "--q", "1")
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


class TestTableCommand:
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

    def test_short_index_sequence_exits_five(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(build_scenario(f_max=2)))
        out = tmp_path / "run.json"
        code, _, err = run(capsys, "build", "--scenario", str(scenario), "--out", str(out))
        assert code == 5
        assert json.loads(err)["error"] == "index-exhausted"
        # the diagnostic record is still written
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
        data = {
            "prefix": [[0, 0]],
            "schedule": [
                {"K": extension_scenario()["K"], "psi": extension_scenario()["psi"], "s": 10},
                {"K": extension_scenario()["K"], "psi": extension_scenario()["psi"], "s": 50},
            ],
            "F": [[k, k % 3] for k in range(61)],
        }
        scenario = tmp_path / "greedy.json"
        scenario.write_text(json.dumps(data))
        out = tmp_path / "run.json"
        code, _, _ = run(capsys, "greedy", "--scenario", str(scenario), "--out", str(out))
        assert code == 0
        record = load_run(out)
        assert len(record.certificates) == 2
        assert all(c.passed for c in record.certificates)


class TestFamilyCommand:
    def test_interior_preset(self, capsys):
        code, out, _ = run(
            capsys, "family", "--domain", "disk", "--center", "[0,0]",
            "--radius", "1", "--mode", "interior", "--index", "2",
        )
        assert code == 0
        payload = json.loads(out)
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

    def test_inline_domain_json(self, capsys):
        domain = json.dumps({"kind": "half_plane", "normal": [1, 0], "offset": 0.0})
        code, out, _ = run(
            capsys, "family", "--domain", domain, "--mode", "boundary", "--index", "3",
        )
        assert code == 0
        assert json.loads(out)["primitives"][0]["kind"] == "filled_disk"
