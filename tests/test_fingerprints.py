"""Smoke test of ``tools/fingerprints.py``, the parity check of the outputs.

One ``table`` seed runs twice in fresh interpreters: each run prints one
``<seed> <cycle> <sha256>`` line per cycle of the pass, and the two runs
print the same lines.  ``--workload all`` prints the lines of each workload,
``general`` after ``table``, and of the demos behind the workload's name.
``--decisions`` prints one line of outcomes per cycle, and the ``table`` and
``general`` digests as before.  ``general`` prints one stable digest per
``wide`` cycle, of its per-center re-measurement, not the ``wide`` digest.
A ``desk`` digest compares parsed standard outputs, so a re-indented
``verify`` report keeps it.  Nothing is written under ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "fingerprints.py")


def fingerprints(*argv) -> list[str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, SCRIPT, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return done.stdout.splitlines()


def test_one_table_seed_prints_one_stable_digest_per_cycle(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    first = fingerprints("--workload", "table", "--seeds", "101")
    assert len(first) == workloads.WORKLOADS["table"].pass_length
    for i, line in enumerate(first):
        assert re.fullmatch(rf"101 {i} [0-9a-f]{{64}}", line)
    assert fingerprints("--workload", "table", "--seeds", "101") == first


def test_general_prints_one_stable_digest_per_wide_cycle(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    first = fingerprints("--workload", "general", "--seeds", "101")
    assert len(first) == workloads.WORKLOADS["wide"].pass_length
    for i, line in enumerate(first):
        assert re.fullmatch(rf"101 {i} [0-9a-f]{{64}}", line)
    assert fingerprints("--workload", "general", "--seeds", "101") == first
    wide = fingerprints("--workload", "wide", "--seeds", "101")
    assert not {line.split()[2] for line in first} & {line.split()[2] for line in wide}


def test_reversed_seed_range_is_an_error():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, SCRIPT, "--workload", "table", "--seeds", "105-101"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "empty seed range" in done.stderr


def test_all_prefixes_each_workload_and_the_demos(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    lines = fingerprints("--workload", "all", "--seeds", "101")
    names = [line.split(" ", 1)[0] for line in lines]
    runs = {name: workloads.WORKLOADS[name].pass_length for name in ("wide", "desk", "table")}
    runs["general"] = runs["wide"]  # one per wide cycle
    demos = fingerprints("--workload", "demos")
    assert names == [n for n, k in runs.items() for _ in range(k)] + ["demos"] * len(demos)
    for name in runs:
        body = [line.split(" ", 1)[1] for line in lines if line.startswith(name + " ")]
        assert all(re.fullmatch(rf"101 {i} [0-9a-f]{{64}}", b) for i, b in enumerate(body))
    for name in ("table", "general"):
        body = [line.split(" ", 1)[1] for line in lines if line.startswith(name + " ")]
        assert body == fingerprints("--workload", name, "--seeds", "101")
    assert [line.split(" ", 1)[1] for line in lines if line.startswith("demos ")] == demos


def test_decisions_print_one_outcome_line_per_cycle(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    pair = r"\(\d+,\d+\)"
    shapes = {
        "wide": rf"(pair={pair} fit=\d+ passed=(True|False)|refused=\w+Error)",
        "desk": rf"build=\d+ pairs=({pair}|-) greedy=\d+ pairs=({pair}(,{pair}){{2}}|-)",
    }
    for name, shape in shapes.items():
        lines = fingerprints("--decisions", "--workload", name, "--seeds", "101")
        assert len(lines) == workloads.WORKLOADS[name].pass_length
        for i, line in enumerate(lines):
            assert re.fullmatch(rf"101 {i} {shape}", line), line
    # the desk pass holds its s = 10^4 builds, which end in exit 4
    assert "build=4 pairs=-" in " ".join(lines)
    for name in ("table", "general"):
        digests = fingerprints("--decisions", "--workload", name, "--seeds", "101")
        assert digests == fingerprints("--workload", name, "--seeds", "101")


def test_desk_digest_ignores_the_layout_of_the_verify_report(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # undone after the test
    import fingerprints  # puts src/ and perfbench/ first on the path
    import workloads

    work = workloads.WORKLOADS["desk"](101, str(tmp_path))
    _, evidence = work.run_cycle(0)
    code, out, err = evidence["verify"]
    report = json.loads(out)

    def with_verify(text):
        return {**evidence, "verify": (code, text, err)}

    def digest(cycle):
        return fingerprints.digest("desk", work, cycle)

    reindented = with_verify(json.dumps(report, indent=2) + "\n")
    assert work.fingerprint(reindented) != work.fingerprint(evidence)
    assert digest(reindented) == digest(evidence)
    # a value of the report still counts, to the bit
    report["max_deviation"] = math.nextafter(report["max_deviation"], 1.0)
    assert digest(with_verify(json.dumps(report, indent=2))) != digest(evidence)
