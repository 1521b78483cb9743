"""Smoke test of the benchmark: one cycle of each workload runs and checks.

``perfbench/workloads.py`` is imported as it stands (nothing under
``perfbench/`` is written); cycle 0 of ``wide``, ``desk`` and ``table`` at
seed 101 must pass the workload's own output check.  This catches a change
to the program's API that would stop the benchmark, such as a renamed
function or a deleted argument it passes.  The Hankel oracle of ``wide``
and ``desk``, which a traced run reports, iterates the center grid of each
build, so it runs here too.
"""

from __future__ import annotations

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["wide", "desk", "table"])
def test_first_cycle_passes_its_check(name, workloads, tmp_path):
    work = workloads.WORKLOADS[name](101, str(tmp_path))
    _, evidence = work.run_cycle(0)
    assert work.check(0, evidence) == []


@pytest.mark.parametrize("name, expected", [("wide", [1024, 1024]), ("desk", [16, 16])])
def test_first_cycle_oracle_agrees_at_every_center(name, expected, workloads, tmp_path):
    work = workloads.WORKLOADS[name](101, str(tmp_path))
    _, evidence = work.run_cycle(0)
    assert work.oracle({0: evidence}) == {"build": expected}
