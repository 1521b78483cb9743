"""The summary of ``tools/bench_pairs.py``, on synthetic benchmark output.

No benchmark runs here: each run is the standard output the benchmark
prints (a report line, then the JSON result line), written by hand.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
END_TO_END = [
    {"name": "cycle_ref.p50", "better": "lower"},
    {"name": "cells.per_s", "better": "higher"},
]
NAMES = [metric["name"] for metric in END_TO_END]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import bench_pairs

    return bench_pairs


def stdout(cycle, rate=None, correct=True, failed=0):
    metrics = {"cycle_ref.p50": {"value": cycle, "unit": "ref"},
               "setup_s": {"value": 0.2, "unit": "s"}}
    if rate is not None:
        metrics["cells.per_s"] = {"value": rate, "unit": "1/s"}
    report = json.dumps({"environment": {}, "report": {}, "problems": []})
    result = json.dumps({"correct": correct, "attempted": 9, "failed": failed,
                         "metrics": metrics})
    return f"{report}\n{result}\n"


def runs(bench_pairs, sides):
    out = []
    for pair, values in enumerate(sides):
        for side, (cycle, rate) in zip(("parent", "change"), values):
            run = bench_pairs.parse_run(stdout(cycle, rate), 0, NAMES)
            out.append({"pair": pair, "seed": 101 + pair, "side": side, **run})
    return out


def test_parse_keeps_the_end_to_end_metrics(bench_pairs):
    run = bench_pairs.parse_run(stdout(24.0, 3.0, failed=1), 0, NAMES)
    assert run == {"exit": 0, "correct": True, "failed": 1, "attempted": 9,
                   "metrics": {"cycle_ref.p50": 24.0, "cells.per_s": 3.0}}
    assert not bench_pairs.parse_run(stdout(24.0, correct=False), 0, NAMES)["correct"]
    assert not bench_pairs.parse_run(stdout(24.0), 1, NAMES)["correct"]
    broken = bench_pairs.parse_run("Traceback ...\n", 1, NAMES)
    assert broken == {"exit": 1, "correct": False, "failed": None, "attempted": None,
                      "metrics": {}}


def test_quartiles(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_pairs_won_follow_the_better_direction(bench_pairs):
    # (parent, change) per pair of (cycle, rate); pair 2 ties on the cycle
    sides = [((24.0, 1.0), (17.0, 2.0)),
             ((25.0, 3.0), (18.0, 2.0)),
             ((20.0, 2.0), (20.0, 2.0)),
             ((16.0, 1.0), (19.0, 4.0))]
    summary = bench_pairs.summarize(runs(bench_pairs, sides), END_TO_END)
    cycle = summary["cycle_ref.p50"]
    assert cycle["pairs"] == 4
    assert cycle["pairs_won"] == {"parent": 1, "change": 2}
    assert cycle["parent"] == bench_pairs.quartiles([24.0, 25.0, 20.0, 16.0])
    assert cycle["change"]["median"] == 18.5
    rate = summary["cells.per_s"]
    assert rate["better"] == "higher"
    assert rate["pairs_won"] == {"parent": 1, "change": 2}


def test_a_pair_counts_only_when_both_runs_report(bench_pairs):
    sides = [((24.0, 1.0), (17.0, None)), ((25.0, None), (18.0, None))]
    summary = bench_pairs.summarize(runs(bench_pairs, sides), END_TO_END)
    assert summary["cycle_ref.p50"]["pairs"] == 2
    rate = summary["cells.per_s"]
    assert rate["pairs"] == 0 and rate["pairs_won"] == {"parent": 0, "change": 0}
    assert rate["parent"]["median"] == 1.0 and rate["change"] is None
