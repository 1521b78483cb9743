"""The summary of ``tools/bench_pairs.py``, on synthetic benchmark output.

No benchmark runs here: each run is the standard output the benchmark
prints (a report line, then the JSON result line), written by hand, or a
short Python command that stands in for the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
END_TO_END = [
    {"name": "cycle_ref.p50", "better": "lower", "bound": 0.2},
    {"name": "cells.per_s", "better": "higher", "bound": 0.1},
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


def runs(bench_pairs, sides, failed=(0, 0)):
    out = []
    for pair, values in enumerate(sides):
        for side, (cycle, rate), fails in zip(("parent", "change"), values, failed):
            run = bench_pairs.parse_run(stdout(cycle, rate, failed=fails), 0, NAMES)
            out.append({"pair": pair, "seed": 101 + pair, "side": side, **run})
    return out


def test_seeds_are_one_seed_or_a_nonempty_range(bench_pairs):
    assert bench_pairs._seeds("101") == range(101, 102)
    assert bench_pairs._seeds("101-110") == range(101, 111)
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        bench_pairs._seeds("110-101")


def test_reversed_seed_range_runs_nothing(bench_pairs, capsys):
    label = "reversed_seed_range_test"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--parent", ".", "--change", ".", "--workload", "wide",
                          "--seeds", "110-101", "--label", label])
    assert info.value.code == 2 and "empty seed range" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(bench_pairs.ROOT, f"BENCH_{label}.json"))


def test_parse_keeps_the_end_to_end_metrics(bench_pairs):
    run = bench_pairs.parse_run(stdout(24.0, 3.0, failed=1), 0, NAMES)
    assert run == {"exit": 0, "correct": True, "failed": 1, "attempted": 9,
                   "metrics": {"cycle_ref.p50": 24.0, "cells.per_s": 3.0}}
    assert not bench_pairs.parse_run(stdout(24.0, correct=False), 0, NAMES)["correct"]
    assert not bench_pairs.parse_run(stdout(24.0), 1, NAMES)["correct"]
    broken = bench_pairs.parse_run("Traceback ...\n", 1, NAMES)
    assert broken == {"exit": 1, "correct": False, "failed": None, "attempted": None,
                      "metrics": {}}


def test_a_failing_run_keeps_its_exit_code_and_stderr_tail(bench_pairs, tmp_path):
    failing = [sys.executable, "-c",
               "import sys\nfor i in range(30): print(f'line {i}', file=sys.stderr)\nsys.exit(3)"]
    run = bench_pairs.run_once(failing, str(tmp_path), NAMES)
    assert (run["exit"], run["correct"], run["metrics"]) == (3, False, {})
    assert run["stderr"] == [f"line {i}" for i in range(10, 30)]
    passing = [sys.executable, "-c", f"import sys\nsys.stdout.write({stdout(24.0)!r})\n"
               "print('noise', file=sys.stderr)"]
    run = bench_pairs.run_once(passing, str(tmp_path), NAMES)
    assert run["correct"] and "stderr" not in run


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


PARENT = [20.0, 21.0, 22.0, 23.0, 24.0, 25.0, 26.0, 27.0, 28.0, 29.0]  # median 24.5, IQR 4.5
# one low run and a high tail: median 100.5, IQR 50, wider than 0.2 x 100.5
SPREAD = [100.0] * 5 + [101.0, 150.0, 150.0, 150.0, 150.0]


@pytest.mark.parametrize(
    "parent, change, failed, expected",
    [
        (PARENT, [v - 10.0 for v in PARENT], (0, 0), "gain"),
        # 9 of 10 pairs won is enough, 8 is not
        (PARENT, [v - 10.0 for v in PARENT[:9]] + [40.0], (0, 0), "gain"),
        (PARENT, [v - 10.0 for v in PARENT[:8]] + [40.0, 40.0], (0, 0), "no regression"),
        # the medians must differ by more than the parent's IQR
        (PARENT, [v - 4.0 for v in PARENT], (0, 0), "no regression"),
        # no gain where the change fails a larger share of its operations
        (PARENT, [v - 10.0 for v in PARENT], (0, 1), "no regression"),
        (PARENT, [v * 1.25 for v in PARENT], (0, 0), "worse"),
        (PARENT, [v * 1.15 for v in PARENT], (0, 0), "no regression"),
        (SPREAD, SPREAD, (0, 0), "unresolved"),
        # every change run beats every parent run: resolved despite the spread
        (SPREAD, [99.9] * 10, (0, 0), "no regression"),
    ],
    ids=["gain", "nine-of-ten", "eight-of-ten", "inside-iqr", "fails-more", "worse",
         "inside-bound", "unresolved", "beats-every-run"],
)
def test_verdict_follows_the_pair_rules(bench_pairs, parent, change, failed, expected):
    sides = [((p, None), (c, None)) for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(runs(bench_pairs, sides, failed), END_TO_END)
    assert summary["cycle_ref.p50"]["verdict"] == expected


@pytest.mark.parametrize("scale, expected", [(1.5, "gain"), (0.85, "worse"), (0.95, "unresolved")])
def test_verdict_of_a_higher_is_better_metric(bench_pairs, scale, expected):
    # IQR 4.5 is wider than 0.1 x 24.5, so a change within the bound is unresolved
    sides = [((24.0, rate), (24.0, rate * scale)) for rate in PARENT]
    summary = bench_pairs.summarize(runs(bench_pairs, sides), END_TO_END)
    assert summary["cells.per_s"]["verdict"] == expected


def test_failed_share_per_side(bench_pairs):
    sides = [((24.0, 1.0), (17.0, 2.0))] * 2
    summary = bench_pairs.summarize(runs(bench_pairs, sides, failed=(0, 3)), END_TO_END)
    assert summary["failed_share"] == {"parent": 0.0, "change": 6 / 18}
    broken = {"pair": 0, "seed": 101, "side": "parent",
              **bench_pairs.parse_run("Traceback ...\n", 1, NAMES)}
    summary = bench_pairs.summarize([broken], END_TO_END)
    assert summary["failed_share"] == {"parent": None, "change": None}
    assert summary["cycle_ref.p50"]["verdict"] is None
