"""Run the benchmark in alternating parent/change pairs and write BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload wide \\
        --seeds 101-110 --seconds 30 --label NAME

Runs ``perfbench/run.py --workload W --seed S --seconds T`` once in each
checkout per seed, one pair per seed.  Even pairs run the parent first and
odd pairs the change first, so a drift of a shared machine falls on both
sides.  Writes ``BENCH_<label>.json`` at the root of this checkout with
each side's git sha, every run's end-to-end metrics (the ``end_to_end``
names of this checkout's ``BENCHMARK.json``) with ``correct`` and
``failed``, a failing run's exit code and the last lines of its standard
error, each side's median and quartiles per metric, and per metric the
pairs each side won: the better value as ``BENCHMARK.json`` says, a tie
counting for neither.  Each metric gets a verdict (see :func:`verdict`), and
each side the share of its operations that failed.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
#: Lines of a failing run's standard error that its record keeps.
STDERR_TAIL = 20


def _seeds(text: str) -> range:
    """The seeds of ``N`` or ``A-B`` (``A`` to ``B``); an empty range is an error."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def parse_run(stdout: str, exit_code: int, names) -> dict:
    """The record of one run from its standard output: the last line is the
    benchmark's JSON result; a run without one is incorrect and has no metrics."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    metrics = result.get("metrics", {})
    return {
        "exit": exit_code,
        "correct": exit_code == 0 and result.get("correct") is True,
        "failed": result.get("failed"),
        "attempted": result.get("attempted"),
        "metrics": {name: metrics[name]["value"] for name in names if name in metrics},
    }


def run_once(argv, cwd: str, names) -> dict:
    """Run one benchmark command in ``cwd``: its :func:`parse_run` record,
    with the last ``STDERR_TAIL`` lines of its standard error as ``stderr``
    when the run is not correct."""
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    run = parse_run(done.stdout, done.returncode, names)
    if not run["correct"]:
        run["stderr"] = done.stderr.splitlines()[-STDERR_TAIL:]
    return run


def quartiles(values) -> dict:
    """Median, quartiles (inclusive method) and interquartile range."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def failed_share(runs, side: str) -> float | None:
    """Failed operations over attempted ones, across the runs of ``side``
    that report both counts; ``None`` when none attempted any."""
    counted = [run for run in runs
               if run["side"] == side and run["failed"] is not None and run["attempted"]]
    attempted = sum(run["attempted"] for run in counted)
    return sum(run["failed"] for run in counted) / attempted if attempted else None


def verdict(entry: dict, values: dict, fails_more: bool) -> str | None:
    """``gain``, ``worse``, ``unresolved`` or ``no regression`` for one metric.

    ``entry`` is the metric's summary, its ``bound`` the fraction of the
    parent's median the change may be worse by, and ``values`` each side's
    runs.  A gain needs the change to win at least 9 in 10 pairs, the medians
    to differ by more than the parent's interquartile range, and no larger
    share of failed operations (``fails_more``).  Where the parent's
    spread is wider than the bound the metric is unresolved, unless every
    run of the change beats every run of the parent.  ``None`` when a side
    has no runs.
    """
    if entry["parent"] is None or entry["change"] is None:
        return None
    sign = 1.0 if entry["better"] == "lower" else -1.0
    parent, change = entry["parent"], entry["change"]
    allowed = entry["bound"] * abs(parent["median"])
    ahead = sign * (parent["median"] - change["median"])  # > 0: the change is better
    if (10 * entry["pairs_won"]["change"] >= 9 * entry["pairs"] > 0
            and ahead > parent["iqr"] and not fails_more):
        return "gain"
    if -ahead > allowed:
        return "worse"
    beats_all = max(sign * v for v in values["change"]) < min(sign * v for v in values["parent"])
    if parent["iqr"] > allowed and not beats_all:
        return "unresolved"
    return "no regression"


def summarize(runs, end_to_end) -> dict:
    """Per metric: each side's quartiles over its runs, the pairs each side
    won and a :func:`verdict`; under ``failed_share``, each side's
    :func:`failed_share`.

    ``runs`` are records of :func:`parse_run` with ``pair`` and ``side``
    added; ``end_to_end`` the ``BENCHMARK.json`` entries (``name``,
    ``better``, ``bound``).  A pair counts only where both of its runs
    report the metric.
    """
    shares = {side: failed_share(runs, side) for side in SIDES}
    fails_more = (shares["change"] or 0.0) > (shares["parent"] or 0.0)
    summary: dict = {"failed_share": shares}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        by_pair: dict = {}
        for run in runs:
            if name in run["metrics"]:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
        entry = {"better": metric["better"], "bound": metric["bound"]}
        values = {}
        for side in SIDES:
            values[side] = [pair[side] for pair in by_pair.values() if side in pair]
            entry[side] = quartiles(values[side]) if values[side] else None
        won = dict.fromkeys(SIDES, 0)
        complete = [pair for pair in by_pair.values() if len(pair) == 2]
        for pair in complete:
            parent, change = pair["parent"], pair["change"]
            if parent != change:
                won["change" if (change < parent) == lower else "parent"] += 1
        entry["pairs"] = len(complete)
        entry["pairs_won"] = won
        entry["verdict"] = verdict(entry, values, fails_more)
        summary[name] = entry
    return summary


def git_sha(checkout: str) -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=["wide", "desk", "table"])
    parser.add_argument("--seeds", type=_seeds, required=True, help="one seed N or a range A-B")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    names = [metric["name"] for metric in end_to_end]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = []
    for pair, seed in enumerate(args.seeds):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            argv_run = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                        "--seed", str(seed), "--seconds", str(args.seconds)]
            run = run_once(argv_run, checkouts[side], names)
            runs.append({"pair": pair, "seed": seed, "side": side, **run})
            print(json.dumps(runs[-1]), flush=True)

    out = {
        "workload": args.workload,
        "seconds": args.seconds,
        "command": "perfbench/run.py --workload W --seed S --seconds T",
        "sides": {side: {"sha": git_sha(checkouts[side])} for side in SIDES},
        "runs": runs,
        "summary": summarize(runs, end_to_end),
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(path)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
