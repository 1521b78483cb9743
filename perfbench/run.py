"""Benchmark of pade_universal: end-to-end metrics, or per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wide|desk|table|all --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the run measures the workload untraced and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes over a fixed prefix of the workload and prints per-layer metrics and
the tracing overhead.  Every run checks the program's outputs.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with every metric of the run, its unit and its sample count, and the
environment.  ``--workload all`` runs each workload in its own process.

The gated times, ``cycle_ref.p50`` (median cycle) and ``pass_ref.p50``
(median whole pass of the workload's inputs), are in reference units: each
cycle's time divided by the time of a fixed reference work measured on the
same CPU during the cycle (see ``reference.py``), because the shared box
drifts too much for raw seconds to gate on.  Raw seconds of every request
kind are in the report line.

``setup_s``, the time from spawning a fresh interpreter to its inputs being
ready, is normalised too: each probe also times the reference work in its
own process right after its set-up, and ``setup_s`` is the median of set-up / reference
times ``NOMINAL_REF_S``, i.e. seconds at a fixed machine speed.  In raw
seconds (``setup_raw_s`` in the report line) two sets of runs of one commit
differed by 35%.

The program under test is imported from ``src/`` of the checkout and is
not modified; tracing rebinds its callables in this process only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "pade_universal")
WORK = os.path.join(ROOT, ".perfbench_work")

# One BLAS thread: the matrices here are small, and on a shared 2-CPU box a
# second BLAS thread only adds noise.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: Fresh-interpreter set-ups measured per run, half before and half after
#: the timed cycles; ``setup_s`` is their median.
SETUP_PROBES = 8
#: Reference works each set-up probe times after its set-up.
SETUP_REF_REPEATS = 3
#: Seconds of one reference work at the speed the benchmark was tuned at
#: (8-13 ms on a shared 2-CPU x86 box), the scale of ``setup_s``.
NOMINAL_REF_S = 0.010
#: A cycle that runs longer than this is abandoned and counted as failed,
#: so a search that does not terminate cannot stall the run.
CYCLE_GUARD_S = 90
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: Counts that must repeat exactly between traced passes with one seed.
DETERMINISTIC = (
    "series.poly_new.count",
    "series.recenter.calls",
    "series.eval.calls",
    "pade.hankel.calls",
    "pade.hankel.exists_ratio",
    "pade.approx.calls",
    "compacts.discretize.calls",
    "compacts.grid_points",
    "construct.fit.calls",
    "construct.d_attempts",
    "cli.requests",
)


class Cycle(NamedTuple):
    """One run of a cycle: its requests, whether its outputs differed from
    the first run of the same cycle, and when it started and ended."""

    index: int
    requests: list
    mismatch: bool
    start: float
    end: float

    def seconds(self) -> float:
        return sum(r.seconds for r in self.requests)


class CycleTimeout(BaseException):
    """Raised inside the program when a cycle exceeds ``CYCLE_GUARD_S``."""


def _on_alarm(signum, frame):
    raise CycleTimeout()


def _import_program():
    """Import the checkout's program, or exit without a result."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"perfbench: no program at {os.path.relpath(PACKAGE, ROOT)}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import pade_universal

    if os.path.dirname(os.path.abspath(pade_universal.__file__)) != PACKAGE:
        sys.stderr.write("perfbench: imported pade_universal from outside the checkout\n")
        sys.exit(2)
    import workloads

    return workloads


def _git_sha():
    """HEAD of the checkout read from ``.git``; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _environment(args):
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "trace": args.trace,
    }


def _quantile(values, share):
    """Nearest-rank quantile; None unless TAIL_SAMPLES lie beyond it."""
    ordered = sorted(values)
    if len(ordered) * (1.0 - share) < TAIL_SAMPLES:
        return None
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _metric(value, unit, n=None):
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


class Runner:
    """Runs cycles of one workload, remembers outcomes and checks them."""

    def __init__(self, work, clock=time.perf_counter):
        self.work = work
        self.clock = clock
        self.cycles: list[Cycle] = []
        self.first = {}  # cycle index -> evidence of its first run
        self.fingerprints = {}
        self.timed_out = False

    def run(self, i):
        signal.setitimer(signal.ITIMER_REAL, CYCLE_GUARD_S)
        start = time.perf_counter()
        try:
            requests, evidence = self.work.run_cycle(i, self.clock)
        except CycleTimeout:
            self.timed_out = True
            return False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        mismatch = False
        fingerprint = self.work.fingerprint(evidence)
        if i in self.fingerprints:
            mismatch = fingerprint != self.fingerprints[i]
        else:
            self.first[i] = evidence
            self.fingerprints[i] = fingerprint
        self.cycles.append(Cycle(i, requests, mismatch, start, end))
        return True

    def requests(self):
        return [r for cycle in self.cycles for r in cycle.requests]

    def check(self):
        """Problems found, and the number of requests with a wrong outcome."""
        bad = {}
        for i, evidence in sorted(self.first.items()):
            problems = self.work.check(i, evidence)
            if problems:
                bad[i] = problems
        problems = [p for ps in bad.values() for p in ps]
        failed = 0
        for cycle in self.cycles:
            wrong = [r for r in cycle.requests if r.outcome == "error"]
            if cycle.index in bad or cycle.mismatch:
                wrong = cycle.requests
            failed += len(wrong)
            if cycle.mismatch:
                problems.append(f"cycle {cycle.index}: outputs differ from its first run")
        if self.timed_out:
            problems.append(f"a cycle ran longer than {CYCLE_GUARD_S} s and was abandoned")
            failed += 1
        return problems, failed


def _setup_probe(args, work_cls):
    """Child of a set-up measurement: make the inputs, report when ready,
    then time the reference work in the same process."""
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        work_cls(args.seed, workdir)
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from reference import reference_seconds

    print(json.dumps({"ready": ready, "ref": reference_seconds(SETUP_REF_REPEATS)}))


def _measure_setup(args, probes):
    """Per probe: seconds from spawning a fresh interpreter to its inputs
    being ready, and the seconds of one reference work timed right after.

    CLOCK_MONOTONIC is shared by all processes of the machine, so the child's
    ready time and the parent's spawn time are comparable.
    """
    samples = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    for _ in range(probes):
        spawned = time.monotonic()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["ready"] - spawned, probe["ref"]))
    return samples


def _run_untraced(args, work):
    from reference import ReferenceSampler

    setup = _measure_setup(args, SETUP_PROBES // 2)
    sampler = ReferenceSampler()
    runner = Runner(work, sampler.now)
    sampler.start()
    try:
        # One untimed warm-up cycle, so that first-call costs stay out of
        # the timings; its outputs are checked like any other.
        if runner.run(0):
            deadline = time.monotonic() + args.seconds
            n = 0
            # Whole passes only: at least one, so that every input is measured.
            while n < work.pass_length or time.monotonic() < deadline:
                if not runner.run(n % work.pass_length):
                    break
                n += 1
    finally:
        sampler.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, failed = runner.check()
    requests = runner.requests()
    setup += _measure_setup(args, SETUP_PROBES - len(setup))

    # Timed cycles of whole passes only, so that no metric depends on where
    # the deadline cut the last pass.
    n = work.pass_length
    timed = runner.cycles[1:]
    whole = len(timed) // n
    if not whole:
        raise SystemExit(f"perfbench: no whole pass completed: {problems}")
    timed = timed[:whole * n]
    cycle_s = [c.seconds() for c in timed]
    # Each cycle in reference units, against the samples taken around it.
    cycle_ref = [c.seconds() / sampler.around(c.start, c.end) for c in timed]
    pass_ref = [sum(cycle_ref[k * n:(k + 1) * n]) for k in range(whole)]
    counted = [r for c in timed for r in c.requests]

    report = {
        "setup_s": _metric(NOMINAL_REF_S * statistics.median(s / ref for s, ref in setup),
                           "s", len(setup)),
        "setup_raw_s": _metric(statistics.median(s for s, _ in setup), "s", len(setup)),
        "peak_rss_mb": _metric(peak_rss_mib, "MiB"),
        "cycle_ref.p50": _metric(statistics.median(cycle_ref), "ref", len(cycle_ref)),
        "pass_ref.p50": _metric(statistics.median(pass_ref), "ref", len(pass_ref)),
        "ref_s.p50": _metric(statistics.median(sampler.seconds), "s", len(sampler.seconds)),
        "cycle_s.p50": _metric(statistics.median(cycle_s), "s", len(cycle_s)),
        "requests_per_s": _metric(len(counted) / sum(cycle_s), "1/s", len(counted)),
        "error_rate": _metric(failed / len(requests), "ratio", len(requests)),
    }
    if any(r.outcome in ("certified", "refused") for r in counted):
        certified = sum(r.outcome == "certified" for r in counted)
        report["certified_share"] = _metric(certified / len(counted), "ratio", len(counted))
    by_kind = {
        "build_s": [r.seconds for r in counted if r.kind == "build" and r.outcome == "certified"],
        "verify_s": [r.seconds for r in counted if r.kind == "verify"],
        "extend_s": [r.seconds for r in counted if r.kind == "extend" and r.outcome == "certified"],
        "refuse_s": [r.seconds for r in counted if r.outcome == "refused"],
    }
    for name, values in by_kind.items():
        if values:
            report[f"{name}.p50"] = _metric(statistics.median(values), "s", len(values))
            p95 = _quantile(values, 0.95)
            if p95 is not None and name in ("build_s", "verify_s"):
                report[f"{name}.p95"] = _metric(p95, "s", len(values))
    tables = [r for r in counted if r.kind == "table"]
    if tables:
        report["cells_per_s"] = _metric(
            sum(r.extra["cells"] for r in tables) / sum(r.extra["table_s"] for r in tables),
            "1/s", len(tables))
        report["approximants_per_s"] = _metric(
            sum(r.extra["approximants"] for r in tables) / sum(r.extra["sweep_s"] for r in tables),
            "1/s", len(tables))

    contract = {name: {"value": report[name]["value"], "unit": report[name]["unit"]}
                for name in ("cycle_ref.p50", "pass_ref.p50", "setup_s", "peak_rss_mb")}
    return report, problems, len(requests), failed, contract


def _agreement(tally):
    """Share of agreeing verdicts; None when the oracle compared none."""
    agree = sum(a for a, _ in tally.values())
    total = sum(t for _, t in tally.values())
    return agree / total if total else None


def _layer_metrics(tracer):
    """Per-layer metrics of one traced pass."""
    stats, counts = tracer.stats, tracer.counts

    def calls(label):
        return stats.get(label, (0, 0.0, 0.0))[0]

    def self_s(*labels):
        return sum(stats.get(label, (0, 0.0, 0.0))[2] for label in labels)

    hankel = calls("pade.hankel")
    return {
        "series.poly_new.count": (counts["series.poly_new"], "count"),
        "series.recenter.calls": (calls("series.recenter"), "count"),
        "series.recenter.self_s": (self_s("series.recenter"), "s"),
        "series.eval.calls": (calls("series.eval"), "count"),
        "series.eval.self_s": (self_s("series.eval"), "s"),
        "series.derivative.self_s": (self_s("series.derivative"), "s"),
        "series.partial_sum.self_s": (self_s("series.partial_sum"), "s"),
        "pade.hankel.calls": (hankel, "count"),
        "pade.hankel.self_s": (self_s("pade.hankel"), "s"),
        "pade.hankel.exists_ratio": (counts["pade.hankel.exists"] / hankel if hankel else 0.0, "ratio"),
        "pade.approx.calls": (calls("pade.approx.small_q") + calls("pade.approx.large_q"), "count"),
        "pade.approx.small_q.self_s": (self_s("pade.approx.small_q"), "s"),
        "pade.approx.large_q.self_s": (self_s("pade.approx.large_q"), "s"),
        "pade.rational_eval.self_s": (self_s("pade.rational_eval"), "s"),
        "pade.rational_derivative.self_s": (self_s("pade.rational_derivative"), "s"),
        "pade.residual.self_s": (self_s("pade.residual"), "s"),
        "compacts.discretize.calls": (calls("compacts.discretize"), "count"),
        "compacts.discretize.self_s": (self_s("compacts.discretize"), "s"),
        "compacts.grid_points": (counts["compacts.grid_points"], "count"),
        "compacts.contains.self_s": (self_s("compacts.contains"), "s"),
        "construct.build.self_s": (self_s("construct.build"), "s"),
        "construct.verify.self_s": (self_s("construct.verify"), "s"),
        "construct.extend.self_s": (self_s("construct.extend"), "s"),
        "construct.fit.calls": (calls("construct.fit.points"), "count"),
        "construct.fit.self_s": (self_s("construct.fit", "construct.fit.points"), "s"),
        "construct.d_attempts": (counts["construct.d_attempts"], "count"),
        "reporting.save.self_s": (self_s("reporting.save"), "s"),
        "reporting.load.self_s": (self_s("reporting.load"), "s"),
        "reporting.record_bytes": (counts["reporting.record_bytes"], "B"),
        "reporting.table.self_s": (self_s("reporting.table"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.requests": (calls("cli.main"), "count"),
    }


def _run_traced(args, work):
    """Alternate untraced and traced passes over the workload's traced prefix."""
    from tracer import Tracer

    tracer = Tracer()
    runner = Runner(work)
    prefix = range(work.traced_cycles)
    untraced_s, traced_s, passes = [], [], []
    deadline = time.monotonic() + args.seconds
    runner.run(0)  # warm-up, so the first untraced pass pays no first-call costs
    while not passes or time.monotonic() < deadline:
        start = time.perf_counter()
        if not all(runner.run(i) for i in prefix):
            break
        untraced_s.append(time.perf_counter() - start)
        tracer.reset()
        tracer.install()
        try:
            start = time.perf_counter()
            complete = all(runner.run(i) for i in prefix)
            elapsed = time.perf_counter() - start
        finally:
            tracer.remove()
        if not complete:
            break
        traced_s.append(elapsed)
        passes.append(_layer_metrics(tracer))
    problems, failed = runner.check()
    attempted = len(runner.requests())

    metrics = {}
    if passes:
        for name, (_, unit) in passes[0].items():
            values = [p[name][0] for p in passes]
            exact_count = name in DETERMINISTIC
            if exact_count and len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = _metric(values[0] if exact_count else statistics.median(values), unit)
        metrics["trace.overhead"] = _metric(
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0, "ratio")
    # The exact oracle, outside the timed passes, on the outputs of each
    # cycle's first run.
    oracle_tracer = Tracer()
    oracle_tracer.install()
    try:
        tally = work.oracle(runner.first)
    finally:
        oracle_tracer.remove()
    agreement = _agreement(tally)
    if agreement is not None:
        metrics["pade.oracle_agreement"] = _metric(agreement, "ratio")
        metrics["exact.hankel.self_s"] = _metric(
            oracle_tracer.stats.get("exact.hankel", (0, 0.0, 0.0))[2], "s")
    report = dict(metrics)
    report["traced_passes"] = len(passes)
    report["oracle"] = tally
    return report, problems, attempted, failed, metrics


def _run_all(args):
    """Each workload in its own process; prints their lines and a summary."""
    results = {}
    for name in ("wide", "desk", "table"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(f"perfbench: workload {name} exited with {done.returncode}\n")
            return 1
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["wide", "desk", "table", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_program()
    if args.workload == "all":
        return _run_all(args)
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe:
        _setup_probe(args, workloads.WORKLOADS[args.workload])
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = _run_traced if args.trace else _run_untraced
        report, problems, attempted, failed, metrics = run(args, work)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    for problem in problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    print(json.dumps({"environment": _environment(args), "report": report,
                      "problems": problems}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
