"""Print one sha256 per benchmark cycle fingerprint, for output-parity checks.

Usage, from the root of a checkout:

    python3 tools/fingerprints.py --workload wide|desk|table --seeds 101-105
    python3 tools/fingerprints.py --workload demos
    python3 tools/fingerprints.py --workload all --seeds 101-105
    python3 tools/fingerprints.py --decisions --workload wide --seeds 101-110
    python3 tools/fingerprints.py --workload general --seeds 101-110

Runs every cycle of one pass of the workload for each seed, with the
workloads of this checkout's ``perfbench/workloads.py`` and the program of
its ``src/``, and prints ``<seed> <cycle> <sha256>`` per cycle.  With
``--decisions`` it prints ``<seed> <cycle> <decisions>`` instead, the
outcomes of the cycle without the bits of its numbers (see
:func:`decisions`), which checks a change that moves rounding but should
not move an outcome.  The
``demos`` workload runs each ``demos/*.py`` with this checkout's ``src/``
first on ``PYTHONPATH`` and prints ``<demo> <sha256 of its stdout>``; it
takes no seeds and fails when a demo does.  ``all`` runs ``wide``, ``desk``,
``table`` and ``general`` for the seeds, then the demos, and puts the
workload's name in front of each line.  Running it in two checkouts and
diffing the outputs checks that a change keeps every output bit-identical.
BLAS runs on one thread, as in the benchmark.

The ``general`` workload reaches the per-center measurement that no
benchmark workload or demo runs: for each ``wide`` cycle it re-measures the
built ``u``, of degree ``p``, with ``verify_construction`` at ``(p - 1, 1)``,
so every center of L is recentered, tested and solved for at derivative
levels 2, and prints ``<seed> <cycle> <sha256>`` of that certificate's JSON,
or of the ``repr`` of the error it raises (of the build's refusal when there
is no ``u``); it prints that digest under ``--decisions`` too.

A ``desk`` cycle is hashed with each standard output that parses as JSON
(the ``verify`` report) re-dumped compactly with sorted keys, and its
records are read back as JSON by the workload, so its digest compares
parsed outputs: a change of layout alone, such as the indent of the
writer, keeps it, and every number still counts to the bit.  ``wide``,
``table`` and the demos hash the same bytes as the workload gives them.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from bench_pairs import _seeds  # noqa: E402  (this directory, after the paths above)


WORKLOADS = ("wide", "desk", "table")


def _demos(prefix: str = "") -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        done = subprocess.run(
            [sys.executable, demo], cwd=ROOT, env=env, capture_output=True, timeout=600
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            return 1
        print(prefix + os.path.basename(demo), hashlib.sha256(done.stdout).hexdigest(), flush=True)
    return 0


def _layout_free(text: str) -> str:
    """``text`` re-dumped compactly with sorted keys if it parses as JSON, else as is."""
    try:
        return json.dumps(json.loads(text), sort_keys=True)
    except ValueError:
        return text


def digest(name: str, work, evidence) -> str:
    """The sha256 of the cycle's fingerprint; a ``desk`` cycle's standard
    outputs (the second item of each request's evidence) are made layout-free first."""
    if name == "desk":
        evidence = {
            kind: (code, _layout_free(out), *rest) for kind, (code, out, *rest) in evidence.items()
        }
    return hashlib.sha256(work.fingerprint(evidence).encode()).hexdigest()


def _pair(selected) -> str:
    p, q = selected
    return f"({p},{q})"


def decisions(name: str, work, evidence) -> str:
    """The outcomes of one cycle as one line.

    - ``wide``: the build's index pair, fit degree and pass verdict, or the
      type of its refusal;
    - ``desk``: the ``build`` exit code and its pair, then the ``greedy``
      exit code and the pair of each certified step (``-`` for none);
    - ``table``: its digest, since it runs no fit.
    """
    if name == "wide":
        if "refusal" in evidence:
            return f"refused={type(evidence['refusal']).__name__}"
        cert = evidence["cert"]
        return f"pair={_pair(cert.selected)} fit={cert.fit_degree} passed={cert.passed}"
    if name == "desk":
        words = []
        for kind in ("build", "greedy"):
            code, _, _, record = evidence[kind]
            pairs = [_pair(cert["selected"]) for cert in (record or {}).get("certificates", [])]
            words.append(f"{kind}={code} pairs={','.join(pairs) or '-'}")
        return " ".join(words)
    return digest(name, work, evidence)


def general_digest(work, i: int) -> str:
    """The sha256 of cycle ``i``'s built ``u`` re-measured at ``(p - 1, 1)``:
    of its certificate's JSON, or of the ``repr`` of the error raised."""
    from pade_universal import construct
    from pade_universal.errors import PadeUniversalError

    _, evidence = work.run_cycle(i)
    if "refusal" in evidence:
        text = repr(evidence["refusal"])
    else:
        inner, req = work.inputs[i]
        p, _ = evidence["cert"].selected
        try:
            cert = construct.verify_construction(evidence["u"], req, (p - 1, 1), inner)
            text = json.dumps(cert.to_json(), sort_keys=True)
        except PadeUniversalError as exc:
            text = repr(exc)
    return hashlib.sha256(text.encode()).hexdigest()


def _cycles(name: str, seeds, prefix: str = "", outcomes: bool = False) -> None:
    import workloads

    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            work = workloads.WORKLOADS["wide" if name == "general" else name](seed, workdir)
            for i in range(work.pass_length):
                if name == "general":
                    line = general_digest(work, i)
                else:
                    _, evidence = work.run_cycle(i)
                    line = (decisions if outcomes else digest)(name, work, evidence)
                print(f"{prefix}{seed} {i} {line}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "general", "demos", "all"]
    )
    parser.add_argument("--seeds", type=_seeds, help="one seed N or a range A-B")
    parser.add_argument(
        "--decisions", action="store_true", help="print each cycle's outcomes, not its digest"
    )
    args = parser.parse_args(argv)
    if args.workload == "demos":
        return _demos()
    if args.seeds is None:
        parser.error(f"--seeds is required for the {args.workload} workload")
    if args.workload != "all":
        _cycles(args.workload, args.seeds, outcomes=args.decisions)
        return 0
    for name in (*WORKLOADS, "general"):
        _cycles(name, args.seeds, f"{name} ", args.decisions)
    return _demos("demos ")


if __name__ == "__main__":
    sys.exit(main())
