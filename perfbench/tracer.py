"""Layer spans recorded from outside the program.

The tracer replaces callables of ``pade_universal`` with timing
wrappers while it is installed, and puts the originals back when it is
removed.  A function is rebound in every loaded module that holds it, since
``construct``, ``reporting``, ``cli`` and ``pade`` each import their own
reference (for example to ``hankel_determinant``).  Methods are replaced on
their class.

Open spans live on a stack.  When a span closes, its duration is added to
its parent's child time, and the span is folded into per-name totals:
calls, wall time and self time (wall time minus the time covered by its
child spans).  Plain counters (constructions, grid points, verdicts) are
kept beside the spans.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter

#: Span name of a ``pade_approximant`` call, split at the program's switch
#: between the Jacobi determinant route and the Toeplitz solve.
SMALL_Q_MAX = 6


def _approx_label(args, kwargs):
    q = kwargs["q"] if "q" in kwargs else args[2]
    return "pade.approx.small_q" if q <= SMALL_Q_MAX else "pade.approx.large_q"


def _count_exists(tracer, result, exc, args, kwargs):
    if exc is None and result.nonvanishing:
        tracer.counts["pade.hankel.exists"] += 1


def _count_grid_points(tracer, result, exc, args, kwargs):
    if exc is None:
        tracer.counts["compacts.grid_points"] += len(result)


def _count_record_bytes(tracer, result, exc, args, kwargs):
    if exc is None:
        path = kwargs["path"] if "path" in kwargs else args[1]
        tracer.counts["reporting.record_bytes"] += os.path.getsize(path)


def _count_d_attempts(tracer, result, exc, args, kwargs):
    """Perturbation magnitudes tried: from the certificate, or the error."""
    if exc is None:
        cert = result[1]
        tracer.counts["construct.d_attempts"] += int(cert.diagnostics.get("d_attempts", 0))
    elif hasattr(exc, "attempts"):
        tracer.counts["construct.d_attempts"] += int(exc.attempts)


# (module, function, span label or label function, hook)
FUNCTIONS = (
    ("pade", "hankel_determinant", "pade.hankel", _count_exists),
    ("pade", "pade_approximant", _approx_label, None),
    ("pade", "rational_derivative", "pade.rational_derivative", None),
    ("pade", "order_condition_residual", "pade.residual", None),
    ("series", "taylor_partial_sum", "series.partial_sum", None),
    ("compacts", "discretize", "compacts.discretize", _count_grid_points),
    ("compacts", "spec_region_contains", "compacts.contains", None),
    ("construct", "poly_fit", "construct.fit", None),
    # One call per fit-ramp degree, in build_universal_polynomial (inside
    # poly_fit) and in extend_prefix (directly).
    ("construct", "_fit_on_points", "construct.fit.points", None),
    ("construct", "build_universal_polynomial", "construct.build", _count_d_attempts),
    ("construct", "verify_construction", "construct.verify", None),
    ("construct", "extend_prefix", "construct.extend", _count_d_attempts),
    ("construct", "run_extension_schedule", "construct.schedule", None),
    ("reporting", "save_run", "reporting.save", _count_record_bytes),
    ("reporting", "load_run", "reporting.load", None),
    ("reporting", "emit_pade_table", "reporting.table", None),
    ("cli", "main", "cli.main", None),
    ("exact", "exact_hankel_determinant", "exact.hankel", None),
)

# (module, class, method, span label)
METHODS = (
    ("series", "Polynomial", "__init__", "series.poly_new"),
    ("series", "Polynomial", "eval", "series.eval"),
    ("series", "Polynomial", "recenter", "series.recenter"),
    ("series", "Polynomial", "derivative", "series.derivative"),
    ("pade", "RationalFunction", "eval", "pade.rational_eval"),
    ("pade", "RationalDerivativeEvaluator", "__call__", "pade.rational_eval"),
)

#: Labels that are counted, not timed: a span per construction would cost
#: more than the construction itself.
COUNT_ONLY = {"series.poly_new"}


class Tracer:
    """Span recorder for the ``pade_universal`` layers; see module docstring."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # label -> [calls, wall_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}
        self.counts = Counter()

    def _record(self, label: str, elapsed: float, child: float) -> None:
        if self._stack:
            self._stack[-1][0] += elapsed
        rec = self.stats.get(label)
        if rec is None:
            rec = self.stats[label] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child

    def _wrap(self, fn, label, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            stack.append([0.0])
            start = perf_counter()
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = perf_counter() - start
                self._record(name, elapsed, stack.pop()[0])
                if hook is not None:
                    hook(self, result, exc, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Rebind every traced callable; a name the program lacks is skipped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for m in list(sys.modules.values()) if getattr(m, "__dict__", None)]
        for mod_name, fn_name, label, hook in FUNCTIONS:
            home = sys.modules.get(f"pade_universal.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, label, hook)
            for mod in modules:
                if vars(mod).get(fn_name) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        for mod_name, cls_name, method, label in METHODS:
            cls = getattr(sys.modules.get(f"pade_universal.{mod_name}"), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            if label in COUNT_ONLY:
                wrapper = self._counted(original, label)
            else:
                wrapper = self._wrap(original, label, None)
            self._patches.append((cls, method, original))
            setattr(cls, method, wrapper)

    def remove(self) -> None:
        """Restore every original callable."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []
