"""Exception hierarchy for the pade_universal package.

Every numerical failure mode has its own class so callers can react
precisely instead of parsing messages.  The CLI maps these classes to exit
codes and diagnostic labels through one ordered table, ``_FAILURES`` in
:mod:`.cli`, where a class takes the first row that lists it or a base.
"""

from __future__ import annotations


class PadeUniversalError(Exception):
    """Base class for all package errors."""


class TruncationExceededError(PadeUniversalError):
    """A coefficient index beyond the stored truncation was requested."""

    def __init__(self, index, available):
        super().__init__(
            f"coefficient index {index} requested but only {available} "
            f"coefficients are stored; extend the series explicitly"
        )
        self.index = index
        self.available = available


class LengthMismatchError(PadeUniversalError):
    """Two coefficient lists that must share a truncation length do not."""


class PadeNotExistError(PadeUniversalError):
    """The Hankel determinant test failed, so the approximant is not defined."""

    def __init__(self, report):
        super().__init__(
            f"no ({report.p},{report.q}) approximant at center {report.center}: "
            f"|D| = {abs(report.value):.3e} <= threshold {report.threshold:.3e}"
        )
        self.report = report


class DegenerateDenominatorError(PadeUniversalError):
    """A denominator vanished (at the center or as a leading coefficient)."""


class PoleProximityError(PadeUniversalError):
    """Evaluation was requested too close to a pole of a rational function."""

    def __init__(self, point, magnitude):
        super().__init__(
            f"denominator magnitude {magnitude:.3e} at z = {point} is below "
            f"the pole-proximity threshold"
        )
        self.point = point
        self.magnitude = magnitude


class DegreeMismatchError(PadeUniversalError):
    """A rational function's stated degrees are not its exact degrees."""


class EmptySpecError(PadeUniversalError):
    """A compact-set specification contains no primitives."""


class EmptyResultError(PadeUniversalError):
    """A compact-family generator produced an empty set (index too small)."""


class UnsupportedDomainError(PadeUniversalError):
    """The requested operation is not defined for this domain kind."""


class IndexExhaustedError(PadeUniversalError):
    """No pair in the (finite) index sequence has large enough degree.

    Signals that the stored prefix of the index sequence cannot witness the
    requested approximation; a longer prefix is required.
    """

    def __init__(self, min_degree, max_available):
        super().__init__(
            f"no index pair with p > {min_degree} (largest available p is "
            f"{max_available}); supply a longer index sequence"
        )
        self.min_degree = min_degree
        self.max_available = max_available


class FitFailedError(PadeUniversalError):
    """The polynomial-fit degree ramp hit its cap with residual too large."""

    def __init__(self, target, best_residual, cap):
        super().__init__(
            f"least-squares ramp reached degree {cap} with residual "
            f"{best_residual:.3e} >= target {target:.3e}"
        )
        self.target = target
        self.best_residual = best_residual
        self.cap = cap


class IllConditionedError(PadeUniversalError):
    """The orthogonalized fitting basis collapsed on the supplied grid."""


class PerturbationFailedError(PadeUniversalError):
    """No admissible perturbation magnitude was found.

    Carries the window bounds that the search established: magnitudes below
    ``lo`` fail the Hankel nonvanishing test, magnitudes above ``hi`` break
    the requested sup bounds.
    """

    def __init__(self, lo, hi, attempts):
        super().__init__(
            f"no admissible perturbation after {attempts} evaluations "
            f"(hankel floor ~{lo:.3e}, sup ceiling ~{hi:.3e})"
        )
        self.lo = lo
        self.hi = hi
        self.attempts = attempts


class PerturbationRefusedError(PerturbationFailedError):
    """An index pair refused before any measurement: its perturbation walls cross.

    The Hankel conclusion needs ``|d| > d_H`` and the Taylor sup on K stays
    below the requested bound only for ``|d| < d_S``; ``d_H`` exceeds ``d_S``
    by the refusal margin, so no magnitude can pass.  ``lo`` and ``hi`` are
    the two walls and ``attempts`` is 0.
    """

    def __init__(self, p, q, d_H, d_S):
        super().__init__(d_H, d_S, 0)
        self.args = (
            f"index pair ({p},{q}) refused without measuring: the Hankel conclusion "
            f"needs |d| > {d_H:.3e}, the Taylor sup on K stays below 1/s only for "
            f"|d| < {d_S:.3e}",
        )
        self.p = p
        self.q = q
        self.d_H = d_H
        self.d_S = d_S


class OriginInKError(PadeUniversalError):
    """The compact set for a prefix extension contains (or touches) 0."""


class ScheduleStepError(PadeUniversalError):
    """A step of an extension schedule failed; wraps the underlying error."""

    def __init__(self, step, cause):
        super().__init__(f"schedule step {step} failed: {cause}")
        self.step = step
        self.cause = cause


class SchemaError(PadeUniversalError):
    """A persisted record does not parse against the expected schema."""
