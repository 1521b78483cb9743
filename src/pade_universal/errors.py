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


class HankelOverflowError(PadeUniversalError):
    """A value of the ``(p, q)`` cell leaves the float range; ``part`` names
    it: the Hankel ``"threshold"`` ``tau_det * scale**q``, the Hankel
    ``"determinant"``, a coefficient of the Pade ``"approximant"``'s
    numerator or denominator, or the order-condition ``"residual"``, with
    all inputs finite."""

    def __init__(self, p, q, scale, part="threshold"):
        names = {"approximant": "Pade approximant", "residual": "order-condition residual"}
        what = names.get(part, f"Hankel {part}")
        verdict = "overflows" if part == "threshold" else "is not finite"
        super().__init__(f"{what} of the ({p},{q}) cell {verdict}: scale {scale:.3e}")
        self.p = p
        self.q = q
        self.scale = scale
        self.part = part


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
    """The polynomial-fit degree ramp ended with residual too large;
    ``degree`` is the last degree it fitted, -1 when it fitted none."""

    def __init__(self, target, best_residual, degree):
        super().__init__(
            f"least-squares ramp reached degree {degree} with residual "
            f"{best_residual:.3e} >= target {target:.3e}"
        )
        self.target = target
        self.best_residual = best_residual
        self.degree = degree


class IllConditionedError(PadeUniversalError):
    """The orthogonalized fitting basis collapsed on the supplied grid."""


class PerturbationFailedError(PadeUniversalError):
    """The trial ``u = fit + d z^p`` at the first admissible pair was refused.

    ``d = (1/s - r) / (2 max |z - c|^p)`` is not a positive float (the power
    leaves the float range; ``attempts`` is 0), or its one measurement
    failed a gated sup or the Hankel test at a center in float64
    (``attempts`` is 1).
    """

    def __init__(self, p, q, d, attempts):
        reason = "failed its measurement" if attempts else "is not a positive float"
        super().__init__(
            f"no admissible perturbation at index pair ({p},{q}): d = {d:.3e} {reason}"
        )
        self.p = p
        self.q = q
        self.d = d
        self.attempts = attempts


class NonFiniteSupError(PadeUniversalError):
    """A measured sup is ``inf`` or NaN, so no certificate can state it."""


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
