"""Splitting the boundary: approximation on one side, agreement on the other.

The centers fill a boundary-inclusive half of the closed unit disk (the
left half, including its boundary arc), while the outer compact is a
segment touching the opposite boundary point z = 1.  One perturbed
polynomial satisfies derivative-level sup bounds on both sides at once:
self-agreement over the center half (exact, since the polynomial has
degree exactly p), target matching on the segment.
"""

import math

from pade_universal import (
    AnnulusSector,
    CompactSpec,
    IndexSequence,
    RequirementSpec,
    Segment,
    TargetFunction,
    build_universal_polynomial,
    discretize,
)

left_half = CompactSpec(
    [AnnulusSector(0.0, 0.0, 1.0, math.pi / 2, 3 * math.pi / 2)], 24
)
touching_segment = CompactSpec([Segment(1.0, 2.0)], 48)
target = TargetFunction.poly([0.0, 1.0, 1.0])  # z + z^2

requirement = RequirementSpec(
    K=touching_segment,
    target_on_K=target,
    L=left_half,
    s=25,
    derivative_levels=2,
    J=left_half,
)
u, cert = build_universal_polynomial(
    requirement, target, IndexSequence([(k, k % 3) for k in range(41)])
)

boundary_centers = sum(
    1 for z in discretize(left_half).points if abs(abs(z) - 1.0) <= 1e-12
)
print(f"center grid: {len(discretize(left_half))} points, "
      f"{boundary_centers} of them on the boundary arc")
print(f"selected (p, q) = {cert.selected}, passed = {cert.passed}")
print()
print("level   Pade self-id   Taylor self-id   (both over centers x (K u L))")
for level in range(3):
    print(f"  {level}     {cert.achieved[f'id_pade_l{level}']:.3e}      "
          f"{cert.achieved[f'id_taylor_l{level}']:.3e}")
print()
print(f"target sups on the touching segment: Taylor {cert.achieved['2']:.3e}, "
      f"Pade {cert.achieved['3']:.3e} (bound {cert.requested:.0e})")
