"""Derivative-level checks on a certified construction.

The self-reproduction identities survive differentiation: at every center
the recentered partial sum and the Pade approximant of the built
polynomial are the polynomial itself, so they agree with it at derivative
levels 0..3 exactly (the built polynomial has degree exactly p, and the
certificate is decided by that identity).  Deviations from the
*targets'* derivatives are a different matter: the least-squares fit only
controls values, so those sups are reported as diagnostics, not certified.
"""

from pade_universal import (
    CompactSpec,
    FilledDisk,
    IndexSequence,
    RequirementSpec,
    Segment,
    TargetFunction,
    build_universal_polynomial,
)

requirement = RequirementSpec(
    K=CompactSpec([Segment(2.0, 3.0)], 64),
    target_on_K=TargetFunction.poly([0.0, 0.0, 1.0]),
    L=CompactSpec([FilledDisk(0.0, 0.4)], 16),
    s=50,
    derivative_levels=3,
    J=CompactSpec([FilledDisk(0.0, 0.6)], 64),
)
inner_target = TargetFunction.rational([1.0], [2.0, -1.0])
index_pairs = IndexSequence([(k, k % 3) for k in range(41)])

u, cert = build_universal_polynomial(requirement, inner_target, index_pairs)
print(f"built u with (p, q) = {cert.selected}, passed = {cert.passed}")
print()
print("level   |u^(l)| sup    Pade self-id   Taylor self-id")
for level in range(4):
    print(
        f"  {level}     {cert.diagnostics[f'sup_u_d{level}']:.3e}     "
        f"{cert.achieved[f'id_pade_l{level}']:.3e}      "
        f"{cert.achieved[f'id_taylor_l{level}']:.3e}"
    )
print()
print("diagnostic sups against the targets' derivatives (not certified):")
for level in range(1, 4):
    k_dev = cert.diagnostics.get(f"K_pade_d{level}")
    j_dev = cert.diagnostics.get(f"J_pade_d{level}")
    print(f"  level {level}:  on K {k_dev:.3e}   on J {j_dev:.3e}")
