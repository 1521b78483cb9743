"""One certified run of the universal-approximation construction.

A single polynomial u is built that simultaneously
  - matches z^2 on the segment [2, 3] (far outside the unit disk), and
  - matches 1/(2 - z) on two disks around the origin,
by both its Taylor partial sums and its Pade approximants, recentered at
every point of a whole grid of centers.  The trick: fit the glued target,
then add d z^p with p beyond the fit degree, which pins the exact degree
and makes every partial sum S_p and every approximant [p/q] reproduce u
itself; the certificate is decided by that identity.
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
    target_on_K=TargetFunction.poly([0.0, 0.0, 1.0]),      # z^2 on K
    L=CompactSpec([FilledDisk(0.0, 0.4)], 16),             # grid of centers
    s=50,                                                  # precision 1/50
    J=CompactSpec([FilledDisk(0.0, 0.6)], 64),             # inner check set
)
inner_target = TargetFunction.rational([1.0], [2.0, -1.0])  # 1/(2 - z)
index_pairs = IndexSequence([(k, k % 3) for k in range(41)])

u, cert = build_universal_polynomial(requirement, inner_target, index_pairs)

print("certificate")
print(f"  selected index pair : (p, q) = {cert.selected}")
print(f"  fit degree          : {cert.fit_degree}")
print(f"  perturbation |d|    : {abs(cert.perturbation):.3e}")
print(f"  requested bound 1/s : {cert.requested:.3e}")
print("  achieved sups:")
labels = {
    "2": "Taylor vs z^2        on centers x K",
    "3": "Pade   vs z^2        on centers x K",
    "4": "Taylor vs 1/(2-z)    on centers x J",
    "5": "Pade   vs 1/(2-z)    on centers x J",
    "id_taylor_l0": "Taylor self-reproduction",
    "id_pade_l0": "Pade   self-reproduction",
}
for key, text in labels.items():
    print(f"    {text:36s} {cert.achieved[key]:.3e}")
print(f"  min |D| over centers: {cert.hankel_min:.3e}  (|d|^q, exactly nonzero)")
print(f"  passed              : {cert.passed}")
print()
print(f"u has degree {u.array_degree()} with {len(u.coeffs)} stored coefficients;")
print("every sup above was measured on the K and J grids; by the identity it is")
print("the same at every center, so the self-reproduction sups are exactly 0.")
