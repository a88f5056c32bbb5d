"""Walkthrough: decaying Rokhlin towers from markers.

The pipeline shifts a marker set into 2d+3 staggered supports, splits each
covered point evenly among the translates covering it (exact rationals), and
averages over the window [-k', k'] to gain approximate equivariance.  The
averaged step obeys the closed-form bound 2k/(2k'+1), strictly below the
requested tolerance, and the level sums conserve mass exactly on the compact
set.
"""

from rokhlin import build_tower_family, make_cycle_system, verify_tower

# -- build and verify a family ---------------------------------------------------

sys = make_cycle_system([100])
family = build_tower_family(sys, d=0, k=1, m=5, eps="1/2", K=range(100))
print(f"levels: {family.levels}, smoothing width k' = {family.k_prime}")
anchors = family.points[:, :, family.m]  # each support's points, sorted
print(f"support sizes: {[len(a) for a in anchors]}")

report = verify_tower(family)
for check in report.checks:  # conservation is exact, the step bound strictly below eps
    print(f"  {check.name:<36} measured {check.measured:.6g}  bound {check.bound:.6g}  pass={check.passed}")
print(f"all invariants hold: {report.ok()}")

# tighter tolerance -> wider smoothing -> smaller step bound
fam2 = build_tower_family(make_cycle_system([200]), d=0, k=1, m=11, eps="1/4", K=range(200))
print(f"\neps = 1/4 gives k' = {fam2.k_prime} and bound {verify_tower(fam2).step_bound:.4f}")

# -- tower functions decay at the window ends -------------------------------------

ends = [family.end_sup(l) for l in range(family.levels)]
print(f"\nend sups per level: {ends} (each <= 1/(2k'+1) = {1 / (2 * family.k_prime + 1):.3f})")
