"""Walkthrough: marker sets for bijections without short orbits.

A marker set Z for window half-length m satisfies two conditions, both checked
exhaustively here: the translates of Z over [-m, m] are pairwise disjoint, and
the forward translates over [1, (d+1)(4m+1)] cover the compact set of
interest.  Two independent constructions are compared: arithmetic greedy
placement per cycle, and the general covering fold that works for any group
given composition oracles.
"""

from rokhlin import (
    GroupWindow,
    disjointness_margin,
    free_locus,
    greedy_markers,
    is_disjoint_family,
    local_marker,
    make_cycle_system,
    marker_certificate,
)

# -- free locus ----------------------------------------------------------------

sys = make_cycle_system([3, 10])
print("free locus for window {0,1,2}:  ", len(free_locus(sys, {0, 1, 2})), "points")
print("free locus for window {0,1,2,3}:", len(free_locus(sys, {0, 1, 2, 3})), "points")
# the 3-cycle drops out once the window is longer than the cycle

# -- greedy markers --------------------------------------------------------------

sys = make_cycle_system([100])
cert = greedy_markers(sys, m=2, K=range(100))
positions = sorted(sys.orbits().pos[list(cert.markers)].tolist())
print(f"\n100-cycle, m=2: markers at positions {positions[:6]}... "
      f"({len(positions)} total)")
print(f"disjointness: {cert.flag_disjoint}, covering: {cert.flag_cover}")

# with a remainder, gaps stretch inside [2m+1, 4m+1]
cert12 = greedy_markers(make_cycle_system([12]), m=2, K=range(12))
print(f"12-cycle, m=2: markers {sorted(cert12.markers)}, both flags {cert12.ok()}")

# -- metric margins ---------------------------------------------------------------

sys = make_cycle_system([10])
rho = disjointness_margin(sys, {0}, [-1, 0, 1], 1)
print(f"\nhow far can a singleton grow before its window translates touch? rho = {rho}")

# -- the covering fold -------------------------------------------------------------

sys = make_cycle_system([60], d=0)
window = GroupWindow.integers(m=2, d=0)
print(f"\ninteger window: F = [-2, 2], derived M = [{min(window.M())}, {max(window.M())}]")
result = local_marker(sys, range(60), window)
print(f"fold produced {len(result.markers)} markers in {result.steps} steps; "
      f"flags {result.flag_disjoint}, {result.flag_cover}")

# cross-validate against the greedy construction on identical inputs
greedy = greedy_markers(sys, 2, range(60))
both = marker_certificate(sys, result.markers, 2, range(60))
print(f"greedy gives {len(greedy.markers)} markers; both certificates valid: "
      f"{greedy.ok() and both.ok()}")

# the predicates are available standalone
print("\nwhole space is never disjoint under two shifts:",
      is_disjoint_family(sys, range(60), [0, 1], 1))
