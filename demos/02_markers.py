"""Walkthrough: marker sets for bijections without short orbits.

A marker set Z for window half-length m satisfies two conditions, both checked
exhaustively here: the translates of Z over [-m, m] are pairwise disjoint, and
the forward translates over [1, (d+1)(4m+1)] cover the compact set of
interest.  Greedy placement puts markers arithmetically on each cycle; the
certificate holds them as a sorted index array.
"""

import numpy as np

from rokhlin import greedy_markers, make_cycle_system

# -- greedy markers --------------------------------------------------------------

sys = make_cycle_system([100])
cert = greedy_markers(sys, m=2, K=range(100))
positions = np.sort(sys.orbits().pos[cert.markers]).tolist()
print(f"\n100-cycle, m=2: markers at positions {positions[:6]}... "
      f"({len(positions)} total)")
print(f"disjointness: {cert.flag_disjoint}, covering: {cert.flag_cover}")

# with a remainder, gaps stretch inside [2m+1, 4m+1]
cert12 = greedy_markers(make_cycle_system([12]), m=2, K=range(12))
print(f"12-cycle, m=2: markers {cert12.markers.tolist()}, both flags {cert12.ok()}")
