"""Walkthrough: building finite dynamical systems and reading their orbit structure.

A system is a finite labelled point set with a bijective forward map.  The
orbit decomposition is the basic invariant everything else is built on: the
short-orbit / long-orbit split drives the approximation machinery, and the
orbit space with its per-orbit fibers gives the crossed product its bundle
structure.
"""

import numpy as np

from rokhlin import (
    invariant_split,
    load_system,
    make_cycle_system,
    make_rotation_system,
    quotient_report,
)

# -- two cycles, explicit construction --------------------------------------

sys = make_cycle_system([3, 10])
print(f"system with {sys.n} points, declared dimension {sys.declared_dim}")
for cyc in sys.orbits().cycles:
    print(f"  cycle of length {cyc.length} anchored at {sys.labels[cyc.base]}")

# -- rotations: orbit length is q / gcd(p, q) --------------------------------

for p in (5, 4, 6):
    rot = make_rotation_system(12, p)
    lengths = sorted(c.length for c in rot.orbits().cycles)
    print(f"rotation by {p}/12 -> orbit lengths {lengths}")

# -- the invariant split ------------------------------------------------------

sys = make_cycle_system([2, 2, 7, 100])
split = invariant_split(sys, 25)
print(f"\nsplit at N=25: {(~split.long).sum()} short-orbit points, "
      f"{split.long.sum()} long-orbit points")
# the long-orbit mask, and so its complement, is invariant under the map
assert np.array_equal(split.long[sys.perm], split.long)

# -- quotient structure -------------------------------------------------------

rep = quotient_report(make_cycle_system([2, 5], d=1))
print(f"\nquotient has {rep.quotient_size} orbit classes:")
for row in rep.rows:
    print(f"  length {row['length']}: stabilizer {row['stabilizer']}, fiber {row['fiber']}")
print(f"crossed-product bound (plus-one convention): {rep.bound_plus_one}")

# -- systems can also come from JSON files ------------------------------------

doc = """
{
 "points": ["a", "b", "c"],
 "map": {"a": "b", "b": "c", "c": "a"},
 "dimension": 0
}
"""
from_file = load_system(doc)
print(f"\nloaded from JSON: {from_file.orbits().lengths()}")
