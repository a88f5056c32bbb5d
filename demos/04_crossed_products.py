"""Walkthrough: the crossed product of functions by the forward map.

Elements are finite Laurent series sum f_i u^i with the moved-coefficient rule
u g u* = g o forward^{-1}.  Over each cycle of length L the algebra is the
L x L matrices over the circle; norms are computed fiberwise on a circle grid
whose spacing carries an explicit Lipschitz certificate.
"""

import numpy as np

from rokhlin import (
    CrossedElement,
    holonomy,
    make_cycle_system,
    norm,
    periodic_embedding,
    primitive_spectrum,
)

# -- the algebra -----------------------------------------------------------------

sys = make_cycle_system([2])
u = CrossedElement.unitary(sys)
f = CrossedElement.indicator(sys, {0}, power=1)   # f u with f = 1_{x0}
print("(fu)(fu) vanishes on a 2-cycle:", (f * f).is_zero())
print("u u* is the identity:", (u * u.adjoint()).coefficient(0).real.tolist())

g = CrossedElement.from_function(sys, [1.0, 2.0])
moved = u * g * u.adjoint()
print("u g u* moves the coefficient:", moved.coefficient(0).real.tolist())

# -- fiber representations ----------------------------------------------------------

# over a 4-cycle u is the shift with weights (1, 1, 1, lam) at circle parameter
# lam; holonomy forms u^4 in band form, by repeated squaring, never as a matrix
lam = np.exp(0.7j)
hol, residual = holonomy([1.0, 1.0, 1.0, lam])
print(f"\nu-image to the 4th power is lam * identity: {residual:.1e} "
      f"(holonomy {abs(hol - lam):.1e} from lam)")

# any unit-modulus weights: the holonomy is the phase product, so its angle is
# the sum of the phase angles, 0.1 + 0.3 + 0.25 + 0.8 = 1.45 turns (0.45 mod 1)
turns = np.array([0.1, 0.3, 0.25, 0.8])
hol, residual = holonomy(np.exp(2j * np.pi * turns))
print(f"holonomy of a phased fiber is the phase product: {np.angle(hol) / (2 * np.pi) % 1:.2f} turns, "
      f"and u^4 is it times the identity: {residual:.1e}")

# -- certified norms ------------------------------------------------------------------

fp = make_cycle_system([1])
one = CrossedElement.from_function(fp, [1.0])
b = one + one * CrossedElement.unitary(fp)
result = norm(b, 1e-4)
print(f"\n||1 + u|| on a fixed point: {result.value:.6f} (true value 2; "
      f"certified within {result.tol})")

# -- periodic systems -------------------------------------------------------------------

# the residuals below are rounding errors of random data: the seed-0 stream
# from its 109th draw on
rng = np.random.default_rng(0)
rng.standard_normal(108)

# the embedding is held in band form (at most 2k + 1 weighted diagonals for
# radius k) and its residuals stream the circle grid in chunks, so period 1001
# runs in a few tens of MB where a dense image would take 31.8 GB
print()
for lengths in ([2, 3], [7, 11, 13]):
    per = make_cycle_system(lengths)
    emb = periodic_embedding(per, grid=64)
    a = CrossedElement(per, {i: rng.standard_normal(per.n) for i in range(-2, 3)})
    print(f"cycles {lengths}, period {emb.n}, {min(emb.chunk, emb.grid)} grid points a chunk: "
          f"unitarity {emb.unitarity_residual():.1e}, "
          f"covariance {emb.covariance_residual(rng.standard_normal(per.n)):.1e}, "
          f"expectation {emb.expectation_residual(a):.1e}")
spec = primitive_spectrum(make_cycle_system([2, 2, 5]))
print(f"spectrum counts {spec.counts}, max irreducible dimension "
      f"{spec.max_irreducible_dim} <= period {spec.period}")
