"""Walkthrough: the full completely positive approximation with measured bounds.

Given contractions F and a tolerance eps, the run derives the window
parameters, splits the system into short and long orbits, approximates the
quotient side through hat-node sampling and the ideal side through
tower-windowed matrix algebras, and measures three errors against their
closed-form budgets:

    quotient corner <= (d+3) eps
    ideal corner    <= (2d+3) eps
    final assembly  <= (3d+7) eps

The dimension ledger records the order-zero color counts: (d+2) + (d+1)(2d+3)
declared colors total 2d^2+6d+5, one above the closed-form bound 2d^2+6d+4 in
the plus-one convention.
"""

import math

import numpy as np

from rokhlin import CrossedElement, make_cycle_system, make_ledger, run_approximation

# -- a system with both short and long orbits ------------------------------------

sys = make_cycle_system([3, 60], d=0)
u = CrossedElement.unitary(sys)
cyc = [c for c in sys.orbits().cycles if c.length == 60][0]
v = np.zeros(sys.n)
for pos, x in enumerate(cyc.order):
    v[x] = 0.5 * (1 + math.cos(2 * math.pi * pos / 60))
f = CrossedElement.from_function(sys, v)

run = run_approximation(sys, [u, f, f * u], eps="3/2", norm_tol=1e-3)
p = run.params
print(f"derived parameters: k={p.k}, eps'={p.eps_prime}, m={p.m}, N={p.N}")
print(f"split: {(~p.split.long).sum()} short points / {p.split.long.sum()} long points")
print(f"cutoff is a central projection: {run.equnit.is_central_projection}")

# each claim's bound carries the norm tolerance; the square-root step is strict
for check in run.checks:
    print(f"  {check.name:<28} measured {check.measured:.6f}  bound {check.bound:.3f}  pass={check.passed}")
fz = run.factorization
print(f"order-zero colors: {fz.summands_actual} observed, {fz.summands_declared} declared")
print(f"every check passes: {run.passed()}")

# -- the ledger ---------------------------------------------------------------------

print("\ndimension ledger across declared dimensions:")
for d in range(4):
    led = make_ledger(d)
    print(f"  d={d}: colors {led.quotient_colors_declared}+{led.ideal_term_declared}"
          f" = {led.total_declared} = bound {led.closed_form_bound} + 1"
          f"   (additive route {led.additive_bound})")

# -- quotient-only degenerate case ----------------------------------------------------

small = make_cycle_system([3, 5])
run2 = run_approximation(small, [CrossedElement.unitary(small)], eps="1/2")
print(f"\nall orbits short: ideal side skipped, final error "
      f"{run2.factorization.final.max_measured:.6f}, "
      f"colors {run2.factorization.summands_actual}")
