"""Acceptance suite: each test covers one numbered criterion at its stated
tolerance and prints one pass/fail line.  Criteria 4 and 5 share one run of
the large scenario.  Criterion 9 (cyclic <-> decaying tower conversions) has
no test: the library has no such conversions."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rokhlin.approx import (
    assemble_and_verify,
    derive_params,
    quasicentral_unit,
    quotient_approx,
    run_approximation,
)
from rokhlin.cstar import (
    CrossedElement,
    holonomy,
    norm,
    periodic_embedding,
)
from rokhlin.dynsys import make_cycle_system
from rokhlin.markers import greedy_markers, marker_certificate
from rokhlin.towers import build_tower_family, min_window_length, verify_tower

from dense_reference import dense_holonomy, orbit_rep_with_phases, regular_window_norm
from metric_reference import GroupWindow, cycle_metric, local_marker


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def large_run():
    """Shared scenario: cycles [3, 7, 1500], d = 0, eps = 3/10, F = {u, f, fu}."""
    sys = make_cycle_system([3, 7, 1500], d=0)
    cyc = [c for c in sys.orbits().cycles if c.length == 1500][0]
    v = np.zeros(sys.n)
    for pos, x in enumerate(cyc.order):
        v[x] = 0.5 * (1 + math.cos(2 * math.pi * pos / 1500))
    f = CrossedElement.from_function(sys, v)
    u = CrossedElement.unitary(sys)
    F = [u, f, f * u]
    start = time.monotonic()
    run = run_approximation(sys, F, "3/10", norm_tol=1e-3)
    return run, time.monotonic() - start


def test_criterion_1_tower_step_bound():
    start = time.monotonic()
    sys = make_cycle_system([100])
    family = build_tower_family(sys, d=0, k=1, m=5, eps="1/2", K=range(100))
    rep = verify_tower(family)
    elapsed = time.monotonic() - start
    ok = (
        rep.step_measured <= 0.4 + 1e-12
        and rep.step_bound == pytest.approx(0.4, abs=1e-15)
        and family.step_bound() == Fraction(2, 5)
        and rep.ok()
        and elapsed < 1.0
    )
    report(1, ok, f"step={rep.step_measured:.6f} bound=0.4 elapsed={elapsed:.2f}s")


def test_criterion_2_tower_conservation():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    worst_float = 0.0
    all_exact = True
    for d in (0, 1, 2):
        for k in (1, 2):
            for eps in ("1/2", "1/4"):
                k_prime = k * math.ceil(1 / Fraction(eps))
                m = min_window_length(d, k_prime)
                N = (d + 1) * (4 * m + 1)
                lengths = [int(rng.integers(N + 1, 2 * N + 1)) for _ in range(rng.integers(1, 3))]
                sys = make_cycle_system(lengths, d)
                family = build_tower_family(sys, d, k, m, eps, range(sys.n))
                rep = verify_tower(family)
                all_exact = all_exact and rep.conservation_exact
                worst_float = max(worst_float, rep.conservation_error)
    elapsed = time.monotonic() - start
    ok = all_exact and worst_float <= 1e-12 and elapsed < 10.0
    report(2, ok, f"exact={all_exact} float_err={worst_float:.2e} elapsed={elapsed:.2f}s")


def test_criterion_3_marker_certificates():
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    total, good = 0, 0
    for d in (0, 1, 2):
        for m in (2, 3):
            N = (d + 1) * (4 * m + 1)
            for _ in range(34):
                lengths = [int(rng.integers(N + 1, 5 * N + 1))
                           for _ in range(rng.integers(1, 3))]
                sys = make_cycle_system(lengths, d)
                cert = greedy_markers(sys, m, range(sys.n), d)
                total += 1
                good += cert.flag_disjoint and cert.flag_cover
    elapsed = time.monotonic() - start
    ok = total >= 200 and good == total and elapsed < 30.0
    report(3, ok, f"{good}/{total} certificates valid elapsed={elapsed:.2f}s")


def test_criterion_4_ideal_corner_bound(large_run):
    run, elapsed = large_run
    p = run.params
    fz = run.factorization
    params_ok = (p.eps_prime, p.m, p.N) == (Fraction(1, 100), 300, 1201)
    bound = float((2 * p.d + 3) * p.eps)
    ok = (
        params_ok
        and bound == pytest.approx(0.9)
        and fz.ideal_corner.max_measured <= bound + 1e-3
        and elapsed < 300.0
    )
    report(4, ok, f"measured={fz.ideal_corner.max_measured:.6f} bound=0.9+1e-3 "
                  f"(m={p.m}, N={p.N}) elapsed={elapsed:.1f}s")


def test_criterion_5_final_assembly(large_run):
    run, _ = large_run
    fz = run.factorization
    bound = float((3 * run.params.d + 7) * run.params.eps)
    ok = (
        bound == pytest.approx(2.1)
        and fz.final.max_measured <= bound + 1e-3
        and fz.summands_actual == 5
        and fz.summands_declared == 5
        and fz.ledger.total_declared == 5
        and fz.ledger.closed_form_bound == 4
        and fz.ledger.identities_hold()
    )
    report(5, ok, f"final={fz.final.max_measured:.6f} bound=2.1+1e-3 summands=5 "
                  f"ledger=(5,4)")


def test_criterion_6_periodic_embedding():
    start = time.monotonic()
    rng = np.random.default_rng(1006)
    worst_cov = 0.0
    for n in range(1, 13):
        sys = make_cycle_system([n])
        emb = periodic_embedding(sys, 64)
        assert emb.n == n
        for _ in range(3):
            worst_cov = max(worst_cov, emb.covariance_residual(rng.standard_normal(sys.n)))
        worst_cov = max(worst_cov, emb.unitarity_residual())
    mixed = make_cycle_system([3, 4])
    emb = periodic_embedding(mixed, 64)
    worst_cov = max(worst_cov, emb.covariance_residual(rng.standard_normal(mixed.n)))
    worst_hol = 0.0
    for L in range(1, 9):
        sys = make_cycle_system([L])
        cyc = sys.orbits().cycles[0]
        for _ in range(5):
            phases = np.exp(2j * np.pi * rng.random(L))
            lam, residual = holonomy(phases)
            # against the dense reference: the determinant and u^L as a
            # matrix power of the L x L u-image
            rep = orbit_rep_with_phases(sys, cyc, phases)
            power = np.linalg.matrix_power(rep.u_matrix, L)
            dense = float(np.abs(power - lam * np.eye(L)).max())
            worst_hol = max(worst_hol, residual, dense, abs(lam - dense_holonomy(rep, tol=1e-10)))
    elapsed = time.monotonic() - start
    ok = worst_cov <= 1e-12 and worst_hol <= 1e-10 and elapsed < 5.0
    report(6, ok, f"covariance={worst_cov:.2e} holonomy={worst_hol:.2e} elapsed={elapsed:.2f}s")


def test_criterion_7_orbit_fiber_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(1007)
    worst = 0.0
    for L in range(1, 9):
        sys = make_cycle_system([L])
        cyc = sys.orbits().cycles[0]
        for k in (1, 2):
            for _ in range(4):
                a = CrossedElement(
                    sys,
                    {i: 0.5 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
                     for i in range(-k, k + 1)},
                )
                certified = norm(a, 1e-3).value
                oracle = regular_window_norm(a, cyc, 8 * (L + k))
                worst = max(worst, abs(certified - oracle) / max(certified, oracle, 1e-12))
    elapsed = time.monotonic() - start
    ok = worst < 1e-2 and elapsed < 30.0
    report(7, ok, f"worst relative gap={worst:.4f} elapsed={elapsed:.2f}s")


def test_criterion_8_quotient_approximation():
    start = time.monotonic()
    sys = make_cycle_system([3, 5])
    rng = np.random.default_rng(1008)
    F = []
    for _ in range(5):
        raw = CrossedElement(
            sys,
            {i: rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
             for i in (-2, -1, 0, 1, 2)},
        )
        # the coefficient bound dominates the norm, so this is a contraction
        F.append((1.0 / raw.coefficient_bound()) * raw)
    params = derive_params(F, "1/10", sys, norm_tol=1e-3)
    quotient = quotient_approx(params)
    equnit = quasicentral_unit(params)
    # with the whole system short and the default cutoff, the corner error is
    # exactly the raw hat-interpolation error on the quotient
    rep = assemble_and_verify(params, quotient, None, equnit).quotient_corner
    raw_error = rep.max_measured
    elapsed = time.monotonic() - start
    ok = (
        quotient.order_zero_colors == 2
        and raw_error <= 0.1
        and elapsed < 10.0
    )
    report(8, ok, f"colors=2 error={raw_error:.6f} <= 0.1 elapsed={elapsed:.2f}s")


def test_criterion_10_marker_cross_validation():
    start = time.monotonic()
    cases = [
        ((0, 2), [60]),
        ((0, 3), [25, 35]),
        ((1, 2), [60]),
        ((2, 2), [58]),
        ((0, 2), [20, 40]),
    ]
    all_ok = True
    for (d, m), lengths in cases:
        sys = make_cycle_system(lengths, d)
        assert sys.n <= 60
        window = GroupWindow.integers(m, d)
        local = local_marker(sys, cycle_metric(lengths), range(sys.n), window)
        greedy = greedy_markers(sys, m, range(sys.n), d)
        # identical exhaustive checks on both outputs
        local_cert = marker_certificate(sys, sorted(local.markers), m, range(sys.n), d)
        all_ok = all_ok and local.flag_disjoint and local.flag_cover
        all_ok = all_ok and local_cert.flag_disjoint and local_cert.flag_cover
        all_ok = all_ok and greedy.flag_disjoint and greedy.flag_cover
    elapsed = time.monotonic() - start
    ok = all_ok and elapsed < 30.0
    report(10, ok, f"{len(cases)} systems cross-validated elapsed={elapsed:.2f}s")
