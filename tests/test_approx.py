import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rokhlin.approx import (
    ApproxError,
    IdealSide,
    QuotientSide,
    assemble_and_verify,
    derive_params,
    ideal_approx,
    make_ledger,
    quasicentral_unit,
    quotient_approx,
    run_approximation,
)
from rokhlin.cli import run_scenario
from rokhlin import cstar
from rokhlin.cstar import (
    CornerFiber,
    CrossedElement,
    ElementOrbitFiber,
    _grid,
    _sigma_exact,
    corner_norm,
    fiber_sup_norm,
    norm,
)
from rokhlin.dynsys import invariant_split, make_cycle_system
from rokhlin.towers import build_tower_family

from dense_reference import (
    dense_blend,
    dense_quotient_fiber,
    dense_quotient_fibers,
    ideal_anchors,
    ideal_blocks,
    ideal_return,
    node_lams,
)


def unit(sys, power=1):
    return CrossedElement.unitary(sys, power)


def bump(sys, cycle_length):
    """Cosine bump supported on the cycle of the given length, sup norm one."""
    cyc = [c for c in sys.orbits().cycles if c.length == cycle_length][0]
    v = np.zeros(sys.n)
    for pos, x in enumerate(cyc.order):
        v[x] = 0.5 * (1 + math.cos(2 * math.pi * pos / cycle_length))
    return CrossedElement.from_function(sys, v)


class TestDeriveParams:
    def test_window_parameter_instances(self):
        from rokhlin.approx import window_parameters

        assert window_parameters(0, 1, "1/2") == (6, 25)
        assert window_parameters(1, 2, "1/2") == (20, 162)
        assert window_parameters(0, 1, "1/100") == (300, 1201)

    def test_formula_instances(self):
        # eps chosen so that eps' = (eps/(2k+1))^2 equals 1/2 is impossible in
        # closed form; check the two displayed arithmetic cases directly
        d0 = make_cycle_system([30], d=0)
        # eps' = 1/4 with k = 1 comes from eps = 3/2
        p = derive_params([unit(d0)], "3/2", d0)
        assert (p.k, p.eps_prime, p.m, p.N) == (1, Fraction(1, 4), 12, 49)
        d1 = make_cycle_system([820], d=1)
        # k = 2, eps' = 1/4 comes from eps = 5/2
        b = unit(d1, 2)
        p = derive_params([b], "5/2", d1)
        assert (p.k, p.eps_prime, p.m, p.N) == (2, Fraction(1, 4), 40, 322)

    def test_acceptance_parameters(self):
        sys = make_cycle_system([3, 7, 1500], d=0)
        p = derive_params([unit(sys)], "3/10", sys)
        assert (p.k, p.eps_prime, p.m, p.N) == (1, Fraction(1, 100), 300, 1201)
        assert (~p.split.long).sum() == 10 and p.split.long.sum() == 1500

    def test_sqrt_modulus_rule(self):
        # |s - t| < eps' forces |sqrt s - sqrt t| < eps/(2k+1) on [0, 1]
        eps, k = 0.3, 1
        eps_prime = (eps / (2 * k + 1)) ** 2
        rng = np.random.default_rng(0)
        s = rng.random(2000)
        t = np.clip(s + rng.uniform(-eps_prime, eps_prime, 2000) * 0.999, 0, 1)
        assert np.all(np.abs(np.sqrt(s) - np.sqrt(t)) < eps / (2 * k + 1))

    def test_norm_gate(self):
        sys = make_cycle_system([30])
        big = CrossedElement.from_function(sys, 3.0 * np.ones(30))
        with pytest.raises(ApproxError, match="norm above one"):
            derive_params([big], "3/2", sys)

    def test_short_ideal_cycle_rejected_with_suggestion(self):
        sys = make_cycle_system([3, 30])
        with pytest.raises(ApproxError, match="smallest admissible"):
            derive_params([unit(sys)], "3/2", sys, N_override=20)

    def test_all_short_goes_quotient_only(self):
        sys = make_cycle_system([3, 5])
        p = derive_params([unit(sys)], "3/2", sys)
        assert p.quotient_only
        assert not p.split.long.any()

    def test_empty_F_rejected(self):
        with pytest.raises(ApproxError, match="nonempty"):
            derive_params([], "1/2", make_cycle_system([3]))


class TestQuasicentral:
    def test_default_is_central_projection(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        rep = quasicentral_unit(sys, p.split, p.F)
        assert rep.is_central_projection
        assert np.all(rep.e[p.split.long] == 1.0)
        # e vanishes on the short part, where the lifted quotient maps live
        assert np.all(rep.e[~p.split.long] == 0.0)
        assert rep.corner_errors == (0.0,)

    def test_central_corner_split_is_exact(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        rep = quasicentral_unit(sys, p.split, p.F)
        b = bump(sys, 100) * unit(sys)
        defect = b.compressed(rep.sqrt()) + b.compressed(rep.cosqrt()) - b
        assert defect.coefficient_bound() < 1e-15

    def test_ramped_e_measured(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        cyc = [c for c in sys.orbits().cycles if c.length == 100][0]
        e = np.zeros(sys.n)
        for pos, x in enumerate(cyc.order):
            e[x] = 0.5 * (1 + math.cos(2 * math.pi * pos / 100))
        rep = quasicentral_unit(sys, p.split, p.F, e_values=e)
        assert not rep.is_central_projection
        assert rep.corner_errors[0] > 0  # genuinely measured for the unitary

    def test_e_outside_complement_rejected(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        e = np.ones(sys.n)
        with pytest.raises(ApproxError, match=r"^e is supported outside the long-orbit part at 'c0p00'$"):
            quasicentral_unit(sys, p.split, p.F, e_values=e)
        # the first offending point in index order is named
        e = np.zeros(sys.n)
        e[[sys.index["c0p02"], sys.index["c1p05"], sys.index["c0p01"]]] = 0.5
        with pytest.raises(ApproxError, match=r"^e is supported outside the long-orbit part at 'c0p01'$"):
            quasicentral_unit(sys, p.split, p.F, e_values=e)

    def test_e_range_checked(self):
        sys = make_cycle_system([3, 100])
        p = derive_params([unit(sys)], "3/2", sys, N_override=25)
        e = np.zeros(sys.n)
        e[np.flatnonzero(p.split.long)[0]] = 1.5
        with pytest.raises(ApproxError, match=r"\[0, 1\]"):
            quasicentral_unit(sys, p.split, p.F, e_values=e)


class TestQuotientSide:
    def test_fixed_point_circle_approximation(self):
        # the quotient factor over a fixed point is functions on the circle
        sys = make_cycle_system([1])
        u = unit(sys)
        p = derive_params([u], 0.1, sys)
        q = quotient_approx(p.split, [u], 0.1, sys)
        equnit = quasicentral_unit(sys, p.split, [u])
        rep = assemble_and_verify(p, q, None, equnit, norm_tol=1e-4).quotient_corner
        assert q.order_zero_colors == 2
        assert rep.max_measured <= 0.1

    def test_constants_reproduced_exactly(self):
        sys = make_cycle_system([3, 5])
        one = CrossedElement.from_function(sys, np.ones(sys.n))
        p = derive_params([one], 0.1, sys)
        q = quotient_approx(p.split, [one], 0.1, sys)
        equnit = quasicentral_unit(sys, p.split, [one])
        rep = assemble_and_verify(p, q, None, equnit, norm_tol=1e-6).quotient_corner
        assert rep.max_measured < 1e-9  # hat weights sum to one

    def test_empty_short_part_gives_zero_error(self):
        sys = make_cycle_system([60])
        run = run_approximation(sys, [unit(sys)], "3/2")
        assert run.quotient.cycles == ()
        assert run.factorization.quotient_corner.max_measured == 0.0

    def test_node_counts_even_and_large_enough(self):
        sys = make_cycle_system([3, 5])
        u = unit(sys)
        p = derive_params([u], 0.1, sys)
        q = quotient_approx(p.split, [u], 0.1, sys)
        for cyc in q.cycles:
            s = q.node_count[cyc.base]
            assert s % 2 == 0
            assert s >= 2 * math.pi * cyc.length * p.k / 0.1

    def test_summing_is_positive_and_contractive(self):
        sys = make_cycle_system([3, 5])
        rng = np.random.default_rng(1)
        u = unit(sys)
        p = derive_params([u], 0.1, sys)
        q = quotient_approx(p.split, [u], 0.1, sys)
        assert q.cycles
        for _ in range(5):
            a = CrossedElement(
                sys, {i: 0.3 * rng.standard_normal(sys.n) for i in (-1, 0, 1)}
            )
            # the summing map evaluates b's fiber at the hat nodes
            for cyc in q.cycles:
                lams = node_lams(q.node_count[cyc.base])
                gram = ElementOrbitFiber(a.adjoint() * a, cyc).matrices(lams)
                assert np.linalg.eigvalsh(gram).min() >= -1e-10
                top = np.linalg.svd(ElementOrbitFiber(a, cyc).matrices(lams), compute_uv=False)[:, 0]
                assert top.max() <= norm(a, 1e-3).upper + 1e-9

    def test_random_contractions_meet_bound(self):
        sys = make_cycle_system([3, 5])
        rng = np.random.default_rng(2)
        F = []
        for _ in range(5):
            raw = CrossedElement(
                sys,
                {i: rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)},
            )
            F.append((1.0 / raw.coefficient_bound()) * raw)
        p = derive_params(F, 0.1, sys)
        q = quotient_approx(p.split, F, 0.1, sys)
        equnit = quasicentral_unit(sys, p.split, F)
        rep = assemble_and_verify(p, q, None, equnit, norm_tol=1e-3).quotient_corner
        assert q.order_zero_colors == 2
        assert rep.max_measured <= 0.1
        # the raw per-element interpolation error on its 1024-point grid lies
        # below the closed form's upper bound, and the closed value below the
        # grid's (nothing lives off the short part)
        closed = [corner_norm(sys, q.corner_fibers(b)) for b in F]
        assert rep.measured == tuple(res.value for res in closed)
        for b, res in zip(F, closed):
            raw = fiber_sup_norm(sys, dense_quotient_fibers(q, b), 1e-3)
            assert raw.value <= res.upper + _BLEND_ROUNDOFF
            assert res.value <= raw.upper


# a dense reference node stack holds at most this many entries (32 MiB)
_DENSE_STACK_ENTRIES = 2**21


@st.composite
def corner_cases(draw):
    """(b, quotient side) on one cycle of 1-64 points, with complex
    coefficients of radius 0-3 scaled to coefficient bound one; short cycles
    are drawn often, so that 2k >= L and k >= L both occur.  eps is the
    smallest of 1/2, 3/2 and 4 whose dense node stack fits the cap."""
    L = draw(st.one_of(st.integers(1, 6), st.integers(7, 64)))
    radius = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys = make_cycle_system([L])
    coeffs = {i: rng.standard_normal(L) + 1j * rng.standard_normal(L) for i in range(-radius, radius + 1)}
    b = CrossedElement(sys, coeffs)
    b = (1.0 / b.coefficient_bound()) * b
    for eps in ("1/2", "3/2", "4"):
        q = quotient_approx(invariant_split(sys, L), [b], eps, sys)
        s = q.node_count[sys.orbits().cycles[0].base]
        if s * L * L <= _DENSE_STACK_ENTRIES:
            return b, q
    raise AssertionError("eps = 4 fits every case")


def corner_deviation(corner, dense, lams) -> float:
    """Largest gap between the corner's and the dense field's sigma at lams."""
    got = _sigma_exact(corner.matrices(lams)) if corner is not None else np.zeros(len(lams))
    return float(np.abs(got - _sigma_exact(dense.matrices(lams))).max())


def roundoff(L: int) -> float:
    """Bound on that gap for coefficient bound one: the dense field keeps a
    rounding error of a few ulps in each entry off the seam corner, where
    the corner has exact zeros."""
    return 4 * L * np.finfo(float).eps


class TestCornerFiber:
    """The seam corner against the dense interp(sample(b)) - b field."""

    @settings(max_examples=25, deadline=None)
    @given(corner_cases())
    def test_equals_the_dense_field(self, case):
        b, q = case
        cyc = q.cycles[0]
        s = q.node_count[cyc.base]
        dense = dense_quotient_fiber(b, cyc, s)
        corners = q.corner_fibers(b)
        corner = corners[0] if corners else None
        rng = np.random.default_rng(s)
        lams = np.concatenate([np.exp(2j * np.pi * np.arange(s) / s)[:64], _grid(256),
                               np.exp(2j * np.pi * rng.random(64))])
        assert corner_deviation(corner, dense, lams) <= roundoff(cyc.length)
        if corner is None:  # b is constant on the circle there
            assert set(ElementOrbitFiber(b, cyc).bands) <= {0}
            return
        # the corner is S x S for S within k of the seam, or everything
        k = max(abs(i) for i in ElementOrbitFiber(b, cyc).bands)
        assert corner.L == min(cyc.length, 2 * k)
        assert corner.lip() >= dense.parts[0].lip()
        # the sup on the corner's grid, and the two certified intervals
        res, ref = fiber_sup_norm(q.sys, corners, 1e-2), fiber_sup_norm(q.sys, [dense], 1e-2)
        n = res.grids[q.sys.labels[cyc.base]]
        assert abs(res.value - _sigma_exact(dense.matrices(_grid(n))).max()) <= roundoff(cyc.length)
        assert res.value <= ref.upper + roundoff(cyc.length)
        assert ref.value <= res.upper + roundoff(cyc.length)

    def mutation_case(self):
        sys = make_cycle_system([9])
        rng = np.random.default_rng(41)
        b = CrossedElement(sys, {i: rng.standard_normal(9) + 1j * rng.standard_normal(9) for i in (-2, -1, 0, 1, 2)})
        b = (1.0 / b.coefficient_bound()) * b
        q = quotient_approx(invariant_split(sys, 9), [b], "1/2", sys)
        cyc = q.cycles[0]
        return b, q, dense_quotient_fiber(b, cyc, q.node_count[cyc.base]), _grid(512)

    def test_corner_norm_names_the_dense_solver(self):
        b, q, _, _ = self.mutation_case()
        res = fiber_sup_norm(q.sys, q.corner_fibers(b), 1e-2)
        assert res.solvers == {q.sys.labels[q.cycles[0].base]: "dense"}

    def assert_caught(self, monkeypatch, mutate):
        b, q, dense, lams = self.mutation_case()
        assert corner_deviation(q.corner_fibers(b)[0], dense, lams) <= roundoff(9)
        original = CornerFiber.__init__

        def mutated(fib, *args):
            original(fib, *args)
            fib.entries = mutate(fib)

        monkeypatch.setattr(CornerFiber, "__init__", mutated)
        assert corner_deviation(q.corner_fibers(b)[0], dense, lams) > 1e3 * roundoff(9)

    def test_mutated_wrap_power_is_caught(self, monkeypatch):
        self.assert_caught(monkeypatch, lambda fib: [
            (rows, cols, vals, wraps + 1, lo + 1) for rows, cols, vals, wraps, lo in fib.entries
        ])

    def test_dropped_seam_row_is_caught(self, monkeypatch):
        self.assert_caught(monkeypatch, lambda fib: [
            (rows[keep], cols[keep], vals[keep], wraps[keep], lo)
            for rows, cols, vals, wraps, lo in fib.entries
            for keep in [rows != fib.L - 1]
        ])


# sigma of the dense blend and of the closed form agree to a few ulps of the
# coefficient bound (one here): the blend's rounding is, band by band, a
# weighted partial permutation of entries each off by a few ulps of the band
_BLEND_ROUNDOFF = 16 * np.finfo(float).eps


def blend_sigma(b, cycle, s: int, lams: np.ndarray) -> np.ndarray:
    """sigma of the dense blend at each lam, 256 points at a time."""
    return np.concatenate([_sigma_exact(dense_blend(b, cycle, s, lams[lo : lo + 256]))
                           for lo in range(0, len(lams), 256)])


@st.composite
def closed_corner_cases(draw):
    """(b, quotient side) on one cycle of 1-64 points, with complex
    coefficients of radius 0-3 scaled to coefficient bound one and eps one of
    1/2, 3/10 and 2; the cycle is at least as long as the radius, so no
    entry wraps more than once."""
    radius = draw(st.integers(0, 3))
    L = draw(st.one_of(st.integers(max(1, radius), 6), st.integers(7, 64)))
    eps = draw(st.sampled_from(["1/2", "3/10", "2"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys = make_cycle_system([L])
    b = CrossedElement(sys, {i: rng.standard_normal(L) + 1j * rng.standard_normal(L)
                             for i in range(-radius, radius + 1)})
    b = (1.0 / b.coefficient_bound()) * b
    return b, quotient_approx(invariant_split(sys, L), [b], eps, sys)


def check_closed_form(b, q, tol=1e-3):
    """The closed form of the corners assemble_and_verify closes at tol,
    against the dense blend: value is the blend's sigma at the reported arc
    midpoint, the blend's maximum over 4096 grid points and every arc
    midpoint stays below upper, and upper - value <= tol."""
    cyc = q.cycles[0]
    s = q.node_count[cyc.base]
    corners = q.corner_fibers(b)
    closed = [fib for fib in corners if fib.slack <= tol]
    res = corner_norm(q.sys, closed)
    assert res.upper - res.value <= tol
    if len(closed) < len(corners):  # measured on the grid instead
        return res
    if res.argmax is not None:
        lam = res.argmax[1]
        odd = np.angle(lam) * s / np.pi % (2 * s)
        assert abs(odd - round(odd)) < 1e-9 and round(odd) % 2 == 1, "not an arc midpoint"
        assert abs(blend_sigma(b, cyc, s, np.array([lam]))[0] - res.value) <= _BLEND_ROUNDOFF
    mids = np.exp(1j * np.pi * (2 * np.arange(s) + 1) / s)
    assert blend_sigma(b, cyc, s, np.concatenate([_grid(4096), mids])).max() <= res.upper + _BLEND_ROUNDOFF
    return res


class TestClosedCorner:
    """corner_norm against the dense interp(sample(b)) - b blend."""

    @settings(max_examples=20, deadline=None)
    @given(closed_corner_cases())
    def test_brackets_the_dense_blend(self, case):
        check_closed_form(*case)

    def test_positive_bands_close_exactly(self):
        # W- = 0: sigma is |g| sigma(W+), so upper is value
        sys = make_cycle_system([3, 7])
        q = quotient_approx(invariant_split(sys, 7), [unit(sys)], "3/10", sys)
        res = corner_norm(sys, q.corner_fibers(unit(sys)))
        assert res.value == res.upper == 2 * math.sin(math.pi / 128) ** 2
        assert set(res.solvers.values()) == {"closed"} and set(res.grids.values()) == {1}

    def test_half_turn_on_a_200_cycle_is_fast(self):
        # u^100 on a 200-cycle at eps = 3/2: a 200 x 200 corner whose
        # 8192-point grid took 53.7 s; W+ is a partial permutation, so the sup
        # is the sagitta
        sys = make_cycle_system([200])
        b = unit(sys, 100)
        start = time.perf_counter()
        run = run_approximation(sys, [b], "3/2")
        assert time.perf_counter() - start < 1.0
        s = run.quotient.node_count[sys.orbits().cycles[0].base]
        (corner,) = run.quotient.corner_fibers(b)
        assert corner.L == 200 and not corner.phased
        assert run.factorization.quotient_corner.measured == pytest.approx(
            (2 * math.sin(math.pi / (2 * s)) ** 2,), rel=4 * np.finfo(float).eps)

    def test_long_power_takes_the_grid(self):
        # u^5 on a 3-cycle wraps twice: no closed form
        sys = make_cycle_system([3])
        q = quotient_approx(invariant_split(sys, 3), [unit(sys, 5)], "3/2", sys)
        (corner,) = q.corner_fibers(unit(sys, 5))
        assert corner.wrapped is None and corner.slack == math.inf

    def test_disjoint_seam_rows_need_one_phase(self):
        # 2r <= L: W+ holds the last r rows, W- the first r, so sigma does not
        # depend on the phase and the bound is exact
        sys = make_cycle_system([9])
        rng = np.random.default_rng(41)
        b = CrossedElement(sys, {i: rng.standard_normal(9) + 1j * rng.standard_normal(9) for i in (-2, -1, 0, 1, 2)})
        b = (1.0 / b.coefficient_bound()) * b
        q = quotient_approx(invariant_split(sys, 9), [b], "1/2", sys)
        (corner,) = q.corner_fibers(b)
        assert corner.wrapped[0].any() and corner.wrapped[1].any() and not corner.phased
        res = check_closed_form(b, q)
        assert res.value == res.upper > 0 and res.grids == {"c0p0": 1}

    def mutation_case(self):
        """Radius 3 on a 4-cycle: the seam rows of W+ and W- overlap, so
        sigma(W+ + phi W-) depends on the phase."""
        sys = make_cycle_system([4])
        rng = np.random.default_rng(41)
        b = CrossedElement(sys, {i: rng.standard_normal(4) + 1j * rng.standard_normal(4) for i in range(-3, 4)})
        b = (1.0 / b.coefficient_bound()) * b
        return b, quotient_approx(invariant_split(sys, 4), [b], "1/2", sys)

    def test_many_phases_take_the_grid(self):
        # past _CLOSED_MAX_PHASES a phased corner goes to its grid, whose
        # size does not grow with s
        b, _ = self.mutation_case()
        q = quotient_approx(invariant_split(b.sys, 4), [b], "1/2000", b.sys)
        (corner,) = q.corner_fibers(b)
        assert corner.phased and corner.s // 2 > cstar._CLOSED_MAX_PHASES and corner.slack == math.inf
        p = derive_params([b], "1/2000", b.sys)
        rep = assemble_and_verify(p, q, None, quasicentral_unit(b.sys, p.split, [b]), 1e-3).quotient_corner
        assert rep.measured == (fiber_sup_norm(b.sys, [corner], 1e-3).value,)

    def test_unmutated_case_passes(self):
        b, q = self.mutation_case()
        (corner,) = q.corner_fibers(b)
        assert corner.phased
        res = check_closed_form(b, q)
        assert 0 < res.tol <= 1e-3 and res.value > 0 and res.grids == {"c0p0": q.node_count[0] // 2}

    def test_short_sagitta_is_caught(self, monkeypatch):
        sagitta = cstar._sagitta
        monkeypatch.setattr(cstar, "_sagitta", lambda s: sagitta(s) * (1 - 1e-6))
        with pytest.raises(AssertionError):
            check_closed_form(*self.mutation_case())

    def test_swapped_wrap_sides_are_caught(self, monkeypatch):
        original = CornerFiber.__init__

        def swapped(fib, *args):
            original(fib, *args)
            fib.wrapped = fib.wrapped[::-1].copy()

        monkeypatch.setattr(CornerFiber, "__init__", swapped)
        with pytest.raises(AssertionError):
            check_closed_form(*self.mutation_case())

    def test_phases_off_by_half_a_step_are_caught(self, monkeypatch):
        midpoints = cstar._arc_midpoints

        def moved(s, count):
            mid, phases = midpoints(s, count)
            return mid, phases * np.exp(2j * np.pi / s)

        monkeypatch.setattr(cstar, "_arc_midpoints", moved)
        with pytest.raises(AssertionError):
            check_closed_form(*self.mutation_case())


def best_time(fn, repeats=3) -> float:
    """Fastest of a few calls, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestShortCyclesBelowN:
    """Short cycles of any length below N = 1201 (eps = 3/10, k = 1): the
    quotient side keeps node counts only, so a 1200-cycle (25,134 nodes)
    costs what a 7-cycle does."""

    @pytest.mark.parametrize("L", [200, 1200])
    def test_every_claim_passes_within_twice_the_acceptance_pass(self, L):
        sys = make_cycle_system([3, 7, L, 1500])
        u = unit(sys)
        run = run_approximation(sys, [u], "3/10")
        assert run.passed() and L in {c.length for c in run.quotient.cycles}
        acceptance = Path(__file__).resolve().parent.parent / "scenarios" / "approx_acceptance.json"
        limit = 2 * best_time(lambda: run_scenario(acceptance))
        assert best_time(lambda: run_approximation(sys, [u], "3/10")) < limit

    def test_peak_does_not_grow_with_the_cycle(self):
        # what grows is per point of the system (coefficients, the cutoff),
        # at most 128 bytes for each of the 1000 added points; one 1200 x 1200
        # complex matrix would be 23 MB
        peaks = []
        for L in (200, 1200):
            sys = make_cycle_system([3, 7, L, 1500])
            run_approximation(sys, [unit(sys)], "3/10")  # fills the orbit cache
            peaks.append(traced_peak(lambda: run_approximation(sys, [unit(sys)], "3/10")))
        assert peaks[1] - peaks[0] <= 128 * 1000, peaks


def small_run(eps="3/2", lengths=(3, 60), with_bump=True):
    sys = make_cycle_system(list(lengths), d=0)
    F = [unit(sys)]
    if with_bump:
        long_len = max(lengths)
        F += [bump(sys, long_len), bump(sys, long_len) * unit(sys)]
    return sys, F, run_approximation(sys, F, eps, norm_tol=1e-3)


@pytest.fixture(scope="module")
def shared_run():
    return small_run()


class TestIdealSide:
    @pytest.fixture(autouse=True)
    def _attach(self, shared_run):
        self.sys, self.F, self.run = shared_run
        self.ideal = self.run.ideal

    def test_compression_matches_regular_representation(self):
        # independent oracle: build the windowed compression directly on the
        # shift representation over the long cycle's base point
        sys = self.sys
        ideal = self.ideal
        m = ideal.params.m
        cyc = [c for c in sys.orbits().cycles if c.length == 60][0]
        f = bump(sys, 60)
        b = f * unit(sys)  # one band, i = 1
        assert ideal.family.K[cyc.base]
        for l in range(ideal.levels):
            blocks = ideal_blocks(ideal, l, b)
            assert blocks.any()
            for s, x in enumerate(ideal_anchors(ideal, l).tolist()):
                for j in range(-m, m + 1):
                    # expected row j over anchor x: only slot (j, j-1) is set,
                    # to sqrt(mu_j)(a_j x) f(a_j x) sqrt(mu_{j-1})(a_{j-1} x)
                    expected = np.zeros(2 * m + 1, dtype=np.complex128)
                    if j - 1 >= -m:
                        aj = int(sys.power_perm(j)[x])
                        aji = int(sys.power_perm(j - 1)[x])
                        mu_j = ideal.family.mu_array(l, j)[aj]
                        mu_ji = ideal.family.mu_array(l, j - 1)[aji]
                        fval = f.coefficient(0)[aj]
                        expected[j - 1 + m] = math.sqrt(mu_j) * fval * math.sqrt(mu_ji)
                    assert np.abs(blocks[s, j + m] - expected).max() < 1e-12

    def test_return_map_is_homomorphism(self):
        # random windowed matrix units f (x) E_{j j'} with random functions f
        # on the support; the product is taken anchor by anchor
        ideal = self.ideal
        m = ideal.params.m
        rng = np.random.default_rng(3)
        nonvanishing = 0
        for _ in range(20):
            l = int(rng.integers(ideal.levels))
            i1, j1, i2, j2 = (int(v) + m for v in rng.integers(-m, m + 1, size=4))
            if rng.random() < 0.5:
                i2 = j1  # exercise the nonvanishing branch half the time
            nonvanishing += i2 == j1
            x, y = (np.zeros((len(ideal_anchors(ideal, l)), 2 * m + 1, 2 * m + 1), dtype=np.complex128)
                    for _ in range(2))
            x[:, i1, j1] = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
            y[:, i2, j2] = rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
            lhs = ideal_return(ideal, l, x) * ideal_return(ideal, l, y)
            assert (lhs - ideal_return(ideal, l, x @ y)).coefficient_bound() < 1e-10
            adj = ideal_return(ideal, l, x.conj().transpose(0, 2, 1))
            assert (ideal_return(ideal, l, x).adjoint() - adj).coefficient_bound() < 1e-10
        assert nonvanishing

    def test_single_level_composite_telescopes(self):
        # (return o summing) of f u^i collapses to a weighted copy of f u^i,
        # with weight sum_j sqrt(mu_j) (sqrt(mu_{j-i}) o alpha_{-i})
        sys = self.sys
        ideal = self.ideal
        fam = ideal.family
        b = bump(sys, 60) * unit(sys)
        for l in range(ideal.levels):
            out = ideal_return(ideal, l, ideal_blocks(ideal, l, b))
            assert out.support in ((), (1,))
            weight = np.zeros(sys.n)
            for j in range(-ideal.params.m, ideal.params.m + 1):
                left = np.sqrt(fam.mu_array(l, j))
                right = np.sqrt(fam.mu_array(l, j - 1))[sys.power_perm(-1)]
                weight += left * right
            expected = weight * b.coefficient(1)
            assert np.abs(out.coefficient(1) - expected).max() < 1e-12

    def test_composite_is_return_of_summing(self):
        # composite works from tower coordinates; the array view, returned
        # through alpha_j of each anchor and summed over levels, is its
        # reference, bit for bit, on a random element with bands inside and
        # outside the window
        sys, ideal = self.sys, self.ideal
        rng = np.random.default_rng(6)
        powers = (-2 * ideal.params.m - 1, -3, -1, 0, 1, 2, 2 * ideal.params.m)
        b = CrossedElement(sys, {i: rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n) for i in powers})
        for a in (b, *self.F):
            ref = CrossedElement.zero(sys)
            for l in range(ideal.levels):
                ref = ref + ideal_return(ideal, l, ideal_blocks(ideal, l, a))
            out = ideal.composite(a)
            assert out.support == ref.support and ref.support
            assert all(np.array_equal(out.coefficient(i), ref.coefficient(i)) for i in ref.support)

    def test_diagonal_units_return_functions(self):
        # f (x) E_{ii} with f on the support returns a power-zero element
        ideal = self.ideal
        sys = self.sys
        m = ideal.params.m
        sup = ideal_anchors(ideal, 0).tolist()
        blocks = np.zeros((len(sup), 2 * m + 1, 2 * m + 1), dtype=np.complex128)
        blocks[:, 3 + m, 3 + m] = 1.0
        out = ideal_return(ideal, 0, blocks)
        assert out.support == (0,)
        back = sys.power_perm(3)
        assert all(out.coefficient(0)[int(back[x])] == 1.0 for x in sup)
        assert np.count_nonzero(out.coefficient(0)) == len(sup)

    def test_offdiagonal_disjoint_products_vanish(self):
        ideal = self.ideal
        m = ideal.params.m
        units = np.zeros((2, len(ideal_anchors(ideal, 0)), 2 * m + 1, 2 * m + 1), dtype=np.complex128)
        units[0][:, 0 + m, 1 + m] = 1.0
        units[1][:, 2 + m, 3 + m] = 1.0  # 1 != 2: supports disjoint
        x, y = (ideal_return(ideal, 0, u) for u in units)
        assert not x.is_zero() and not y.is_zero()
        assert (x * y).coefficient_bound() < 1e-15

    def test_summing_positive_and_contractive(self):
        # F[2] (bump * u) and seeded random elements with bands inside and
        # outside the window, scaled to coefficient bound one
        sys, ideal = self.sys, self.ideal
        powers = (-2 * ideal.params.m - 1, -3, -1, 0, 1, 2, 2 * ideal.params.m)
        elements = {"F[2]": self.F[2]}
        for seed in (4, 5, 6):
            rng = np.random.default_rng(seed)
            b = CrossedElement(sys, {i: rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n) for i in powers})
            elements[f"seed {seed}"] = (1.0 / b.coefficient_bound()) * b
        for name, b in elements.items():
            bound = norm(b, 1e-3).upper + 1e-9
            for l in range(ideal.levels):
                gram = ideal_blocks(ideal, l, b.adjoint() * b)
                assert np.abs(gram - gram.conj().transpose(0, 2, 1)).max() <= 1e-12, (name, l)
                assert np.linalg.eigvalsh(gram).min() >= -1e-10, (name, l)
                blocks = ideal_blocks(ideal, l, b)
                assert blocks.any(), (name, l)
                assert np.linalg.svd(blocks, compute_uv=False)[:, 0].max() <= bound, (name, l)

    def test_sqrt_step_strict(self):
        info = self.run.factorization.sqrt_step
        assert info["sqrt_step"] == self.ideal.sqrt_step_sup()
        assert info["strict"]
        assert info["sqrt_step"] < info["sqrt_step_bound"]

    def test_family_off_the_support_of_e_rejected(self):
        params, e = self.run.params, self.run.equnit.e
        part = np.flatnonzero(params.split.long)[:30]
        other = build_tower_family(self.sys, params.d, params.k, params.m, params.eps_prime, part)
        with pytest.raises(ApproxError, match=r"^tower family was not built on the support of e$"):
            ideal_approx(params, other, e)
        # e supported inside the family's K is accepted
        inside = np.zeros_like(e)
        inside[part] = e[part]
        assert ideal_approx(params, other, inside).family is other

    def test_family_parameter_mismatch_rejected(self):
        other = build_tower_family(self.sys, 0, 1, 14, "1/4", np.flatnonzero(self.run.params.split.long))
        with pytest.raises(ApproxError, match="does not match"):
            ideal_approx(self.run.params, other, self.run.equnit.e)


class TestClaimsAndAssembly:
    def test_small_run_bounds(self, shared_run):
        sys, F, run = shared_run
        fz = run.factorization
        assert fz.quotient_corner.passed
        assert fz.ideal_corner.passed
        assert fz.final.passed
        assert fz.sqrt_step["strict"]
        assert run.passed()

    def test_final_collects_both_sides(self, shared_run):
        sys, F, run = shared_run
        fz = run.factorization
        assert fz.final.max_measured <= float((3 * 0 + 7) * run.params.eps) + 1e-3
        assert fz.summands_actual == 5
        assert fz.summands_declared == 5

    def test_elements_off_support_contribute_nothing(self):
        # an element supported on the short part has zero ideal-corner error
        sys = make_cycle_system([3, 60])
        short = [c for c in sys.orbits().cycles if c.length == 3][0]
        f = CrossedElement.indicator(sys, short.order)
        run = run_approximation(sys, [f, unit(sys)], "3/2")
        ideal = run.ideal
        corner = f.compressed(run.equnit.sqrt())
        assert corner.is_zero()
        assert ideal.composite(corner).is_zero()

    def test_quotient_supported_family_meets_raw_budget(self):
        # with the central cutoff and F supported on the short part, the
        # quotient corner error is the hat-interpolation error alone (<= eps)
        sys = make_cycle_system([3, 60])
        short = [c for c in sys.orbits().cycles if c.length == 3][0]
        f = CrossedElement.indicator(sys, short.order)
        fu = f * unit(sys)
        run = run_approximation(sys, [f, fu], "3/2", norm_tol=1e-3)
        eps = float(run.params.eps)
        assert run.factorization.quotient_corner.max_measured <= eps
        assert run.factorization.ideal_corner.max_measured <= 1e-12

    def test_zero_element_contributes_nothing(self):
        sys = make_cycle_system([3, 60])
        zero = CrossedElement.zero(sys)
        run = run_approximation(sys, [zero, unit(sys)], "3/2")
        fz = run.factorization
        assert fz.final.measured[0] <= 1e-12
        assert fz.quotient_corner.measured[0] == 0.0
        assert fz.passed()

    def test_quotient_only_path(self):
        sys = make_cycle_system([3, 5])
        run = run_approximation(sys, [unit(sys)], "1/2")
        assert run.ideal is None
        fz = run.factorization
        assert fz.ideal_corner is None
        assert fz.final.passed
        assert fz.summands_actual == 2

    def test_ramped_e_still_meets_final_bound(self):
        sys = make_cycle_system([3, 60])
        cyc = [c for c in sys.orbits().cycles if c.length == 60][0]
        e = np.zeros(sys.n)
        for pos, x in enumerate(cyc.order):
            e[x] = min(1.0, 2.0 * min(pos, 60 - pos) / 30.0)
        run = run_approximation(sys, [unit(sys)], "3/2", e_values=e)
        assert run.factorization.final.passed
        assert run.factorization.quotient_corner.passed


class TestLedger:
    @pytest.mark.parametrize("d", range(7))
    def test_identities(self, d):
        led = make_ledger(d)
        assert led.quotient_colors_declared + led.ideal_term_declared == 2 * d * d + 6 * d + 5
        assert led.total_declared == led.closed_form_bound + 1
        assert led.ideal_term_declared == (d + 1) * (2 * d + 3)
        assert led.ideal_term_actual == 2 * d + 3
        assert led.additive_bound == 3 * d + 4
        assert led.identities_hold()

    def test_headline_values(self):
        assert make_ledger(0).closed_form_bound == 4
        assert make_ledger(0).total_declared == 5
        assert make_ledger(1).closed_form_bound == 12
        assert make_ledger(1).total_declared == 13
        assert make_ledger(2).closed_form_bound == 24
        assert make_ledger(2).total_declared == 25

    def test_summand_count_formula(self):
        for d in range(4):
            assert (d + 2) + (2 * d + 3) == 3 * d + 5


def claims_from_scratch(run, norm_tol):
    """The three claims measured field by field from scratch: the quotient
    corner against (1-e)^{1/2} b (1-e)^{1/2} on every orbit, the ideal corner
    as a whole-element norm, and the final defect against b itself."""
    params, quotient, ideal, equnit = run.params, run.quotient, run.ideal, run.equnit
    sys = params.sys
    long_cycles = [c for c in sys.orbits().cycles if params.split.long[c.base]]

    def short_fields(b, target):
        return dense_quotient_fibers(quotient, b, target)

    def long_fields(a):
        return [f for f in (ElementOrbitFiber(a, c) for c in long_cycles) if f.bands]

    def sup(fibers):
        return fiber_sup_norm(sys, fibers, norm_tol).value if fibers else 0.0

    q, i, f = [], [], []
    for b in params.F:
        target = b.compressed(equnit.cosqrt())
        q.append(sup(short_fields(b, target) + long_fields(target)))
        corner = b.compressed(equnit.sqrt())
        i.append(norm(ideal.composite(corner) - corner, norm_tol).value)
        f.append(sup(short_fields(b, b) + long_fields(ideal.composite(corner) - b)))
    return tuple(q), tuple(i), tuple(f)


def cutoff(sys, kind):
    """Cutoff functions on the long cycles of a (3, 60, 60) system."""
    if kind == "default":
        return None
    first = [c for c in sys.orbits().cycles if c.length == 60][0]
    e = np.zeros(sys.n)
    for pos, x in enumerate(first.order):
        if kind == "ramped":
            e[x] = min(1.0, 2.0 * min(pos, 60 - pos) / 30.0)
        elif kind == "half":  # a projection, but not invariant
            e[x] = 1.0 if pos < 30 else 0.0
        elif kind == "one-cycle":  # central, zero on the second long cycle
            e[x] = 1.0
    return e


class TestMeasureOnce:
    def test_each_element_sampled_and_composed_once(self, monkeypatch):
        calls = {"corner_fibers": 0, "composite": 0}
        for cls, name in ((QuotientSide, "corner_fibers"), (IdealSide, "composite")):
            original = getattr(cls, name)

            def counted(self, b, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, b)

            monkeypatch.setattr(cls, name, counted)
        sys, F, run = small_run()
        assert run.ideal is not None and run.quotient.cycles
        assert calls == {"corner_fibers": len(F), "composite": len(F)}

    @pytest.mark.parametrize("kind", ["default", "ramped", "half", "one-cycle"])
    def test_claims_equal_independent_measurements(self, kind):
        sys = make_cycle_system([3, 60, 60], d=0)
        F = [unit(sys), bump(sys, 3), bump(sys, 60) * unit(sys)]
        e = cutoff(sys, kind)
        run = run_approximation(sys, F, "3/2", e_values=e, norm_tol=1e-3)
        assert run.equnit.is_central_projection == (kind in ("default", "one-cycle"))
        fz = run.factorization
        q, i, f = claims_from_scratch(run, 1e-3)
        # the short-cycle corners close in closed form, which reads the same
        # sup as the dense grid up to the blend's rounding
        assert fz.quotient_corner.measured == pytest.approx(q, rel=0, abs=_BLEND_ROUNDOFF)
        assert fz.ideal_corner.measured == i
        assert fz.final.measured == pytest.approx(f, rel=0, abs=_BLEND_ROUNDOFF)
