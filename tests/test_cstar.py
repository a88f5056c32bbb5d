import functools
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rokhlin import cstar
from rokhlin.cli import run_scenario
from rokhlin.cstar import (
    CrossedElement,
    ElementOrbitFiber,
    HostMismatchError,
    _EMBED_CHUNK_BYTES,
    _band_adjoint,
    _band_product,
    _grid,
    _quiet_cut,
    _ritz_estimate,
    _seam_rows,
    _sigma_max_lanczos,
    _sturm_above,
    _top_ritz,
    holonomy,
    norm,
    periodic_embedding,
    primitive_spectrum,
)
from rokhlin.dynsys import load_system, make_cycle_system

from dense_reference import (
    InterpolationFiber,
    dense_fiber_sigma,
    dense_holonomy,
    element_matrices,
    lanczos_reference,
    lanczos_sweep,
    orbit_isomorphism,
    orbit_rep,
    orbit_rep_with_phases,
    regular_window_norm,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def random_element(sys, radius, rng, scale=1.0):
    return CrossedElement(
        sys,
        {
            i: scale * (rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n))
            for i in range(-radius, radius + 1)
        },
    )


class TestAlgebra:
    def test_two_cycle_product_vanishes(self):
        sys = make_cycle_system([2])
        fu = CrossedElement.indicator(sys, {0}, power=1)
        gu = CrossedElement.indicator(sys, {0}, power=1)
        assert (fu * gu).is_zero()

    def test_moved_coefficient_convention(self):
        # u g u* = g o forward^{-1}
        sys = make_cycle_system([3])
        u = CrossedElement.unitary(sys)
        g = CrossedElement.from_function(sys, [1.0, 2.0, 3.0])
        moved = u * g * u.adjoint()
        expected = np.array([1.0, 2.0, 3.0])[sys.power_perm(-1)]
        assert np.allclose(moved.coefficient(0), expected)
        assert moved.support == (0,)

    def test_identity(self):
        sys = make_cycle_system([4])
        one = CrossedElement.from_function(sys, np.ones(4))
        rng = np.random.default_rng(0)
        a = random_element(sys, 2, rng)
        assert ((a * one) - a).is_zero()
        assert ((one * a) - a).is_zero()

    def test_unitary_relation(self):
        sys = make_cycle_system([5])
        u = CrossedElement.unitary(sys)
        one = CrossedElement.from_function(sys, np.ones(5))
        assert (u * u.adjoint() - one).is_zero()
        assert (u.adjoint() * u - one).is_zero()

    def test_adjoint_involution_and_antihomomorphism(self):
        sys = make_cycle_system([6, 3])
        rng = np.random.default_rng(1)
        a, b = random_element(sys, 3, rng), random_element(sys, 3, rng)
        assert (a.adjoint().adjoint() - a).coefficient_bound() < 1e-12
        lhs = (a * b).adjoint()
        rhs = b.adjoint() * a.adjoint()
        assert (lhs - rhs).coefficient_bound() < 1e-10

    def test_expectation(self):
        sys = make_cycle_system([4])
        f = CrossedElement.indicator(sys, {1}, power=1)
        assert np.allclose(f.expectation(), 0)
        g = CrossedElement.from_function(sys, [1, 2, 3, 4])
        assert np.allclose(g.expectation(), [1, 2, 3, 4])

    def test_expectation_recovers_coefficients(self):
        sys = make_cycle_system([5])
        rng = np.random.default_rng(2)
        b = random_element(sys, 3, rng)
        u = CrossedElement.unitary(sys)
        for j in b.support:
            recovered = (b * CrossedElement.unitary(sys, power=-j)).expectation()
            assert np.allclose(recovered, b.coefficient(j), atol=1e-12)

    def test_expectation_faithful_on_positives(self):
        sys = make_cycle_system([4])
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_element(sys, 2, rng)
            diag = (a.adjoint() * a).expectation()
            if np.abs(diag).max() < 1e-14:
                assert a.coefficient_bound() < 1e-7

    def test_host_mismatch(self):
        a = CrossedElement.unitary(make_cycle_system([3]))
        b = CrossedElement.unitary(make_cycle_system([3]))
        with pytest.raises(HostMismatchError):
            _ = a * b


class TestOrbitRep:
    def test_representation_property_random(self):
        sys = make_cycle_system([12])
        cyc = sys.orbits().cycles[0]
        rng = np.random.default_rng(4)
        for _ in range(4):
            a = random_element(sys, 4, rng)
            b = random_element(sys, 4, rng)
            for lam in np.exp(2j * np.pi * rng.random(16)):
                rep = orbit_rep(sys, cyc, lam)
                prod = np.abs(rep.matrix(a * b) - rep.matrix(a) @ rep.matrix(b)).max()
                adj = np.abs(rep.matrix(a.adjoint()) - rep.matrix(a).conj().T).max()
                assert prod < 1e-10 and adj < 1e-12

    def test_unit_is_identity(self):
        sys = make_cycle_system([7])
        rep = orbit_rep(sys, sys.orbits().cycles[0], 1j)
        one = CrossedElement.from_function(sys, np.ones(7))
        assert np.allclose(rep.matrix(one), np.eye(7))

    def test_u_power_is_scalar(self):
        sys = make_cycle_system([6])
        lam = np.exp(0.37j)
        rep = orbit_rep(sys, sys.orbits().cycles[0], lam)
        power = np.linalg.matrix_power(rep.u_matrix, 6)
        assert np.abs(power - lam * np.eye(6)).max() < 1e-12

    def test_covariance(self):
        sys = make_cycle_system([2])
        rng = np.random.default_rng(5)
        f = rng.standard_normal(2)
        for lam in np.exp(2j * np.pi * rng.random(6)):
            rep = orbit_rep(sys, sys.orbits().cycles[0], lam)
            assert rep.covariance_residual(f) < 1e-12

    def test_off_circle_rejected(self):
        sys = make_cycle_system([3])
        with pytest.raises(ValueError, match="unit circle"):
            orbit_rep(sys, sys.orbits().cycles[0], 1.5)


class TestNorm:
    def test_unitary_norm_one(self):
        sys = make_cycle_system([2, 5])
        res = norm(CrossedElement.unitary(sys), 1e-3)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_indicator_norm_one(self):
        sys = make_cycle_system([4])
        res = norm(CrossedElement.indicator(sys, {0}), 1e-3)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_two(self):
        # pi_lam(1 + u) = 1 + lam on a fixed point; sup over the circle is 2
        sys = make_cycle_system([1])
        f = CrossedElement.from_function(sys, [1.0])
        b = f + f * CrossedElement.unitary(sys)
        res = norm(b, 1e-4)
        # independent scalar oracle on a fine circle sample
        thetas = np.linspace(0, 2 * np.pi, 100001)
        oracle = np.abs(1 + np.exp(1j * thetas)).max()
        assert abs(res.value - oracle) <= 1e-4 + 1e-9
        assert res.upper >= oracle - 1e-9

    def test_zero_element(self):
        sys = make_cycle_system([3])
        assert norm(CrossedElement.zero(sys), 1e-3).value == 0.0

    def test_cstar_identity_sampled(self):
        sys = make_cycle_system([6])
        rng = np.random.default_rng(6)
        tol = 1e-3
        for _ in range(5):
            a = random_element(sys, 2, rng, scale=0.4)
            na = norm(a, tol).value
            naa = norm(a.adjoint() * a, tol).value
            assert abs(naa - na * na) <= 3 * tol * max(na, 1.0) + 1e-9

    def test_norm_dominates_fibers(self):
        sys = make_cycle_system([5, 8])
        rng = np.random.default_rng(7)
        a = random_element(sys, 2, rng, scale=0.3)
        res = norm(a, 1e-3)
        for cyc in sys.orbits().cycles:
            for lam in np.exp(2j * np.pi * rng.random(8)):
                fiber = orbit_rep(sys, cyc, lam).matrix(a)
                assert np.linalg.norm(fiber, 2) <= res.upper + 1e-9

    def test_expectation_contractive(self):
        sys = make_cycle_system([4, 9])
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = random_element(sys, 2, rng, scale=0.5)
            res = norm(a, 1e-3)
            assert np.abs(a.expectation()).max() <= res.upper + 1e-9

    def test_solvers_name_each_orbit(self):
        # u + u^2 takes Lanczos on the 3- and 10-cycles as on a 48-cycle;
        # norm_unitary's u has one band and is read as max|f| on every
        # cycle; the report leaves the solvers out
        sys = load_system((SCENARIOS / "system_3_10.json").read_text())
        labels = [sys.labels[c.base] for c in sys.orbits().cycles]
        u = CrossedElement.unitary(sys)
        assert norm(u + u * u, 1e-3).solvers == dict.fromkeys(labels, "lanczos")
        assert norm(u, 1e-3).solvers == dict.fromkeys(labels, "band")
        assert "solvers" not in json.dumps(run_scenario(SCENARIOS / "norm_unitary.json"))
        sys = make_cycle_system([48])
        u = CrossedElement.unitary(sys)
        assert norm(u + u * u, 1e-3).solvers == {sys.labels[0]: "lanczos"}
        assert norm(u, 1e-3).solvers == {sys.labels[0]: "band"}

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_one_band_with_a_non_finite_coefficient_is_refused(self, bad):
        sys = make_cycle_system([3, 10])
        f = np.ones(sys.n)
        f[4] = bad
        with pytest.raises(ValueError, match="is not finite"):
            norm(CrossedElement.from_function(sys, f, power=1), 1e-3)

    def test_grid_sizes_are_powers_of_two(self):
        sys = make_cycle_system([4])
        rng = np.random.default_rng(9)
        res = norm(random_element(sys, 3, rng), 1e-2)
        for g in res.grids.values():
            assert g & (g - 1) == 0


def circle_max(coeffs: dict[int, complex]) -> float:
    """max over |z| = 1 of |sum_i c_i z^i|: every local maximum of a fine
    grid, polished by Newton steps on d|p|^2/dtheta."""
    powers = np.array(sorted(coeffs), dtype=float)
    c = np.array([coeffs[i] for i in sorted(coeffs)], dtype=np.complex128)
    theta = 2 * np.pi * np.arange(2**14) / 2**14
    vals = np.abs(np.exp(1j * np.outer(theta, powers)) @ c)
    best = float(vals.max())
    for t in theta[(vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))]:
        for _ in range(40):
            e = np.exp(1j * t * powers)
            p, dp, d2p = c @ e, (1j * powers * c) @ e, (-powers * powers * c) @ e
            grad = 2 * (np.conj(p) * dp).real
            curv = 2 * (abs(dp) ** 2 + (np.conj(p) * d2p).real)
            if not curv < 0 or grad == 0:
                break
            t -= grad / curv
        best = max(best, float(abs(c @ np.exp(1j * t * powers))))
    return best


@st.composite
def constant_bands(draw, lengths):
    """A constant-band element sum_i c_i u^i of radius 0-3 with complex
    coefficients, scaled to coefficient bound one, on one cycle."""
    L = draw(lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = draw(st.integers(0, 3))
    c = rng.standard_normal(2 * radius + 1) + 1j * rng.standard_normal(2 * radius + 1)
    c /= np.abs(c).sum()
    sys = make_cycle_system([L])
    coeffs = dict(zip(range(-radius, radius + 1), c))
    return CrossedElement(sys, {i: np.full(L, ci) for i, ci in coeffs.items()}), coeffs


class TestConstantBandOracle:
    """A constant-band element's fibers are lam-twisted circulants, and the
    L-th roots of lam cover the circle as lam runs over it, so on every
    cycle ||sum_i c_i u^i|| = max over |z| = 1 of |sum_i c_i z^i|."""

    @staticmethod
    def check(a, coeffs, tol):
        oracle, res = circle_max(coeffs), norm(a, tol)
        scale = sum(abs(ci) for ci in coeffs.values())
        assert res.value <= oracle + 8 * np.spacing(scale), (res.value, oracle)
        assert oracle <= res.upper, (oracle, res.upper)
        return res

    def test_u_plus_half(self):
        for L in (1, 7, 40):
            sys = make_cycle_system([L])
            a = CrossedElement(sys, {0: np.full(L, 0.5), 1: np.ones(L)})
            assert circle_max({0: 0.5, 1: 1.0}) == 1.5
            self.check(a, {0: 0.5, 1: 1.0}, 1e-2)

    @settings(max_examples=15, deadline=None)
    @given(constant_bands(st.integers(1, 32)))
    def test_dense_cycles(self, case):
        # cycles of at most 32 points: c u^i is read as |c|, with no
        # eigensolve, and every other element by Lanczos
        res = self.check(*case, 1e-2)
        assert list(res.solvers.values()) == ["band" if len(case[1]) == 1 else "lanczos"]
        assert res.unconverged == 0

    @settings(max_examples=3, deadline=None)
    @given(constant_bands(st.just(48)))
    def test_lanczos_cycle(self, case):
        res = self.check(*case, 5e-2)
        assert list(res.solvers.values()) == ["band" if len(case[1]) == 1 else "lanczos"]

    @pytest.mark.parametrize("exp", [660, -660])
    # the ids name the two sides of a cycle length that once split a dense
    # eigensolver from Lanczos; both lengths now take Lanczos
    @pytest.mark.parametrize("L", [20, 48], ids=["dense", "lanczos"])
    def test_extreme_scales(self, L, exp):
        # 2^exp (u + 1/2 + (1 - i)/4 u^-2): Gram entries near 2^(2 exp) leave
        # the floats, so the norm solves at scale one; a power of two scales
        # every float exactly, so value, per_orbit and grids are 2^exp times
        # those at scale one, bit for bit
        coeffs = {1: 1.0, 0: 0.5, -2: (1 - 1j) / 4}
        sys = make_cycle_system([L])
        label = sys.labels[0]
        one = norm(CrossedElement(sys, {i: np.full(L, c) for i, c in coeffs.items()}), 1e-2)
        res = norm(CrossedElement(sys, {i: np.full(L, math.ldexp(1.0, exp) * c) for i, c in coeffs.items()}),
                   math.ldexp(1e-2, exp))
        oracle = math.ldexp(circle_max(coeffs), exp)
        assert res.value == math.ldexp(one.value, exp) and res.tol == math.ldexp(1e-2, exp)
        assert res.value <= oracle * (1 + 1e-14) and oracle <= res.upper
        assert res.grids == one.grids and res.argmax == one.argmax
        assert res.per_orbit == {label: (res.value, one.per_orbit[label][1])}
        assert res.solvers == {label: "lanczos"}

    def test_subnormal_entries(self):
        # 2^-1070 (u + 1/2): 2^1070 is not a float, so the scale stops at
        # 2^1022; the fiber at lam = 1 is circulant, with norm 3/2
        sys = make_cycle_system([5])
        a = CrossedElement(sys, {1: np.full(5, math.ldexp(1.0, -1070)), 0: np.full(5, math.ldexp(1.0, -1071))})
        res = norm(a, 1e-3)
        assert res.value == 1.5 * math.ldexp(1.0, -1070) and res.tol == 1e-3

    def test_refusal_at_extreme_scale_quotes_the_callers_numbers(self):
        # 2^300 (u + u^2) is solved as (u + u^2) / 2, but an oversized grid
        # is refused with the bound and tol of the element and tol as given
        sys = make_cycle_system([48])
        big = 2.0**300
        u = CrossedElement.unitary(sys)
        with pytest.raises(ValueError, match="needs a grid of 1073741824 points") as refused:
            norm(big * (u + u * u), big * 1e-8)
        assert f"(Lipschitz bound {2 * big}, tol {big * 1e-8})" in str(refused.value)


@st.composite
def band_values(draw, n):
    """n complex values at one of the scales 1e-150, 1 and 1e150, some of
    them zero (all of them, now and then)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    f = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    f[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0
    return f


class TestOneBand:
    """f u^i has fiber diag(f) S^i(lam) on a cycle, f times a unitary at
    every lam, so its norm there is max|f| over the cycle's slots."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64).flatmap(lambda L: st.tuples(st.just(L), st.integers(-3 * L, 3 * L), band_values(L))))
    def test_value_is_the_largest_entry(self, case):
        L, i, f = case
        sys = make_cycle_system([L])
        a = CrossedElement.from_function(sys, f, power=i)
        res = norm(a, 1e-3)
        top = float(np.abs(f).max())
        assert res.value == top and res.upper == top + 1e-3
        if top == 0:
            assert res.per_orbit == {} and res.grids == {}
            return
        assert res.per_orbit == {sys.labels[0]: (top, 1 + 0j)} and res.grids == {sys.labels[0]: 1}
        assert res.solvers == {sys.labels[0]: "band"} and res.lanczos_steps == 0
        sigma = dense_fiber_sigma(a, sys.orbits().cycles[0], _grid(64))
        assert np.abs(sigma - top).max() <= 4 * np.spacing(top), (sigma.min(), sigma.max(), top)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.integers(2, 48), st.data())
    def test_each_orbit_reads_its_own_slots(self, la, lb, data):
        # cycle A carries f u^i alone; cycle B carries g u^i with every |g|
        # above max|f| and also h u^(i+1), so A is read as max|f| over A's
        # slots, B by a solver whose value reaches max|g|
        i = data.draw(st.integers(-3 * la, 3 * la))
        f = data.draw(band_values(la))
        assume(f.any())
        top = float(np.abs(f).max())
        sys = make_cycle_system([la, lb])
        h = np.zeros(sys.n, dtype=np.complex128)
        v = data.draw(band_values(lb))
        h[la:] = top * v / max(float(np.abs(v).max()), 1.0)
        g = np.concatenate([f, np.full(lb, 2 * top)])
        a = CrossedElement(sys, {i: g, i + 1: h})
        res = norm(a, top / 8)
        (ca, cb) = sys.orbits().cycles
        assert ca.length == la and cb.length == lb
        la_label, lb_label = sys.labels[ca.base], sys.labels[cb.base]
        assert res.per_orbit[la_label] == (top, 1 + 0j) and res.grids[la_label] == 1
        b_solver = "lanczos" if h.any() else "band"
        assert res.solvers == {la_label: "band", lb_label: b_solver}
        assert res.per_orbit[lb_label][0] >= 2 * top * (1 - 1e-12)
        assert res.value == res.per_orbit[lb_label][0] and res.argmax[0] == lb_label


class TestOrbitIsomorphism:
    def test_unitary_round_trip(self):
        sys = make_cycle_system([12])
        iso = orbit_isomorphism(sys, sys.orbits().cycles[0], 256)
        u = CrossedElement.unitary(sys)
        back = iso.reconstruct(iso.sample(u))
        assert (back - u).coefficient_bound() < 1e-12

    def test_random_round_trip(self):
        sys = make_cycle_system([12])
        cyc = sys.orbits().cycles[0]
        iso = orbit_isomorphism(sys, cyc, 256)
        rng = np.random.default_rng(10)
        a = random_element(sys, 4, rng)
        back = iso.reconstruct(iso.sample(a))
        assert (back - a).coefficient_bound() < 1e-9

    def test_aliasing_flagged(self):
        sys = make_cycle_system([3])
        iso = orbit_isomorphism(sys, sys.orbits().cycles[0], 4)
        a = CrossedElement.unitary(sys, power=8)
        with pytest.raises(ValueError, match="alias"):
            iso.sample(a)

    def test_grid_must_be_power_of_two(self):
        sys = make_cycle_system([3])
        with pytest.raises(ValueError, match="power of two"):
            orbit_isomorphism(sys, sys.orbits().cycles[0], 100)


def _dense(terms):
    """The (..., n, n) matrices of a band form."""
    shape = np.broadcast_shapes(*(w.shape for _, w in terms))
    rows = np.arange(shape[-1])
    out = np.zeros(shape + shape[-1:], dtype=np.complex128)
    for s, w in terms:
        out[..., rows, (rows + s) % shape[-1]] += np.broadcast_to(w, shape)
    return out


class _DenseEmbedding:
    """The dense (points, grid, n, n) embedding the band form replaced: u is
    the (grid, n, n) shift with lam in the corner, u^-i a power of u*, and
    beta(f) the (points, n, n) diagonal; the reference for the band form."""

    def __init__(self, emb):
        self.emb = emb
        idx = np.arange(emb.n)
        self.u = np.zeros((emb.grid, emb.n, emb.n), dtype=np.complex128)
        self.u[:, idx[:-1], idx[1:]] = 1.0
        self.u[:, -1, 0] = emb.lams

    def beta(self, values):
        idx = np.arange(self.emb.n)
        out = np.zeros((self.emb.sys.n, self.emb.n, self.emb.n), dtype=np.complex128)
        out[:, idx, idx] = self.emb._diagonal(values)
        return out

    def power(self, i):
        if i == 0:
            return np.broadcast_to(np.eye(self.emb.n), self.u.shape)
        step = self.u if i > 0 else self.u.conj().transpose(0, 2, 1)
        return np.linalg.matrix_power(step, abs(i))

    def embed(self, a):
        return sum(np.einsum("xab,gbc->xgac", self.beta(f), self.power(i)) for i, f in a.coeffs.items())

    def unitarity_residual(self):
        return float(np.abs(self.u @ self.u.conj().transpose(0, 2, 1) - np.eye(self.emb.n)).max())

    def covariance_residual(self, values):
        rolled = self.beta(np.asarray(values)[self.emb.sys.perm_inv])
        res = np.einsum("gab,xbc,gdc->xgad", self.u, self.beta(values), self.u.conj()) - rolled[:, None]
        return float(np.abs(res).max())

    def expectation_residual(self, a):
        idx = np.arange(self.emb.n)
        averaged = self.embed(a).mean(axis=1)[:, idx, idx]
        return float(np.abs(averaged - self.emb._diagonal(a.expectation())).max())


class TestPeriodicEmbedding:
    def test_identity_map_period_one(self):
        sys = make_cycle_system([1, 1])
        emb = periodic_embedding(sys, 16)
        assert emb.n == 1
        f = np.array([2.0, -1.0])
        assert emb.covariance_residual(f) < 1e-15

    def test_period_two_covariance(self):
        sys = make_cycle_system([2])
        emb = periodic_embedding(sys, 64)
        rng = np.random.default_rng(11)
        for _ in range(5):
            assert emb.covariance_residual(rng.standard_normal(2)) < 1e-12

    def test_unitarity_and_period_lcm(self):
        sys = make_cycle_system([2, 3])
        emb = periodic_embedding(sys, 32)
        assert emb.n == 6
        assert emb.unitarity_residual() < 1e-12

    def test_expectation_commuting_square(self):
        sys = make_cycle_system([2, 3])
        rng = np.random.default_rng(12)
        emb = periodic_embedding(sys, 64)
        for radius in (1, 2, 5):
            a = random_element(sys, radius, rng)
            assert emb.expectation_residual(a) < 1e-9

    @pytest.mark.parametrize("grid", [0, 16.0])
    def test_grid_must_be_a_positive_integer(self, grid):
        with pytest.raises(ValueError, match=f"grid = {grid!r}"):
            periodic_embedding(make_cycle_system([2, 3]), grid)

    def test_matches_einsum_reference(self):
        sys = make_cycle_system([2, 3, 4])
        emb = periodic_embedding(sys, 16)
        dense, rng = _DenseEmbedding(emb), np.random.default_rng(13)
        u = emb.u(emb.lams)
        eps = np.finfo(float).eps

        f = rng.standard_normal(sys.n)
        ubu = _dense(_band_product(_band_product(u, emb.beta(f)), _band_adjoint(u)))
        ref = np.einsum("gab,xbc,gdc->xgad", dense.u, dense.beta(f), dense.u.conj())
        # numpy's complex multiply fuses a multiply-add that einsum rounds
        # twice, so the two products agree to an ulp of the scale
        assert np.abs(ubu - ref).max() <= eps * np.abs(f).max()
        assert abs(emb.covariance_residual(f) - dense.covariance_residual(f)) <= eps * np.abs(f).max()
        assert abs(emb.unitarity_residual() - dense.unitarity_residual()) <= eps
        # real coefficients, as the CLI draws them: bit for bit
        real = CrossedElement(sys, {i: rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)})
        complex_ = random_element(sys, 2, rng)
        for a, tol in ((real, 0.0), (complex_, 1e-15)):
            assert np.abs(_dense(emb.embed(a, emb.lams)) - dense.embed(a)).max() <= tol
        assert emb.expectation_residual(real) == dense.expectation_residual(real)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]), min_size=1, max_size=3),
        st.integers(1, 9),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_band_image_equals_the_dense_image(self, lengths, grid, radius, seed):
        sys = make_cycle_system(lengths)
        emb = periodic_embedding(sys, grid)
        assert emb.n <= 12
        a = random_element(sys, radius, np.random.default_rng(seed))
        terms = emb.embed(a, emb.lams)
        assert len(terms) == 2 * radius + 1
        # powers past n multiply lam in a different order than matrix_power
        scale = max(np.abs(f).max() for f in a.coeffs.values())
        assert np.abs(_dense(terms) - _DenseEmbedding(emb).embed(a)).max() <= 4 * np.finfo(float).eps * scale

    # each mutation of the band form must fail the periodic scenario's
    # unitarity and covariance rows
    def _assert_residuals_fail(self):
        rows = {row["name"]: row for row in run_scenario(SCENARIOS / "periodic_2_3_4.json")["assertions"]}
        for name in ("unitarity_residual", "covariance_residual"):
            assert rows[name]["measured"] > rows[name]["bound"] and not rows[name]["pass"]

    def test_mutated_corner_weight_fails(self, monkeypatch):
        monkeypatch.setattr(cstar.PeriodicEmbedding, "u",
                            lambda emb, lams: [cstar._twist(np.ones(emb.n), 1, lams * (1 + 1e-9))])
        self._assert_residuals_fail()

    def test_mutated_adjoint_without_conj_fails(self, monkeypatch):
        monkeypatch.setattr(cstar, "_band_adjoint",
                            lambda terms: [(-s % w.shape[-1], np.roll(w, s, axis=-1)) for s, w in terms])
        self._assert_residuals_fail()

    def test_mutated_product_roll_direction_fails(self, monkeypatch):
        monkeypatch.setattr(cstar, "_band_product", lambda x, y: [
            ((s + t) % v.shape[-1], v * np.roll(w, s, axis=-1)) for s, v in x for t, w in y
        ])
        self._assert_residuals_fail()

    def test_oversized_embedding_refused_before_allocating(self):
        # 23 copies of cycles 7, 11, 13: period 1001 on 713 points, so one
        # grid point needs more than a whole chunk
        sys = make_cycle_system([7, 11, 13] * 23)
        period = 1001
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                periodic_embedding(sys, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three (points, n) and six (n,) complex arrays per grid point
        point_bytes = 16 * period * (3 * 713 + 6)
        assert point_bytes > _EMBED_CHUNK_BYTES
        assert f"period {period} needs {point_bytes} bytes per grid point on 713 points" in str(err.value)
        assert peak < 2**24

    def test_period_1001_streams_in_chunks(self):
        # refused by the dense embedding, whose image needed 31.8 GB
        sys = make_cycle_system([7, 11, 13])
        emb = periodic_embedding(sys, 64)
        assert emb.n == 1001 and emb.chunk < emb.grid
        rng = np.random.default_rng(5)
        a = CrossedElement(sys, {i: rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)})
        assert emb.unitarity_residual() < 1e-12
        assert emb.covariance_residual(a.coefficient(0).real) < 1e-12
        assert emb.expectation_residual(a) < 1e-9

    @pytest.mark.parametrize("lengths, grid", [([3, 10], 128), ([2, 3, 4], 64)])
    def test_residuals_peak_within_three_images(self, lengths, grid):
        # the dense embedding held up to three (points, grid, n, n) images;
        # the band form holds at most one chunk of (points, n) rows per grid
        # point, whatever the grid
        sys = make_cycle_system(lengths)
        emb = periodic_embedding(sys, grid)
        image = sys.n * grid * emb.n**2 * 16
        rng = np.random.default_rng(5)
        f = rng.standard_normal(sys.n)
        a = CrossedElement(sys, {i: rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)})
        for residual in (lambda: emb.covariance_residual(f), lambda: emb.expectation_residual(a)):
            tracemalloc.start()
            try:
                residual()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= min(3 * image, emb.peak_bytes)

    @pytest.mark.parametrize("lengths, grid", [([1], 4096), ([2], 4096), ([5], 512), ([3, 10], 128)])
    def test_peak_within_the_stated_peak(self, lengths, grid):
        # on few points the (grid, n) arrays are as large as the rows
        sys = make_cycle_system(lengths)
        rng = np.random.default_rng(5)
        a = CrossedElement(sys, {i: rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)})
        tracemalloc.start()
        try:
            emb = periodic_embedding(sys, grid)
            emb.unitarity_residual()
            emb.covariance_residual(a.coefficient(0))
            emb.expectation_residual(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= emb.peak_bytes

    def test_peak_does_not_grow_with_the_grid(self):
        sys = make_cycle_system([7, 11, 13])
        rng = np.random.default_rng(5)
        a = CrossedElement(sys, {i: rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)})
        peaks = []
        for grid in (64, 256):
            emb = periodic_embedding(sys, grid)
            tracemalloc.start()
            try:
                emb.covariance_residual(a.coefficient(0))
                emb.expectation_residual(a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the lam grid itself is 16 bytes a point
        assert peaks[1] <= peaks[0] + 16 * 256 + 2**16
        assert peaks[1] <= emb.peak_bytes < 2**26

    def test_period_beyond_int64_is_exact(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
        period = int(np.prod(primes, dtype=object))
        assert period > 2**63
        with pytest.raises(ValueError, match=f"period {period} needs"):
            periodic_embedding(make_cycle_system(primes), 1)


class TestPrimSpectrum:
    def test_counts(self):
        rep = primitive_spectrum(make_cycle_system([2, 2, 5]))
        assert rep.counts == {2: 2, 5: 1}
        assert rep.max_irreducible_dim == 5
        assert rep.period == 10

    def test_fixed_points_only(self):
        rep = primitive_spectrum(make_cycle_system([1, 1, 1]))
        assert rep.max_irreducible_dim == 1

    def test_dim_at_most_period(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            lengths = [int(rng.integers(1, 7)) for _ in range(rng.integers(1, 4))]
            rep = primitive_spectrum(make_cycle_system(lengths))
            assert rep.max_irreducible_dim <= rep.period


class TestHolonomy:
    """The band-form holonomy against the dense reference: the determinant
    of the L x L u-image and its L-th matrix power."""

    def test_all_ones(self):
        lam, residual = holonomy(np.ones(4))
        assert lam == 1.0 and residual == 0.0
        sys = make_cycle_system([4])
        assert dense_holonomy(orbit_rep(sys, sys.orbits().cycles[0], 1.0)) == pytest.approx(lam)

    def test_three_phases(self):
        phases = [1j, 1.0, -1.0]
        lam, residual = holonomy(phases)
        assert lam == pytest.approx(-1j) and residual < 1e-12
        sys = make_cycle_system([3])
        rep = orbit_rep_with_phases(sys, sys.orbits().cycles[0], phases)
        assert dense_holonomy(rep) == pytest.approx(lam)
        power = np.linalg.matrix_power(rep.u_matrix, 3)
        assert np.abs(power - lam * np.eye(3)).max() < 1e-12

    def test_single_fixed_point(self):
        lam, residual = holonomy([np.exp(0.4j)])
        assert lam == np.exp(0.4j) and residual == 0.0
        sys = make_cycle_system([1])
        assert dense_holonomy(orbit_rep(sys, sys.orbits().cycles[0], np.exp(0.4j))) == pytest.approx(lam)

    def test_random_phases_match_power(self):
        rng = np.random.default_rng(14)
        for L in range(1, 9):
            sys = make_cycle_system([L])
            phases = np.exp(2j * np.pi * rng.random(L))
            lam, residual = holonomy(phases)
            rep = orbit_rep_with_phases(sys, sys.orbits().cycles[0], phases)
            assert abs(lam - dense_holonomy(rep, tol=1e-10)) < 1e-10
            power = np.linalg.matrix_power(rep.u_matrix, L)
            assert abs(residual - np.abs(power - lam * np.eye(L)).max()) < 1e-14
            assert residual < 1e-10

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="unit circle"):
            holonomy([1.0, 1.5, 1.0])
        with pytest.raises(ValueError, match="unit circle"):
            holonomy([1.0, 1j, 1.0 + 1e-9])
        # the dense reference rejects a u-image off the superdiagonal-plus-corner form
        sys = make_cycle_system([3])
        rep = orbit_rep(sys, sys.orbits().cycles[0], 1.0)
        object.__setattr__(rep, "u_matrix", np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="form"):
            dense_holonomy(rep)

    def test_million_cycle_stays_linear(self):
        # no L x L matrix: at L = 10^6 a dense u-image would take 16 TB, the
        # band form a few length-L vectors (input excluded)
        L = 10**6
        phases = np.exp(2j * np.pi * np.random.default_rng(24).random(L))
        tracemalloc.start()
        try:
            lam, residual = holonomy(phases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * L, peak
        assert residual <= 1e-10 and abs(abs(lam) - 1.0) < 1e-9


class TestOracleAgreement:
    def test_grid_norm_vs_window_oracle(self):
        rng = np.random.default_rng(15)
        for L in (1, 2, 4, 7, 8):
            sys = make_cycle_system([L])
            cyc = sys.orbits().cycles[0]
            for k in (1, 2):
                a = random_element(sys, k, rng, scale=0.5)
                certified = norm(a, 1e-3)
                oracle = regular_window_norm(a, cyc, 8 * (L + k))
                ref = max(certified.value, oracle, 1e-12)
                assert abs(certified.value - oracle) / ref < 1e-2

    def test_window_oracle_underestimates(self):
        sys = make_cycle_system([5])
        cyc = sys.orbits().cycles[0]
        u = CrossedElement.unitary(sys)
        assert regular_window_norm(u, cyc, 48) <= 1.0 + 1e-12

    @pytest.mark.parametrize("L", [33, 48, 97, 150, 300])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_lanczos_path_matches_dense_sample(self, L, radius):
        # cycles above the dense crossover take the banded Lanczos path;
        # cross-check a few fibers against a direct SVD of the dense matrices
        # (radius 0 is a diagonal-only element)
        sys = make_cycle_system([L])
        cyc = sys.orbits().cycles[0]
        rng = np.random.default_rng(18 + 7 * L + radius)
        fib = ElementOrbitFiber(random_element(sys, radius, rng, scale=0.3), cyc)
        self._assert_matches_svd(fib, np.exp(2j * np.pi * rng.random(6)))

    def test_lanczos_close_top_pair(self):
        # the radius-1 contraction on a 192-cycle from the benchmark pool:
        # its top two singular values lie 3.7% apart, so power iteration
        # gains only a factor 0.93 per step and 100 steps leave it up to
        # 2e-7 (relative) short on the norm's 256-point grid, worst at point 45
        _, fib = _close_top_pair_element()
        self._assert_matches_svd(fib, np.exp(2j * np.pi * np.array([13, 45, 88, 89]) / 256))

    def test_warm_start_at_most_halves_the_steps(self):
        # every point of a 256-point grid after the first starts from point
        # 0's Ritz vector, moved to its lam, and needs two steps at least
        # (one check, then one that finds it still); the count is exact, so
        # it repeats
        _, fib = _close_top_pair_element()
        _, _, warm, bisections = lanczos_sweep(fib, _grid(256))
        _, _, cold, _, _ = _sigma_max_lanczos(fib, _grid(256))
        assert 256 * 2 <= warm <= cold / 2
        assert lanczos_sweep(fib, _grid(256))[2] == warm
        # every point's certificate passed on one Sturm sweep, with no bisection
        assert bisections == 0

    def test_unconverged_counts_points_at_the_cap(self):
        # u + 1/2 on a 300-cycle: the top of a*a is a cluster of width
        # O(1/L^2), so Lanczos is still moving at its step cap on most points
        # of a 64-point grid; those are counted, and every value stays a
        # lower bound
        sys = make_cycle_system([300])
        a = CrossedElement.unitary(sys) + 0.5 * CrossedElement.from_function(sys, np.ones(300))
        sigma, unconverged, _, bisections = lanczos_sweep(ElementOrbitFiber(a, sys.orbits().cycles[0]), _grid(64))
        assert 0 < unconverged <= 64
        assert 1.5 - 0.05 <= sigma.max() and sigma.max() <= 1.5 * (1 + 1e-12)
        # checks of many points at long Lanczos runs are too large for the
        # dense estimate and bisect
        assert bisections > 0
        result = norm(a, 0.05)
        assert 1.5 - result.tol <= result.value <= 1.5 * (1 + 1e-12)

    @staticmethod
    def _assert_matches_svd(fib, lams):
        fast, unconverged, _, _, _ = _sigma_max_lanczos(fib, lams)
        exact = np.array([np.linalg.svd(m, compute_uv=False)[0] for m in element_matrices(fib, lams)])
        assert unconverged == 0
        assert np.abs(fast - exact).max() <= 1e-10 * exact.max()
        assert np.all(fast <= exact * (1 + 1e-12))


def _close_top_pair_element():
    """The radius-1 element on a 192-cycle of the benchmark pool, with its fiber."""
    rng = np.random.default_rng(20261017)
    rng.standard_normal(16 * (48 + 96 + 128))  # the pool's earlier draws
    bands = {}
    for power in (-1, 0, 1):
        z = rng.standard_normal(192) + 1j * rng.standard_normal(192)
        bands[power] = z / np.abs(z).max() / 3
    sys = make_cycle_system([192])
    a = _element_on_slots(sys, bands)
    return a, ElementOrbitFiber(a, sys.orbits().cycles[0])


def _element_on_slots(sys, bands):
    """Element of a one-cycle system from band values in fiber slot order."""
    L = sys.n
    cyc = sys.orbits().cycles[0]
    slots = [cyc.order[(-r) % L] for r in range(L)]
    coeffs = {}
    for power, z in bands.items():
        coeffs[power] = np.zeros(L, dtype=np.complex128)
        coeffs[power][slots] = z
    return CrossedElement(sys, coeffs)


def _seam_element(L):
    """c = 1/2 on the slots L-1 and 0 next to the seam, coupled by u and u*
    through the lam corner, and zero elsewhere: the fiber norm is 3/2 at
    every lam, but the top singular vector turns with lam, and at lam = -1 it
    is orthogonal to the one at lam = 1."""
    bands = {power: np.zeros(L, dtype=np.complex128) for power in (-1, 0, 1)}
    bands[0][[L - 1, 0]] = 0.5
    bands[1][L - 1] = bands[-1][0] = 1.0
    return _element_on_slots(make_cycle_system([L]), bands)


class TestWarmStart:
    """Norms on the Lanczos path, where every grid point after the first
    starts from point 0's top Ritz vector, against a dense eigensolve over
    the same grid."""

    @staticmethod
    def _assert_matches_dense(a):
        fib = ElementOrbitFiber(a, a.sys.orbits().cycles[0])
        # a 32-point grid keeps the dense side cheap on the longer cycles
        result = norm(a, fib.lip() * np.pi / 24 if fib.lip() > 0 else 1e-3)
        (n,) = result.grids.values()
        def dense_sigma(lams):
            mats = element_matrices(fib, lams)
            return np.sqrt(np.linalg.eigvalsh(mats.conj().transpose(0, 2, 1) @ mats)[:, -1])

        dense = dense_sigma(_grid(n))
        # every grid point, warm from point 0, against the dense sigma
        sigma, unconverged, *_ = lanczos_sweep(fib, _grid(n))
        assert unconverged == 0
        assert np.abs(sigma - dense).max() <= 1e-10 * dense.max()
        assert np.all(sigma <= dense * (1 + 1e-12))
        # the norm: its value is sigma at its argmax, a grid point, and the
        # grid maximum lies between value and upper
        ((value, lam),) = result.per_orbit.values()
        (at,) = dense_sigma(np.array([lam]))
        assert result.unconverged == 0 and result.value == value and lam in _grid(n)
        assert value <= at * (1 + 1e-14) and abs(value - at) <= 1e-10 * at
        assert value <= dense.max() * (1 + 1e-14) and dense.max() <= result.upper
        return result

    @pytest.mark.parametrize("L", [33, 48, 97, 150, 300])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_random_element(self, L, radius):
        rng = np.random.default_rng(40 + 11 * L + radius)
        result = self._assert_matches_dense(random_element(make_cycle_system([L]), radius, rng, scale=0.3))
        assert sum(result.grids.values()) == (32 if radius else 1)

    @pytest.mark.parametrize("L", [33, 97, 150])
    def test_weight_next_to_the_seam(self, L):
        a = _seam_element(L)
        assert self._assert_matches_dense(a).value == pytest.approx(1.5, rel=1e-14)
        # point by point as well: the top vector turns with lam by a phase on
        # slot 0, which the moved cut supplies, so point 0's Ritz vector
        # starts every lam at its top vector
        fib = ElementOrbitFiber(a, a.sys.orbits().cycles[0])
        lams = _grid(32)
        *_, ritz = _sigma_max_lanczos(fib, lams[:1])
        warm, unconverged, steps, *_ = _sigma_max_lanczos(fib, lams[1:], ritz)
        _, sv, vh = np.linalg.svd(element_matrices(fib, lams[1:]))
        assert unconverged == 0 and steps == 2 * 31
        assert np.abs(warm - sv[:, 0]).max() <= 1e-10 * sv[:, 0].max()
        # from a start whose moved copy is orthogonal to the top vector at
        # every lam (the slots below L/2, slot 0 among them, sign-flipped),
        # roundoff still brings the top vector in
        flipped = ritz.copy()
        flipped[: L // 2] *= -1
        moved = np.where(np.arange(L) < _quiet_cut(flipped, 1), np.conj(lams[1:, None]), 1) * flipped
        overlap = np.abs(np.vecdot(vh[:, 0].conj(), moved)) / np.linalg.norm(flipped)
        assert overlap.max() < 1e-12
        warm, unconverged, *_ = _sigma_max_lanczos(fib, lams[1:], flipped)
        assert unconverged == 0
        assert np.abs(warm - sv[:, 0]).max() <= 1e-10 * sv[:, 0].max()

    def test_fiber_vanishing_at_the_first_point(self):
        # 1 - u^40 on a 40-cycle is (1 - lam) times the identity: point 0
        # leaves a zero Ritz vector, and the other points fall back to the seed
        sys = make_cycle_system([40])
        a = CrossedElement.from_function(sys, np.ones(40)) - CrossedElement.unitary(sys, 40)
        assert self._assert_matches_dense(a).value == pytest.approx(2.0, rel=1e-14)


class TestLanczosChunks:
    def test_long_cycle_streams_the_grid(self):
        # a radius-1 element on an 8000-cycle built from labels (no metric):
        # its 64-point grid splits into chunks of _LANCZOS_CHUNK_BYTES, and
        # the value is that of one chunk holding every point; the unpadded
        # labels are not in sorted order, so the system is read as a file
        L = 8000
        labels = [f"p{j}" for j in range(L)]
        sys = load_system(json.dumps({"points": labels, "map": dict(zip(labels, labels[1:] + labels[:1]))}))
        rng = np.random.default_rng(8000)
        a = random_element(sys, 1, rng, scale=0.2)
        fib = ElementOrbitFiber(a, sys.orbits().cycles[0])
        tol = fib.lip() * np.pi / 60
        chunk = cstar._LANCZOS_CHUNK_BYTES // cstar._lanczos_point_bytes(fib)
        assert 1 <= chunk < 63
        tracemalloc.start()
        try:
            result = norm(a, tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.grids == {sys.labels[0]: 64} and result.unconverged == 0
        assert peak <= 40 * 2**20
        lams = _grid(64)
        first, *_, ritz = _sigma_max_lanczos(fib, lams[:1])
        rest = _sigma_max_lanczos(fib, lams[1:], ritz)[0]
        assert abs(result.value - max(first.max(), rest.max())) <= 1e-12 * result.value

    def test_point_0_keeps_no_basis_past_the_chunk(self, monkeypatch):
        # u + 1/4 + i/2 u^-1 on a 2000-cycle is lam-circulant, so point 0
        # runs to the step cap; once a full basis (16 L _LANCZOS_MAX_STEPS
        # bytes) would pass _LANCZOS_CHUNK_BYTES, point 0 keeps none and
        # returns no Ritz vector, with the same estimate and counts
        L = 2000
        sys = make_cycle_system([L])
        a = CrossedElement(sys, {1: np.ones(L), 0: np.full(L, 0.25), -1: np.full(L, 0.5j)})
        fib = ElementOrbitFiber(a, sys.orbits().cycles[0])
        full = 16 * L * cstar._LANCZOS_MAX_STEPS
        runs, peaks = [], []
        for budget in (full, full - 1):
            monkeypatch.setattr(cstar, "_LANCZOS_CHUNK_BYTES", budget)
            tracemalloc.start()
            try:
                runs.append(_sigma_max_lanczos(fib, _grid(1)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        (kept, *counts, ritz), (bounded, *bounded_counts, none) = runs
        assert ritz is not None and none is None
        assert bounded[0] == kept[0] and bounded_counts == counts
        steps = counts[1]
        assert steps == cstar._LANCZOS_MAX_STEPS
        # the basis and its copy, against a few length-L vectors and the
        # dense steps x steps tridiagonal of a Ritz check
        assert peaks[0] > 2 * 16 * L * steps and peaks[1] < 16 * L * steps / 4, peaks

    def test_later_points_start_from_the_seed_past_the_chunk(self, monkeypatch):
        # with no Ritz vector from point 0, the later points start from the
        # seed vector: another start, so the same grid and a value that
        # agrees to the Lanczos tolerance
        sys = make_cycle_system([2000])
        a = random_element(sys, 1, np.random.default_rng(2000), scale=0.3)
        tol = ElementOrbitFiber(a, sys.orbits().cycles[0]).gauge_lip() * np.pi / 8
        warm = norm(a, tol)
        monkeypatch.setattr(cstar, "_LANCZOS_CHUNK_BYTES", 16 * 2000 * cstar._LANCZOS_MAX_STEPS - 1)
        cold = norm(a, tol)
        assert cold.grids == warm.grids and cold.unconverged == warm.unconverged == 0
        assert cold.evaluations > 1 and cold.lanczos_steps > warm.lanczos_steps
        assert abs(cold.value - warm.value) <= 1e-12 * warm.value


@st.composite
def _bracket_cases(draw):
    """(unit, exp, n): an element of radius 1-3 on one cycle, a power-of-two
    scale 2^exp up to about 1e+-150, and a grid size n small enough that a
    dense eigensolve at 2n points stays cheap.

    Half the elements are random, on cycles of 1-300 points (1-3 points half
    of those).  The others are waves on cycles of 1-3 points: c + a u^k +
    b u^-k with k a multiple of L, so that u^k is lam^(k/L) on every slot and
    the gauge bound is lip(), and with b phased against a so that sigma is
    max over the slots of |c_r| + 2|a| cos(k theta / L + phase).  A wave's
    slope meets the gauge bound, so a search with half of it misses the
    maximum by more than tol in about a fifth of the draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        L = draw(st.one_of(st.integers(1, 3), st.integers(1, 300)))
        unit = random_element(make_cycle_system([L]), draw(st.integers(1, 3)), rng)
    else:
        L = draw(st.integers(1, 3))
        k = L * draw(st.integers(1, 3 // L))
        sys = make_cycle_system([L])
        c = np.exp(2j * np.pi * rng.random()) * (1 + 2 * rng.random()) * (1 + 0.3 * rng.random(L))
        a = (0.1 + rng.random()) * np.exp(2j * np.pi * rng.random())
        b = abs(a) * np.exp(1j * (2 * np.angle(c[0]) - np.angle(a)))
        unit = CrossedElement(sys, {0: c, k: np.full(L, a), -k: np.full(L, b)})
    exp = draw(st.sampled_from([-498, -200, 0, 200, 498]))
    n = draw(st.sampled_from([n for n in (1, 2, 4, 8, 16, 64, 256, 1024) if 2 * n * L**3 <= 2**28]))
    return unit, exp, n


class TestBranchAndBound:
    """fiber_sup_norm solves point 0 and then the midpoints of the arcs of
    its dyadic grid whose Lipschitz bound can still beat the best value by
    more than tol."""

    @settings(max_examples=60, deadline=None)
    @given(_bracket_cases())
    def test_fine_grid_maximum_lies_in_the_bracket(self, case):
        # the dense sigma at the grid points and every arc midpoint (the grid
        # of 2n points) has its maximum in [value, upper], up to rounding,
        # and moves by at most the gauge bound per unit arc
        unit, exp, n = case
        cyc = unit.sys.orbits().cycles[0]
        fib = ElementOrbitFiber(unit, cyc)
        a = math.ldexp(1.0, exp) * unit
        # a hair above lip pi / n, so that the grid has n points
        tol = math.ldexp(fib.lip(), exp) * math.pi / n * (1 + 2**-20)
        result = norm(a, tol)
        assert result.grids == {unit.sys.labels[cyc.base]: n}
        assert 1 <= result.evaluations <= sum(result.grids.values())
        fine = dense_fiber_sigma(unit, cyc, _grid(2 * n))
        top = math.ldexp(float(fine.max()), exp)
        assert result.value <= top * (1 + 1e-14) and top <= result.upper, (result.value, top, result.upper)
        gap = np.abs(np.diff(np.r_[fine, fine[0]])).max()
        assert gap <= fib.gauge_lip() * math.pi / n + 1e-14 * fine.max()

    def test_builds_only_the_points_it_solves(self):
        # the radius-1 benchmark contraction on a 192-cycle: a grid of 256,
        # of which 32 points or fewer are solved, and only their lams built
        a, fib = _close_top_pair_element()
        built = []
        grid = cstar._grid

        def recording(n, idx=None):
            built.append(n if idx is None else len(idx))
            return grid(n, idx)

        with mock.patch.object(cstar, "_grid", recording):
            result = norm(a, 1e-2)
        assert result.grids == {a.sys.labels[0]: 256}
        # the last call builds the argmax's lam
        assert result.evaluations == sum(built[:-1]) <= 32 and max(built) < 256
        assert result.argmax[1] in _grid(256)
        # a grid max within tol below value + tol, against every point
        sigma, *_ = lanczos_sweep(fib, _grid(256))
        assert result.value <= sigma.max() * (1 + 1e-14) and sigma.max() <= result.upper


@st.composite
def _tridiagonals(draw):
    """(k, m) diagonals >= 0 and (k - 1, m) subdiagonals >= 0, as Lanczos on
    a*a produces, over a wide dynamic range, with tiny and zero couplings."""
    k, m = draw(st.integers(1, 64)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0, 3, 40, 150]))
    alpha = rng.random((k, m)) * 10.0 ** rng.uniform(-spread, spread, (k, m))
    beta = rng.random((k - 1, m)) * 10.0 ** rng.uniform(-spread, spread, (k - 1, m))
    beta[rng.random(beta.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 1e-300
    beta[rng.random(beta.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    return alpha, beta


def _top_in_long_double(alpha, beta):
    """Reference top eigenvalues: bisection on the classic Sturm count (the
    number of negative LDL^T pivots of T - x is the number of eigenvalues
    below x) in long double, which resolves them far below a double ulp
    where long double is wider.  (eigvalsh is no reference: it is off by up
    to ~15 ulps of the scale on these matrices, and by up to 4e-3 relative
    over a 1e+-150 range.)"""
    alpha, beta = alpha.astype(np.longdouble), beta.astype(np.longdouble)
    lo = alpha.max(axis=0)
    hi = lo + 2 * beta.max(axis=0, initial=0)
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(120):
            x = (lo + hi) / 2
            d = alpha[0] - x
            negatives = (d < 0).astype(int)
            for a, b in zip(alpha[1:], beta):
                d = (a - x) - b * b / np.where(d == 0, np.finfo(np.longdouble).tiny, d)
                negatives += d < 0
            above = negatives < len(alpha)
            lo, hi = np.where(above, x, lo), np.where(above, hi, x)
    return lo.astype(float)


class TestRitzCertificate:
    """``_top_ritz``: a lower bound on the top eigenvalue of each tridiagonal
    that passes the Sturm test and lies within 1e-12 relative of it, from the
    estimate ``_ritz_estimate`` gives; and the Lanczos loop, which reads the
    estimate at every check and certifies each lam once, as it leaves."""

    @staticmethod
    def _assert_certified(alpha, beta, value):
        top = _top_in_long_double(alpha, beta)
        scale = np.abs(alpha).max(axis=0) + 2 * beta.max(axis=0, initial=0.0)
        assert np.all(value <= top + 4 * np.spacing(scale))
        assert np.all(np.abs(value - top) <= 1e-12 * top)
        assert _sturm_above(alpha, beta * beta, value).all()

    @settings(max_examples=60, deadline=None)
    @given(_tridiagonals())
    def test_certified_lower_bound(self, tri):
        alpha, beta = tri
        est, certified = _ritz_estimate(alpha, beta)
        if certified:
            # a batch too large for one eigensolve bisects: certified as it stands
            self._assert_certified(alpha, beta, est)
        else:
            # a column's dense estimate is the same in any batch holding it
            half = _ritz_estimate(alpha[:, ::2], beta[:, ::2])
            assert half[1] is False and np.array_equal(half[0], est[::2])
        value, bisections = _top_ritz(alpha, beta, est)
        self._assert_certified(alpha, beta, value)
        assert 0 <= bisections <= alpha.shape[1]

    @pytest.mark.parametrize("error", [1e-6, -1e-6], ids=["above", "below"])
    def test_poor_estimate_falls_back_to_bisection(self, monkeypatch, error):
        # an estimate far above the top eigenvalue fails every Sturm step;
        # one far below it trips the guard
        rng = np.random.default_rng(31)
        alpha, beta = rng.random((20, 8)), rng.random((19, 8))
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) * (1 + error))
        est, certified = _ritz_estimate(alpha, beta)
        value, bisections = _top_ritz(alpha, beta, est)
        # and through a norm on the Lanczos path
        a, fib = _close_top_pair_element()
        result = norm(a, 1e-2)
        monkeypatch.undo()
        assert not certified and bisections == 8
        self._assert_certified(alpha, beta, value)
        # one certificate a point solved, each of them bisected
        assert result.ritz_bisections == result.evaluations
        mats = element_matrices(fib, np.array([result.argmax[1]]))
        exact = np.linalg.svd(mats[0], compute_uv=False)[0]
        assert exact * (1 - 1e-10) <= result.value <= exact * (1 + 1e-12)

    def test_each_lam_is_certified_once_as_it_leaves(self, monkeypatch):
        # no lam reaches the step cap, so every check's batch takes the dense
        # estimate: each returned sigma is the root of a _top_ritz output,
        # and _top_ritz certifies each lam once
        _, fib = _close_top_pair_element()
        lams = _grid(32)
        top_ritz, outputs = cstar._top_ritz, []

        def spy(alpha, beta, est):
            out, bisected = top_ritz(alpha, beta, est)
            outputs.append(out)
            return out, bisected

        monkeypatch.setattr(cstar, "_top_ritz", spy)
        sigma, unconverged, steps, bisections = lanczos_sweep(fib, lams)
        monkeypatch.undo()
        certified = np.sqrt(np.maximum(np.concatenate(outputs), 0.0))
        assert unconverged == 0 and bisections == 0 and steps > 2 * len(lams)
        assert len(certified) == len(lams)
        assert np.array_equal(np.sort(certified), np.sort(sigma))
        exact = np.linalg.svd(element_matrices(fib, lams), compute_uv=False)[:, 0]
        assert np.all(sigma <= exact * (1 + 1e-12))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(L=st.integers(1, 300), radius=st.integers(1, 3), constant=st.booleans(),
           n=st.sampled_from([2, 8, 32]), seed=st.integers(0, 2**32 - 1))
    @example(L=300, radius=1, constant=True, n=32, seed=2)
    def test_values_match_a_certificate_at_every_check(self, L, radius, constant, n, seed):
        # against the loop that certified every active lam at every check
        # and stopped on certified values: the stop test now reads the
        # estimates, which may move a lam's stop step, but not its value by
        # more than the Lanczos tolerance; in the example every point is
        # still moving at the step cap
        rng = np.random.default_rng(seed)
        sys = make_cycle_system([L])
        if constant:
            draws = rng.standard_normal((2 * radius + 1, 2)) @ [1, 1j]
            a = CrossedElement(sys, {i: np.full(L, c) for i, c in zip(range(-radius, radius + 1), draws)})
        else:
            a = random_element(sys, radius, rng, scale=0.3)
        fib = ElementOrbitFiber(a, sys.orbits().cycles[0])
        lams = _grid(n)
        cold, *_, ritz = _sigma_max_lanczos(fib, lams[:1])
        warm = _sigma_max_lanczos(fib, lams[1:], ritz)[0]
        ref_cold, ref_warm = lanczos_reference(fib, lams[:1])[0], lanczos_reference(fib, lams[1:], ritz)[0]
        for got, want in ((cold, ref_cold), (warm, ref_warm)):
            assert np.all(np.abs(got - want) <= 1e-13 * want.max())


class _RebuiltOnSlice(np.ndarray):
    """Seam weights whose keep-mask slices are rebuilt from the kept lams."""

    def __getitem__(self, key):
        rebuild = getattr(self, "rebuild", None)
        if rebuild is not None and isinstance(key, np.ndarray) and key.dtype == bool:
            return rebuild(key)
        return super().__getitem__(key)


def _seam_dense(terms, m, L):
    """The (m, L, L) matrices of seam-form terms, entries summed in term order."""
    out = np.zeros((m, L, L), dtype=np.complex128)
    for s, head, tail in terms:
        rows = np.arange(L - s)
        out[:, rows, rows + s] += head
        out[:, L - s + np.arange(s), np.arange(s)] += tail
    return out


class TestTwists:
    @pytest.mark.parametrize("L, radius", [(40, 1), (48, 2), (33, 45)])
    def test_slices_equal_rebuilt_weights(self, L, radius):
        sys = make_cycle_system([L])
        rng = np.random.default_rng(L + radius)
        fib = ElementOrbitFiber(random_element(sys, radius, rng), sys.orbits().cycles[0])
        lams = np.exp(2j * np.pi * rng.random(50))
        keep = rng.random(50) < 0.5
        sides = fib.twists(lams)
        for full, kept in zip(sides, fib.twists(lams[keep])):
            sliced = _seam_rows(full, keep)
            assert [s for s, *_ in sliced] == [s for s, *_ in kept]
            assert all(np.array_equal(w, v) for x, y in zip(sliced, kept) for w, v in zip(x[1:], y[1:]))
        # only the wrapped entries of a band carry lam: its seam weights are
        # (lams, |i|) for |i| < L, the rest are its values, shared
        for (s, head, tail), i in zip(sides[0], fib.bands):
            rows, widths = zip(*[w.shape for w in (head, tail) if w.ndim > 1] or [(50, 0)])
            assert set(rows) == {50} and sum(widths) == min(abs(i), L)
        # the seam form is the fiber and its adjoint, entry for entry
        mats = element_matrices(fib, lams)
        assert np.array_equal(_seam_dense(sides[0], 50, L), mats)
        assert np.array_equal(_seam_dense(sides[1], 50, L), mats.conj().transpose(0, 2, 1))

    def test_lanczos_output_equals_rebuilding(self):
        # rebuilding the seam weights for the remaining lams each time the
        # batch shrinks gives the same floats as slicing them; a warm start
        # lets the lams of this fiber leave at different checks
        sys = make_cycle_system([48])
        rng = np.random.default_rng(48)
        fib = ElementOrbitFiber(random_element(sys, 2, rng, scale=0.3), sys.orbits().cycles[0])
        lams = _grid(64)
        *_, ritz = _sigma_max_lanczos(fib, lams[:1])
        rebuilt = []

        def twists(lams):
            sides = ElementOrbitFiber.twists(fib, lams)
            for side, terms in enumerate(sides):
                for j, (s, *parts) in enumerate(terms):
                    for p, w in enumerate(parts):
                        if w.ndim > 1:
                            parts[p] = w.view(_RebuiltOnSlice)
                            parts[p].rebuild = functools.partial(rebuild, lams, side, j, p)
                    terms[j] = (s, *parts)
            return sides

        def rebuild(lams, side, j, p, keep):
            rebuilt.append(int(keep.sum()))
            return twists(lams[keep])[side][j][1 + p]

        est, stuck, steps, bisections, _ = _sigma_max_lanczos(fib, lams[1:], ritz)
        fib.twists = twists
        again = _sigma_max_lanczos(fib, lams[1:], ritz)
        assert len(set(rebuilt)) > 1 and np.array_equal(again[0], est)
        assert again[1:4] == (stuck, steps, bisections)


class TestFibers:
    def test_interpolation_hits_nodes(self):
        sys = make_cycle_system([4])
        cyc = sys.orbits().cycles[0]
        rng = np.random.default_rng(16)
        a = random_element(sys, 2, rng)
        s = 16
        lams = np.exp(2j * np.pi * np.arange(s) / s)
        nodes = element_matrices(ElementOrbitFiber(a, cyc), lams)
        interp = InterpolationFiber(cyc, nodes)
        assert np.abs(interp.matrices(lams) - nodes).max() < 1e-12

    @pytest.mark.parametrize("L, s", [(1, 8), (3, 32), (7, 64)])
    def test_interp_lip_equals_per_node_norms(self, L, s):
        rng = np.random.default_rng(19 + L)
        nodes = rng.standard_normal((s, L, L)) + 1j * rng.standard_normal((s, L, L))
        interp = InterpolationFiber(make_cycle_system([L]).orbits().cycles[0], nodes)
        diffs = nodes - np.roll(nodes, -1, axis=0)
        step = max(float(np.linalg.norm(d, 2)) for d in diffs)
        assert interp.lip() == step / (2 * np.pi / s)

    def test_interp_lip_bounds_variation(self):
        sys = make_cycle_system([3])
        cyc = sys.orbits().cycles[0]
        rng = np.random.default_rng(17)
        a = random_element(sys, 1, rng)
        s = 32
        lams = np.exp(2j * np.pi * np.arange(s) / s)
        interp = InterpolationFiber(cyc, element_matrices(ElementOrbitFiber(a, cyc), lams))
        lip = interp.lip()
        probe = np.exp(2j * np.pi * rng.random(50))
        vals = interp.matrices(probe)
        ref = interp.matrices(np.roll(probe, 1))
        arc = np.abs(np.angle(probe / np.roll(probe, 1)))
        for i in range(50):
            assert np.linalg.norm(vals[i] - ref[i], 2) <= lip * arc[i] + 1e-9


class TestTinyFibers:
    @pytest.mark.parametrize("L", [1, 40])
    def test_unscaled_tiny_fiber_is_solved(self, L):
        # entries of 1e-170 on the bands -1, 0, 1: the squares Lanczos forms
        # would underflow, and the fiber once read 0 with an upper bound
        # below its norm; fiber_sup_norm solves it at a power-of-two scale
        sys = make_cycle_system([L])
        rng = np.random.default_rng(L)
        unit = random_element(sys, 1, rng)
        cyc = sys.orbits().cycles[0]
        fib = ElementOrbitFiber(1e-170 * unit, cyc)
        tol = fib.lip() * math.pi / 64
        res = cstar.fiber_sup_norm(sys, [fib], tol)
        dense = 1e-170 * dense_fiber_sigma(unit, cyc, _grid(res.grids[sys.labels[0]]))
        at = 1e-170 * float(dense_fiber_sigma(unit, cyc, np.array([res.argmax[1]]))[0])
        assert res.solvers == {sys.labels[0]: "lanczos"}
        assert res.value <= at * (1 + 1e-14) and abs(res.value - at) <= 1e-10 * at
        assert res.value <= dense.max() * (1 + 1e-14) and dense.max() <= res.upper
        assert norm(1e-170 * unit, tol) == res


class TestNonFiniteFibers:
    @pytest.mark.parametrize("L", [10, 40], ids=["dense", "lanczos"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_refused_with_orbit_label(self, L, bad):
        sys = make_cycle_system([3, L])
        cyc = [c for c in sys.orbits().cycles if c.length == L][0]
        coeff = np.full(sys.n, 0.5, dtype=np.complex128)
        coeff[cyc.order[5]] = bad
        with pytest.raises(ValueError, match=f"orbit of '{sys.labels[cyc.base]}' is not finite"):
            norm(CrossedElement(sys, {1: coeff}), 1e-3)

    def test_arc_bound_near_the_float_limit_stays_finite(self):
        # 0.6e307 (1 + u) on a 5-cycle: sigma and lip pi lie near 1e307, where
        # the arc bound summed as (sa + sb) / 2 + lip (b - a) pi / n overflowed
        # to inf with a numpy warning and kept every arc live; the search now
        # solves the points it solves for 1 + u at the same relative tol
        sys = make_cycle_system([5])
        one = np.ones(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            big = norm(CrossedElement(sys, {0: 0.6e307 * one, 1: 0.6e307 * one}), 1e304)
        unit = norm(CrossedElement(sys, {0: one, 1: one}), 1e304 / 0.6e307)
        assert big.evaluations == unit.evaluations
        assert big.value == pytest.approx(0.6e307 * unit.value, rel=1e-14)

    @pytest.mark.parametrize("L", [8, 40])
    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_sigma_that_would_overflow_is_solved(self, L, scale):
        # the squares Lanczos forms would overflow: at 1e160 in a*a, which
        # would read 0 or NaN, and at 1e150 in the norm of a*a q, which would
        # end the recurrence and certify half the norm; fiber_sup_norm solves
        # the fiber at a power-of-two scale instead
        sys = make_cycle_system([3, L])
        cyc = [c for c in sys.orbits().cycles if c.length == L][0]
        rng = np.random.default_rng(L)
        unit = CrossedElement(sys, {i: rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
                                    for i in (-1, 0, 1)})
        a = CrossedElement(sys, {i: scale * c for i, c in unit.coeffs.items()})
        fib = ElementOrbitFiber(a, cyc)
        label = sys.labels[cyc.base]
        res = cstar.fiber_sup_norm(sys, [fib], fib.lip() * np.pi / 64)
        dense = scale * dense_fiber_sigma(unit, cyc, _grid(res.grids[label]))
        at = scale * float(dense_fiber_sigma(unit, cyc, np.array([res.argmax[1]]))[0])
        assert res.solvers == {label: "lanczos"} and res.per_orbit[label][0] == res.value > scale
        assert res.value <= at * (1 + 1e-14) and abs(res.value - at) <= 1e-10 * at
        assert res.value <= dense.max() * (1 + 1e-14) and dense.max() <= res.upper
