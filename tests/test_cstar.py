import tracemalloc

import numpy as np
import pytest

from rokhlin.cstar import (
    CrossedElement,
    ElementOrbitFiber,
    HostMismatchError,
    InterpolationFiber,
    _grid,
    _sigma_max_lanczos,
    holonomy,
    norm,
    orbit_isomorphism,
    orbit_rep,
    orbit_rep_with_phases,
    periodic_embedding,
    primitive_spectrum,
    regular_window_norm,
)
from rokhlin.dynsys import make_cycle_system


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

    def test_grid_sizes_are_powers_of_two(self):
        sys = make_cycle_system([4])
        rng = np.random.default_rng(9)
        res = norm(random_element(sys, 3, rng), 1e-2)
        for g in res.grids.values():
            assert g & (g - 1) == 0


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

    def test_non_period_rejected(self):
        sys = make_cycle_system([2, 3])
        with pytest.raises(ValueError, match="not a period"):
            periodic_embedding(sys, 16, n=4)

    def test_expectation_commuting_square(self):
        sys = make_cycle_system([2, 3])
        rng = np.random.default_rng(12)
        emb = periodic_embedding(sys, 64)
        for radius in (1, 2, 5):
            a = random_element(sys, radius, rng)
            assert emb.expectation_residual(a) < 1e-9

    def test_matches_einsum_reference(self):
        sys = make_cycle_system([2, 3, 4])
        emb = periodic_embedding(sys, 16)
        u, rng = emb.u_matrices, np.random.default_rng(13)

        def power(i):
            if i == 0:
                return np.broadcast_to(np.eye(emb.n), u.shape)
            step = u if i > 0 else u.conj().transpose(0, 2, 1)
            return np.linalg.matrix_power(step, abs(i))

        f = rng.standard_normal(sys.n)
        b = emb.beta(f)
        rolled = emb.beta(f[sys.power_perm(-1)])
        res = np.einsum("gab,xbc,gdc->xgad", u, b, u.conj()) - rolled[:, None]
        assert emb.covariance_residual(f) == float(np.abs(res).max())
        # real coefficients, as the CLI draws them: bit for bit
        real = CrossedElement(sys, {i: rng.standard_normal(sys.n) for i in (-2, -1, 0, 1, 2)})
        complex_ = random_element(sys, 2, rng)
        for a, tol in ((real, 0.0), (complex_, 1e-15)):
            image = sum(np.einsum("xab,gbc->xgac", emb.beta(f), power(i)) for i, f in a.coeffs.items())
            assert np.abs(emb.embed(a) - image).max() <= tol

    @pytest.mark.parametrize("n", [None, 2002])
    def test_oversized_embedding_refused_before_allocating(self, n):
        sys = make_cycle_system([7, 11, 13])
        period = n or 1001
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                periodic_embedding(sys, 64, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"period {period} needs a (31, 64, {period}, {period})" in str(err.value)
        image = 31 * 64 * period**2 * 16
        assert f"{image} bytes and a peak of {3 * image} bytes" in str(err.value)
        assert peak < 2**24

    @pytest.mark.parametrize("lengths, grid", [([3, 10], 128), ([2, 3, 4], 64)])
    def test_residuals_peak_within_three_images(self, lengths, grid):
        # the pre-flight refuses when three (points, grid, n, n) images exceed the limit
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
            assert peak <= 3 * image

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
    def test_all_ones(self):
        sys = make_cycle_system([4])
        rep = orbit_rep(sys, sys.orbits().cycles[0], 1.0)
        assert holonomy(rep) == pytest.approx(1.0)

    def test_three_phases(self):
        sys = make_cycle_system([3])
        rep = orbit_rep_with_phases(sys, sys.orbits().cycles[0], [1j, 1.0, -1.0])
        lam = holonomy(rep)
        assert lam == pytest.approx(-1j)
        power = np.linalg.matrix_power(rep.u_matrix, 3)
        assert np.abs(power - lam * np.eye(3)).max() < 1e-12

    def test_single_fixed_point(self):
        sys = make_cycle_system([1])
        rep = orbit_rep(sys, sys.orbits().cycles[0], np.exp(0.4j))
        assert holonomy(rep) == pytest.approx(np.exp(0.4j))

    def test_random_phases_match_power(self):
        rng = np.random.default_rng(14)
        for L in range(1, 9):
            sys = make_cycle_system([L])
            phases = np.exp(2j * np.pi * rng.random(L))
            rep = orbit_rep_with_phases(sys, sys.orbits().cycles[0], phases)
            lam = holonomy(rep, tol=1e-10)
            assert abs(lam - np.prod(phases)) < 1e-10

    def test_malformed_rejected(self):
        sys = make_cycle_system([3])
        rep = orbit_rep(sys, sys.orbits().cycles[0], 1.0)
        object.__setattr__(rep, "u_matrix", np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="form"):
            holonomy(rep)


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
        # every grid point after the first starts from point 0's Ritz vector;
        # the count is exact, so it repeats
        a, fib = _close_top_pair_element()
        result = norm(a, 1e-2)
        assert result.grids == {a.sys.labels[0]: 256}
        _, _, cold, _ = _sigma_max_lanczos(fib, _grid(256))
        assert 256 * 8 <= result.lanczos_steps <= cold / 2
        assert norm(a, 1e-2).lanczos_steps == result.lanczos_steps

    def test_unconverged_counts_points_at_the_cap(self):
        # u + 1/2 on a 300-cycle: the top of a*a is a cluster of width
        # O(1/L^2), so Lanczos is still moving at its step cap on most grid
        # points; those are counted, and the value stays a lower bound
        sys = make_cycle_system([300])
        a = CrossedElement.unitary(sys) + 0.5 * CrossedElement.from_function(sys, np.ones(300))
        result = norm(a, 0.05)
        assert 0 < result.unconverged <= result.grids[sys.labels[0]]
        assert 1.5 - result.tol <= result.value <= 1.5 * (1 + 1e-12)

    @staticmethod
    def _assert_matches_svd(fib, lams):
        fast, unconverged, _, _ = _sigma_max_lanczos(fib, lams)
        exact = np.array([np.linalg.svd(m, compute_uv=False)[0] for m in fib.matrices(lams)])
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
        mats = fib.matrices(_grid(n))
        dense = np.sqrt(np.linalg.eigvalsh(mats.conj().transpose(0, 2, 1) @ mats)[:, -1].max())
        assert result.unconverged == 0
        assert abs(result.value - dense) <= 1e-10 * dense
        assert result.value <= dense * (1 + 1e-12)
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
        # point by point as well, from a start orthogonal to the top vector
        fib = ElementOrbitFiber(a, a.sys.orbits().cycles[0])
        lams = _grid(32)
        _, _, _, ritz = _sigma_max_lanczos(fib, lams[:1])
        warm, unconverged, _, _ = _sigma_max_lanczos(fib, lams[1:], ritz)
        _, sv, vh = np.linalg.svd(fib.matrices(lams[1:]))
        overlap = np.abs(vh[:, 0] @ ritz) / np.linalg.norm(ritz)
        assert unconverged == 0 and overlap[15] < 1e-12  # lam = -1
        assert np.abs(warm - sv[:, 0]).max() <= 1e-10 * sv[:, 0].max()


    def test_fiber_vanishing_at_the_first_point(self):
        # 1 - u^40 on a 40-cycle is (1 - lam) times the identity: point 0
        # leaves a zero Ritz vector, and the other points fall back to the seed
        sys = make_cycle_system([40])
        a = CrossedElement.from_function(sys, np.ones(40)) - CrossedElement.unitary(sys, 40)
        assert self._assert_matches_dense(a).value == pytest.approx(2.0, rel=1e-14)


class TestFibers:
    def test_interpolation_hits_nodes(self):
        sys = make_cycle_system([4])
        cyc = sys.orbits().cycles[0]
        rng = np.random.default_rng(16)
        a = random_element(sys, 2, rng)
        s = 16
        lams = np.exp(2j * np.pi * np.arange(s) / s)
        nodes = ElementOrbitFiber(a, cyc).matrices(lams)
        interp = InterpolationFiber(cyc, nodes)
        assert np.abs(interp.matrices(lams) - nodes).max() < 1e-12

    def test_interp_lip_bounds_variation(self):
        sys = make_cycle_system([3])
        cyc = sys.orbits().cycles[0]
        rng = np.random.default_rng(17)
        a = random_element(sys, 1, rng)
        s = 32
        lams = np.exp(2j * np.pi * np.arange(s) / s)
        interp = InterpolationFiber(cyc, ElementOrbitFiber(a, cyc).matrices(lams))
        lip = interp.lip()
        probe = np.exp(2j * np.pi * rng.random(50))
        vals = interp.matrices(probe)
        ref = interp.matrices(np.roll(probe, 1))
        arc = np.abs(np.angle(probe / np.roll(probe, 1)))
        for i in range(50):
            assert np.linalg.norm(vals[i] - ref[i], 2) <= lip * arc[i] + 1e-9


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
