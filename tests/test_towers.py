import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rokhlin.dynsys import make_cycle_system
from rokhlin.markers import greedy_markers
from rokhlin.towers import (
    CyclicTower,
    DecayingTower,
    TowerError,
    as_fraction,
    build_partition,
    build_tower_family,
    cyclic_to_decaying,
    decaying_to_cyclic,
    min_window_length,
    tower_supports,
    verify_tower,
    _common_denominator,
    _tent,
    _tower_points,
    _window_sum,
)


class TestSupports:
    def test_shift_formula_d0(self):
        sys = make_cycle_system([30])
        cert = greedy_markers(sys, 2, range(30))
        sup = tower_supports(sys, cert, d=0, k=1, m=2)
        assert len(sup) == 3
        for l in range(3):
            assert sup[l] == sys.apply(3 * l + 2, cert.markers)

    def test_shift_formula_d1(self):
        sys = make_cycle_system([80], d=1)
        cert = greedy_markers(sys, 9, range(80), d=1)
        sup = tower_supports(sys, cert, d=1, k=1, m=9)
        assert len(sup) == 5
        for l in range(5):
            assert sup[l] == sys.apply(17 * l + 9, cert.markers)

    def test_window_too_small(self):
        sys = make_cycle_system([30])
        cert = greedy_markers(sys, 1, range(30))
        with pytest.raises(TowerError, match="too small"):
            tower_supports(sys, cert, d=0, k=1, m=1)

    def test_min_window_length(self):
        assert min_window_length(0, 1) == 2
        assert min_window_length(0, 2) == 5
        # boundary: m = 5 admissible for d=0, k'=2
        sys = make_cycle_system([100])
        cert = greedy_markers(sys, 5, range(100))
        assert len(tower_supports(sys, cert, d=0, k=2, m=5)) == 3

    def test_mismatched_certificate(self):
        sys = make_cycle_system([100])
        cert = greedy_markers(sys, 3, range(100))
        with pytest.raises(TowerError, match="built for m"):
            tower_supports(sys, cert, d=0, k=1, m=5)


def stepped_powers(sys, m):
    """alpha_j as index arrays for |j| <= m, by stepping perm and perm_inv."""
    powers = {0: np.arange(sys.n)}
    for j in range(1, m + 1):
        powers[j] = sys.perm[powers[j - 1]]
        powers[-j] = sys.perm_inv[powers[1 - j]]
    return powers


class TestTowerPoints:
    def test_acceptance_points_match_per_rung_stack(self):
        # the acceptance run's towers: cycles [3, 7, 1500], k = 1, eps' = 1/100, m = 300
        sys = make_cycle_system([3, 7, 1500])
        long_cycle = max(sys.orbits().cycles, key=lambda c: c.length)
        m = 300
        family = build_tower_family(sys, 0, 1, m, Fraction(1, 100), long_cycle.order)
        anchors = np.array([sorted(sup) for sup in family.supports], dtype=np.int64)
        powers = stepped_powers(sys, m)
        reference = np.stack([powers[j][anchors] for j in range(-m, m + 1)], axis=-1)
        assert np.array_equal(_tower_points(sys, family.supports, m), reference)
        assert np.array_equal(family.points, reference)


class TestPartition:
    def build(self, K_prime=range(100)):
        sys = make_cycle_system([100])
        cert = greedy_markers(sys, 5, range(100))
        sup = tower_supports(sys, cert, d=0, k=2, m=5)
        return sys, sup, build_partition(sys, sup, m=5, k_prime=2, K_prime=K_prime)

    def test_values_are_equal_splits(self):
        sys, sup, part = self.build()
        counts = {}
        jmax = 5 - 2
        for supp in sup:
            for j in range(-jmax, jmax + 1):
                for x in sys.apply(j, supp):
                    counts[x] = counts.get(x, 0) + 1
        nonzero = [(x, v) for x, v in zip(part.points.ravel().tolist(), part.num.ravel().tolist()) if v]
        for x, v in nonzero:
            assert Fraction(v, part.den) == Fraction(1, counts[x])
        # one value per covering pair, and both cover multiplicities occur here
        assert len(nonzero) == sum(counts.values())
        assert {counts[x] for x in counts} == {1, 2}

    def test_total_is_one_everywhere(self):
        sys, _, part = self.build()
        totals = np.zeros(sys.n, dtype=np.int64)
        np.add.at(totals, part.points.ravel(), part.num.ravel())
        assert np.all(totals == part.den)

    def test_total_vanishes_off_K_prime(self):
        # the deficit p_inf = 1 off K' is implicit: no partition value lives there
        K_prime = set(range(20, 70))
        sys, _, part = self.build(K_prime)
        totals = np.zeros(sys.n, dtype=np.int64)
        np.add.at(totals, part.points.ravel(), part.num.ravel())
        assert all(totals[x] == (part.den if x in K_prime else 0) for x in range(sys.n))

    def test_uncovered_point_reported(self):
        sys = make_cycle_system([100])
        cert = greedy_markers(sys, 5, range(100))
        sup = tower_supports(sys, cert, d=0, k=2, m=5)
        with pytest.raises(TowerError, match="covered by no"):
            # k' too wide: admissible j-range shrinks to nothing
            build_partition(sys, sup, m=5, k_prime=5, K_prime=range(100))


class TestFolner:
    def test_width_one_window_is_identity(self):
        num = np.arange(60, dtype=np.int64).reshape(2, 3, 10)
        assert np.array_equal(_window_sum(num, 0), num)

    def test_window_sum_clips_at_the_ends(self):
        num = np.array([[[1, 2, 4, 8, 16]]], dtype=np.int64)
        assert _window_sum(num, 1).tolist() == [[[3, 7, 14, 28, 24]]]

    def test_singleton_cover_gives_fifths(self):
        sys = make_cycle_system([100])
        K = set(range(30, 41))
        fam = build_tower_family(sys, d=0, k=1, m=5, eps="1/2", K=K, markers={27})
        values = {Fraction(int(v), fam.den) for v in fam.num.ravel()}
        assert values <= {Fraction(i, 5) for i in range(6)}
        assert verify_tower(fam).ok()


def _oracle_mu(sys, supports, m, k_prime, K_prime):
    """Exact mu[(l, j, x)] = (2k'+1)^{-1} sum_{|i| <= k'} p[l][j+i](alpha_i x),
    from an equal-split partition built point by point."""
    jmax = m - k_prime
    pairs = {}
    for l, sup in enumerate(supports):
        for j in range(-jmax, jmax + 1):
            for x in sys.apply(j, sup):
                if x in K_prime:
                    pairs.setdefault(x, []).append((l, j))
    mu = {}
    for x, covering in pairs.items():
        share = Fraction(1, len(covering) * (2 * k_prime + 1))
        for l, j0 in covering:
            # p[l][j0] at x feeds mu[l][j0 - i] at alpha_{-i} x
            for i in range(-k_prime, k_prime + 1):
                key = (l, j0 - i, int(sys.power_perm(-i)[x]))
                mu[key] = mu.get(key, Fraction(0)) + share
    return mu


@st.composite
def tower_cases(draw):
    d = draw(st.sampled_from([0, 1]))
    k = draw(st.sampled_from([1, 2]))
    eps = draw(st.sampled_from(["1/2", "1/3", "1/4"]))
    k_prime = k * math.ceil(1 / Fraction(eps))
    m = min_window_length(d, k_prime) + draw(st.integers(0, 2))
    N = (d + 1) * (4 * m + 1)
    lengths = draw(st.lists(st.integers(N + 1, N + 40), min_size=1, max_size=2))
    sys = make_cycle_system(lengths, d=d)
    if draw(st.booleans()):
        K = set(range(sys.n))
    else:
        K = draw(st.sets(st.integers(0, sys.n - 1), min_size=1, max_size=8))
    return sys, d, k, m, eps, K


class TestExactTowers:
    @settings(max_examples=20, deadline=None)
    @given(tower_cases())
    def test_matches_fraction_oracle(self, case):
        sys, d, k, m, eps, K = case
        fam = build_tower_family(sys, d, k, m, eps, K)
        mu = _oracle_mu(sys, fam.supports, m, fam.k_prime, fam.K_prime)
        got = {
            (l, col - m, int(fam.points[l, s, col])): Fraction(int(fam.num[l, s, col]), fam.den)
            for l, s, col in zip(*np.nonzero(fam.num))
        }
        assert got == mu
        for x in K:
            assert sum(v for (_, _, y), v in mu.items() if y == x) == 1
        # mu[l][j] o alpha_i lives at alpha_{-i} y; every pair with a nonzero side is visited
        step = max(
            abs(v - mu.get((l, j - i, int(sys.power_perm(-i)[y])), Fraction(0)))
            for (l, j, y), v in mu.items() for i in range(-k, k + 1)
        )
        rep = verify_tower(fam)
        assert rep.conservation_exact and rep.conservation_error == 0.0
        assert rep.step_measured == float(step)
        assert rep.ok()

    def test_denominator_guard(self):
        assert _common_denominator([2**50], 0, 2**11) == 2**50
        with pytest.raises(TowerError, match=f"D = {2**50} "):
            _common_denominator([2**50], 0, 2**12)  # (2m+1) D >= 2^63
        D = math.lcm(*range(1, 45)) * 3
        with pytest.raises(TowerError, match=f"D = {D} "):
            _common_denominator(range(1, 45), 1, 5)  # D >= 2^53


class TestFamilyVerification:
    def test_acceptance_instance(self):
        sys = make_cycle_system([100])
        fam = build_tower_family(sys, d=0, k=1, m=5, eps="1/2", K=range(100))
        rep = verify_tower(fam)
        assert fam.k_prime == 2
        assert rep.conservation_exact
        assert rep.step_bound == pytest.approx(0.4)
        assert rep.step_measured <= rep.step_bound
        assert rep.ok()

    def test_quarter_epsilon_bound(self):
        sys = make_cycle_system([200])
        fam = build_tower_family(sys, d=0, k=1, m=min_window_length(0, 4), eps=0.25, K=range(200))
        rep = verify_tower(fam)
        assert fam.k_prime == 4
        assert rep.step_bound == pytest.approx(2 / 9)
        assert rep.ok()

    def test_step_bound_strictly_below_eps(self):
        for eps, k in [("1/2", 1), ("1/4", 1), ("1/2", 2), ("1/4", 2)]:
            kp = k * math.ceil(1 / as_fraction(eps))
            assert Fraction(2 * k, 2 * kp + 1) < as_fraction(eps)

    def test_levels_and_vanishing(self):
        sys = make_cycle_system([150], d=1)
        fam = build_tower_family(sys, d=1, k=1, m=min_window_length(1, 2), eps="1/2", K=range(150))
        assert fam.levels == 5
        rep = verify_tower(fam)
        assert rep.vanishes_outside and rep.supports_contain
        assert rep.ok()

    def test_family_ends_are_small(self):
        sys = make_cycle_system([100])
        fam = build_tower_family(sys, d=0, k=1, m=5, eps="1/2", K=range(100))
        for l in range(fam.levels):
            assert fam.end_sup(l) <= 1 / (2 * fam.k_prime + 1) + 1e-15

    def test_corrupted_family_fails_verification(self):
        import dataclasses

        sys = make_cycle_system([100])
        fam = build_tower_family(sys, d=0, k=1, m=5, eps="1/2", K=range(100))
        # perturb one numerator: conservation breaks
        num = fam.num.copy()
        num[0, 0, fam.m] += 1
        rep = verify_tower(dataclasses.replace(fam, num=num))
        assert not rep.ok()
        assert not rep.conservation_exact
        # move one point off its translate: containment breaks
        points = fam.points.copy()
        points[0, 0, fam.m] = (points[0, 0, fam.m] + 1) % sys.n
        rep = verify_tower(dataclasses.replace(fam, points=points))
        assert not rep.ok()
        assert not rep.supports_contain


class TestFractionHandling:
    def test_float_round_trip(self):
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(0.25) == Fraction(1, 4)
        assert as_fraction("3/10") == Fraction(3, 10)
        assert math.ceil(1 / as_fraction(0.2)) == 5  # float 1/0.2 would round up to 6


def constant_tower(m, n=None, sys=None):
    if sys is None:
        sys = make_cycle_system([2 * m + 1])
    return CyclicTower(sys=sys, values=np.ones((2 * m + 1, sys.n)), m=m, eps=0.1)


class TestConversions:
    def test_constant_tower_first_output_is_tent(self):
        m = 5
        tower = constant_tower(m)
        first, second, rep = cyclic_to_decaying(tower)
        tent = [_tent(j, m) for j in range(-m, m + 1)]
        assert np.allclose(first.values[:, 0], tent)
        assert rep["tolerance"] == pytest.approx(0.1 + 1 / (2 * m))

    @pytest.mark.parametrize("eps,m", [(0.1, 1), (0.1, 5), (0.25, 1), (0.25, 5)])
    def test_decay_bound(self, eps, m):
        sys = make_cycle_system([2 * m + 1])
        tower = CyclicTower(sys=sys, values=np.ones((2 * m + 1, sys.n)), m=m, eps=eps)
        first, second, rep = cyclic_to_decaying(tower)
        tol = eps + 1 / (2 * m)
        for t in (first, second):
            lo, hi = t.end_norms()
            assert max(lo, hi) <= tol
            assert t.verify()

    def test_m1_tolerance(self):
        tower = constant_tower(1)
        _, _, rep = cyclic_to_decaying(tower)
        assert rep["tolerance"] == pytest.approx(0.1 + 0.5)

    def test_exact_indicator_tower(self):
        m = 5
        sys = make_cycle_system([2 * m + 1])
        base = np.zeros(sys.n)
        base[0] = 1.0
        vals = np.stack([base[sys.power_perm(-j)] for j in range(-m, m + 1)])
        tower = CyclicTower(sys=sys, values=vals, m=m, eps=0.1)
        assert tower.measured_step() == 0.0
        first, second, rep = cyclic_to_decaying(tower)
        assert rep["first_ok"] and rep["second_ok"]

    def test_zero_end_decaying_keeps_tolerance(self):
        sys = make_cycle_system([11])
        vals = np.zeros((11, sys.n))
        vals[5, 0] = 1.0  # single middle rung
        t = DecayingTower(sys=sys, values=vals, m=5, eps=0.07)
        back, rep = decaying_to_cyclic(t)
        assert back.eps == pytest.approx(0.07)

    def test_wraparound_bounded_by_end_sum(self):
        sys = make_cycle_system([11])
        rng = np.random.default_rng(3)
        m = 5
        vals = rng.random((2 * m + 1, sys.n)) * 0.09
        t = DecayingTower(sys=sys, values=vals, m=m, eps=0.1)
        lo, hi = t.end_norms()
        assert max(lo, hi) < 0.1
        back, rep = decaying_to_cyclic(t)
        assert rep["wrap_step"] <= lo + hi + 1e-12
        assert rep["wrap_step"] <= 2 * 0.1

    def test_round_trip_degradation(self):
        for eps, m in [(0.1, 1), (0.1, 5), (0.25, 5)]:
            tower = CyclicTower(
                sys=make_cycle_system([2 * m + 1]),
                values=np.ones((2 * m + 1, 2 * m + 1)), m=m, eps=eps,
            )
            first, _, _ = cyclic_to_decaying(tower)
            back, rep = decaying_to_cyclic(first)
            budget = 1 / (2 * m) + 2 * (eps + 1 / (2 * m))
            assert back.eps - eps <= budget + 1e-12
            assert back.measured_step() <= back.eps + 1e-12

    def test_family_towers_convert(self):
        sys = make_cycle_system([100])
        fam = build_tower_family(sys, d=0, k=1, m=5, eps="1/2", K=range(100))
        dt = fam.decaying_tower(0)
        assert dt.verify()
        cyc, rep = decaying_to_cyclic(dt)
        assert rep["wrap_step"] <= sum(dt.end_norms()) + 1e-12
