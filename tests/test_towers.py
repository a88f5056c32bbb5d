import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rokhlin import towers
from rokhlin.dynsys import make_cycle_system
from rokhlin.markers import greedy_markers
from rokhlin.towers import (
    TowerError,
    as_fraction,
    build_partition,
    build_tower_family,
    min_window_length,
    tower_supports,
    verify_tower,
    _check_window,
    _common_denominator,
    _overlapping_level,
    _tower_points,
    _window_sum,
)


class TestSupports:
    def test_shift_formula_d0(self):
        sys = make_cycle_system([30])
        cert = greedy_markers(sys, 2, range(30))
        sup = tower_supports(sys, cert, k=1)[:, :, 2]
        assert len(sup) == 3
        for l in range(3):
            assert np.array_equal(sup[l], np.sort(sys.power_perm(3 * l + 2)[cert.markers]))

    def test_shift_formula_d1(self):
        sys = make_cycle_system([80], d=1)
        cert = greedy_markers(sys, 9, range(80), d=1)
        sup = tower_supports(sys, cert, k=1)[:, :, 9]
        assert len(sup) == 5
        for l in range(5):
            assert np.array_equal(sup[l], np.sort(sys.power_perm(17 * l + 9)[cert.markers]))

    def test_window_too_small(self):
        sys = make_cycle_system([30])
        cert = greedy_markers(sys, 1, range(30))
        with pytest.raises(TowerError, match="too small"):
            tower_supports(sys, cert, k=1)

    def test_failed_certificate_is_named_in_one_short_line(self):
        # one marker on a 900-cycle leaves points uncovered: the refusal
        # names the failed row and its witness point by label, not the
        # certificate's 900-point mask
        sys = make_cycle_system([900])
        with pytest.raises(TowerError) as uncovered:
            build_tower_family(sys, 0, 1, 20, "1/2", range(900), markers=[0])
        message = str(uncovered.value)
        assert len(message) < 200 and "\n" not in message
        assert "covering_violations at 'c0p000'" in message and "disjointness" not in message
        # markers 30 apart overlap within [-20, 20]: the other row is named
        with pytest.raises(TowerError) as overlapping:
            build_tower_family(sys, 0, 1, 20, "1/2", range(900), markers=range(0, 900, 30))
        assert str(overlapping.value) == (
            "marker certificate failed: translate_disjointness_violations at ('c0p010', (-20, 10))"
        )

    def test_min_window_length(self):
        assert min_window_length(0, 1) == 2
        assert min_window_length(0, 2) == 5
        # exact where a float would round 3 * 10**17 - 1 up
        assert min_window_length(0, 10**17) == 3 * 10**17 - 1
        # boundary: m = 5 admissible for d=0, k'=2
        sys = make_cycle_system([100])
        cert = greedy_markers(sys, 5, range(100))
        assert len(tower_supports(sys, cert, k=2)) == 3

    def test_window_refusal_matches_min_window_length(self):
        # _check_window refuses exactly the m below min_window_length
        for d, k in [(0, 1), (0, 2), (1, 1), (1, 3), (2, 5), (0, 10**17), (3, 10**17 + 1)]:
            need = min_window_length(d, k)
            _check_window(d, k, need)
            with pytest.raises(TowerError, match="too small"):
                _check_window(d, k, need - 1)

    def test_reads_d_from_the_certificate(self):
        # a d = 1 certificate gives 2d + 3 = 5 levels with no d passed, on a
        # system that declares d = 0
        sys = make_cycle_system([80])
        cert = greedy_markers(sys, 9, range(80), d=1)
        assert (sys.declared_dim, cert.d) == (0, 1)
        points = tower_supports(sys, cert, k=1)
        assert points.shape == (5, len(cert.markers), 2 * 9 + 1)


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
        anchors = family.points[:, :, m]
        assert (np.diff(anchors, axis=1) > 0).all()  # each support in sorted order
        powers = stepped_powers(sys, m)
        reference = np.stack([powers[j][anchors] for j in range(-m, m + 1)], axis=-1)
        assert np.array_equal(_tower_points(sys, anchors, m), reference)
        assert np.array_equal(family.points, reference)


def _overlapping_level_by_unique(points):
    """Reference: the first level with a repeated point, by np.unique."""
    for l, level in enumerate(points):
        if np.unique(level).size < level.size:
            return l
    return None


class TestOverlappingLevel:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("collision", [None, "within_anchor", "across_anchors"])
    def test_matches_unique_reference(self, seed, collision):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 400))
        anchors = int(rng.integers(2, 6))
        rungs = int(rng.integers(2, n // anchors + 1))
        levels = int(rng.integers(3, 8))
        # each level: anchors x rungs distinct points of an n-point system
        points = np.stack([rng.permutation(n)[: anchors * rungs].reshape(anchors, rungs) for _ in range(levels)])
        mid = levels // 2
        if collision == "within_anchor":
            a, (j, j2) = rng.integers(anchors), rng.choice(rungs, 2, replace=False)
            points[mid, a, j2] = points[mid, a, j]
        elif collision == "across_anchors":
            a, a2 = rng.choice(anchors, 2, replace=False)
            points[mid, a2, rng.integers(rungs)] = points[mid, a, rng.integers(rungs)]
        expected = _overlapping_level_by_unique(points)
        assert expected == (None if collision is None else mid)
        assert _overlapping_level(points, n) == expected


class TestPartition:
    def build(self, K_prime=range(100)):
        sys = make_cycle_system([100])
        cert = greedy_markers(sys, 5, range(100))
        points = tower_supports(sys, cert, k=2)
        return sys, points, *build_partition(sys, points, k_prime=2, K_prime=K_prime)

    def test_values_are_equal_splits(self):
        sys, points, num, den = self.build()
        counts = {}
        jmax = 5 - 2
        for supp in points[:, :, 5]:
            for j in range(-jmax, jmax + 1):
                for x in sys.power_perm(j)[supp].tolist():
                    counts[x] = counts.get(x, 0) + 1
        nonzero = [(x, v) for x, v in zip(points.ravel().tolist(), num.ravel().tolist()) if v]
        for x, v in nonzero:
            assert Fraction(v, den) == Fraction(1, counts[x])
        # one value per covering pair, and both cover multiplicities occur here
        assert len(nonzero) == sum(counts.values())
        assert {counts[x] for x in counts} == {1, 2}

    def test_total_is_one_everywhere(self):
        sys, points, num, den = self.build()
        totals = np.zeros(sys.n, dtype=np.int64)
        np.add.at(totals, points.ravel(), num.ravel())
        assert np.all(totals == den)

    def test_total_vanishes_off_K_prime(self):
        # the deficit p_inf = 1 off K' is implicit: no partition value lives there
        K_prime = set(range(20, 70))
        sys, points, num, den = self.build(sorted(K_prime))
        totals = np.zeros(sys.n, dtype=np.int64)
        np.add.at(totals, points.ravel(), num.ravel())
        assert all(totals[x] == (den if x in K_prime else 0) for x in range(sys.n))

    def test_uncovered_point_reported(self):
        sys = make_cycle_system([100])
        cert = greedy_markers(sys, 5, range(100))
        points = tower_supports(sys, cert, k=2)
        with pytest.raises(TowerError, match="covered by no"):
            # k' too wide: admissible j-range shrinks to nothing
            build_partition(sys, points, k_prime=5, K_prime=range(100))


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
        fam = build_tower_family(sys, d=0, k=1, m=5, eps="1/2", K=sorted(K), markers=[27])
        values = {Fraction(int(v), fam.den) for v in fam.num.ravel()}
        assert values <= {Fraction(i, 5) for i in range(6)}
        assert verify_tower(fam).ok()


def _oracle_mu(sys, anchors, m, k_prime, K_prime):
    """Exact mu[(l, j, x)] = (2k'+1)^{-1} sum_{|i| <= k'} p[l][j+i](alpha_i x),
    from an equal-split partition built point by point; K_prime is a mask."""
    jmax = m - k_prime
    pairs = {}
    for l, sup in enumerate(anchors):
        for j in range(-jmax, jmax + 1):
            for x in sys.power_perm(j)[sup].tolist():
                if K_prime[x]:
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
        fam = build_tower_family(sys, d, k, m, eps, sorted(K))
        mu = _oracle_mu(sys, fam.points[:, :, m], m, fam.k_prime, fam.K_prime)
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
    def test_tower_points_computed_once(self, monkeypatch):
        # tower_supports computes the points and build_partition reads them
        calls = []
        tower_points = towers._tower_points

        def counted(*args):
            calls.append(args)
            return tower_points(*args)

        monkeypatch.setattr(towers, "_tower_points", counted)
        fam = build_tower_family(make_cycle_system([100]), d=0, k=1, m=5, eps="1/2", K=range(100))
        assert len(calls) == 1
        assert verify_tower(fam).ok()

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

