import itertools

import numpy as np
import pytest

from rokhlin.dynsys import make_cycle_system
from rokhlin.markers import MarkerError, greedy_markers, marker_certificate

from metric_reference import (
    GroupWindow,
    cover_extension_step,
    cycle_metric,
    disjointness_margin,
    finite_boundary,
    free_locus,
    integer_action,
    is_disjoint_family,
    local_marker,
)


def brute_disjoint(sys, E, shifts, k):
    """Literal subset enumeration from the disjointness definition."""
    images = [frozenset(int(sys.power_perm(s)[x]) for x in E) for s in shifts]
    for combo in itertools.combinations(images, k + 1):
        inter = set.intersection(*(set(c) for c in combo))
        if inter:
            return False
    return True


class TestDisjointFamily:
    def test_singleton_window(self):
        sys = make_cycle_system([10])
        assert is_disjoint_family(sys, {0}, [-1, 0, 1], 1)

    def test_whole_space_fails(self):
        sys = make_cycle_system([10])
        assert not is_disjoint_family(sys, range(10), [0, 1], 1)

    def test_half_spaced_pair(self):
        sys = make_cycle_system([10])
        # images of {0, 5} under shifts 0 and 5 coincide
        assert not is_disjoint_family(sys, {0, 5}, [0, 5], 1)

    def test_duplicate_shifts_rejected(self):
        sys = make_cycle_system([10])
        with pytest.raises(MarkerError, match="coincide"):
            is_disjoint_family(sys, {0}, [0, 10], 1)  # alpha_10 = alpha_0 on a 10-cycle

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        sys = make_cycle_system([6, 9])
        for _ in range(60):
            E = {int(x) for x in rng.integers(0, sys.n, size=rng.integers(0, 6))}
            shifts = sorted({int(s) for s in rng.integers(-3, 4, size=3)})
            if len(shifts) < 2:
                continue
            k = int(rng.integers(1, len(shifts)))
            assert is_disjoint_family(sys, E, shifts, k) == brute_disjoint(sys, E, shifts, k)


class TestFreeLocus:
    def test_window_of_three(self):
        sys = make_cycle_system([3, 10])
        assert free_locus(sys, {0, 1, 2}) == frozenset(range(13))

    def test_window_of_four_drops_triangle(self):
        sys = make_cycle_system([3, 10])
        locus = free_locus(sys, {0, 1, 2, 3})
        assert len(locus) == 10
        # brute force: per-point injectivity
        for x in range(sys.n):
            images = {int(sys.power_perm(g)[x]) for g in (0, 1, 2, 3)}
            assert (len(images) == 4) == (x in locus)

    def test_single_element_window(self):
        sys = make_cycle_system([3, 10])
        assert free_locus(sys, {0}) == frozenset(range(13))

    def test_interval_criterion(self):
        # for an integer interval, freeness is exactly length > max - min
        sys = make_cycle_system([4, 6, 9])
        for lo, hi in [(-2, 2), (0, 5), (1, 9)]:
            locus = free_locus(sys, range(lo, hi + 1))
            for cyc in sys.orbits().cycles:
                inside = set(cyc.order) <= locus
                assert inside == (cyc.length > hi - lo)


class TestGreedyMarkers:
    def test_hundred_cycle(self):
        sys = make_cycle_system([100])
        cert = greedy_markers(sys, 2, range(100))
        positions = sorted(sys.orbits().pos[x] for x in cert.markers)
        assert positions == list(range(0, 100, 5))
        assert cert.flag_disjoint and cert.flag_cover

    def test_twelve_cycle_remainder(self):
        sys = make_cycle_system([12])
        cert = greedy_markers(sys, 2, range(12))
        positions = sorted(sys.orbits().pos[x] for x in cert.markers)
        assert positions == [0, 6]
        assert cert.ok()

    def test_boundary_length_rejected(self):
        sys = make_cycle_system([9])
        with pytest.raises(MarkerError, match="length > "):
            greedy_markers(sys, 2, range(9))

    def test_m_zero_rejected(self):
        sys = make_cycle_system([30])
        with pytest.raises(MarkerError):
            greedy_markers(sys, 0, range(30))

    def test_cycles_not_meeting_K_skipped(self):
        sys = make_cycle_system([3, 100])
        cyc100 = [c for c in sys.orbits().cycles if c.length == 100][0]
        cert = greedy_markers(sys, 2, cyc100.order)
        assert cert.ok()
        assert all(x in set(cyc100.order) for x in cert.markers)

    def test_separation_and_gaps_random(self):
        # marker separation >= 2m+1 and gaps within [2m+1, 4m+1], many systems
        rng = np.random.default_rng(5)
        runs = 0
        while runs < 200:
            d = int(rng.integers(0, 3))
            m = int(rng.integers(2, 4))
            N = (d + 1) * (4 * m + 1)
            lengths = [int(rng.integers(N + 1, 5 * N + 1)) for _ in range(rng.integers(1, 3))]
            sys = make_cycle_system(lengths, d)
            cert = greedy_markers(sys, m, range(sys.n))
            assert cert.flag_disjoint and cert.flag_cover
            dec = sys.orbits()
            for cyc in dec.cycles:
                pos = sorted(dec.pos[x] for x in cert.markers if x in set(cyc.order))
                gaps = [pos[i + 1] - pos[i] for i in range(len(pos) - 1)]
                gaps.append(cyc.length - pos[-1] + pos[0])
                assert all(2 * m + 1 <= g <= 4 * m + 1 for g in gaps)
            runs += 1

    def test_certificate_witnesses(self):
        sys = make_cycle_system([20])
        bad = marker_certificate(sys, [0, 1], 2, range(20))
        assert not bad.flag_disjoint and bad.witness_disjoint is not None
        # point 0 is alpha_{-1}(1) and alpha_0(0)
        assert bad.witness_disjoint == ("c0p00", (-1, 0))
        sparse = marker_certificate(sys, [0], 1, range(20), d=0)
        assert not sparse.flag_cover and sparse.witness_cover is not None
        assert sparse.witness_cover == 0  # the translates over [1, 5] miss point 0


class TestGroupWindow:
    def test_integer_window_is_interval(self):
        w = GroupWindow.integers(2, 1)
        assert sorted(w.M()) == list(range(1, 19))
        assert w.d == 1

    def test_overlapping_translates_rejected(self):
        with pytest.raises(MarkerError, match="overlap"):
            GroupWindow(F=(0, 1), translates=(0, 1))

    def test_identity_in_difference_window(self):
        w = GroupWindow(F=(3, 4), translates=(0,))
        assert 0 in w.difference_window()

    def test_noncommutative_oracles(self):
        # permutations of 3 letters under composition: never assumes commutativity
        import itertools as it

        perms = {p: p for p in it.permutations(range(3))}

        def compose(a, b):
            return tuple(a[b[i]] for i in range(3))

        def inverse(a):
            out = [0] * 3
            for i, v in enumerate(a):
                out[v] = i
            return tuple(out)

        ident = (0, 1, 2)
        F = (ident, (1, 0, 2))
        w = GroupWindow(F=F, translates=(ident,), compose=compose, inverse=inverse, identity=ident)
        assert ident in w.difference_window()


class TestMargin:
    def test_unit_cycle_singleton(self):
        sys = make_cycle_system([10])
        assert disjointness_margin(sys, cycle_metric([10]), {0}, [-1, 0, 1], 1) == 0.5

    def test_empty_set_gets_max_candidate(self):
        sys = make_cycle_system([10])
        assert disjointness_margin(sys, cycle_metric([10]), set(), [-1, 0, 1], 1) == 2.5

    def test_tight_packing_keeps_smallest_candidate(self):
        # alternating set with adjacent shifts: any enlargement past half the
        # minimal distance merges the images
        sys = make_cycle_system([10])
        E = {0, 2, 4, 6, 8}
        assert disjointness_margin(sys, cycle_metric([10]), E, [0, 1], 1) == 0.5
        ball = {x for x in range(10)}
        assert not is_disjoint_family(sys, ball, [0, 1], 1)

    def test_not_disjoint_rejected(self):
        sys = make_cycle_system([10])
        with pytest.raises(MarkerError, match="not disjoint"):
            disjointness_margin(sys, cycle_metric([10]), {0, 5}, [0, 5], 1)


class TestBoundary:
    def test_interval_boundary(self):
        sys = make_cycle_system([10])
        assert finite_boundary(sys, cycle_metric([10]), {2, 3, 4}) == frozenset({2, 4})

    def test_full_and_empty(self):
        sys = make_cycle_system([10])
        assert finite_boundary(sys, cycle_metric([10]), set()) == frozenset()
        assert finite_boundary(sys, cycle_metric([10]), range(10)) == frozenset()


class TestCoverExtension:
    def window60(self):
        return GroupWindow(F=(0, 1), translates=(0, 5))

    def test_empty_U_absorbs_markers(self):
        sys = make_cycle_system([60], d=1)
        V = {0, 10, 20, 30, 40, 50}
        res = cover_extension_step(sys, cycle_metric([60]), frozenset(), V, self.window60())
        act = integer_action(sys)
        covered = set()
        for g in self.window60().M():
            covered |= {int(act(g)[x]) for x in res.W}
        assert V <= covered
        assert is_disjoint_family(sys, res.W, [act(0), act(1)], 1)

    def test_covered_V_returns_U(self):
        sys = make_cycle_system([60], d=1)
        w = self.window60()
        first = cover_extension_step(sys, cycle_metric([60]), frozenset(), {17}, w)
        again = cover_extension_step(sys, cycle_metric([60]), first.W, {17}, w)
        assert again.W == first.W
        assert again.centers == ()

    def test_non_disjoint_U_rejected(self):
        sys = make_cycle_system([60], d=1)
        with pytest.raises(MarkerError, match=r"U is not"):
            cover_extension_step(sys, cycle_metric([60]), {0, 1}, {30}, self.window60())

    def test_non_disjoint_V_rejected(self):
        sys = make_cycle_system([8], d=1)
        # on an 8-cycle the inverse window of M = {-1..1, 4..6} collides
        with pytest.raises(MarkerError, match="V is not"):
            cover_extension_step(sys, cycle_metric([8]), frozenset(), {0, 4}, self.window60())


class TestLocalMarker:
    def test_empty_K(self):
        sys = make_cycle_system([60])
        res = local_marker(sys, cycle_metric([60]), set(), GroupWindow.integers(2, 0))
        assert res.markers == frozenset()

    def test_single_point(self):
        sys = make_cycle_system([60])
        w = GroupWindow.integers(2, 0)
        res = local_marker(sys, cycle_metric([60]), {7}, w)
        assert len(res.markers) == 1
        z = next(iter(res.markers))
        # the marker sits in an inverse-window translate of the covered point
        assert any(int(integer_action(sys)(-g)[7]) == z for g in w.M())
        assert res.flag_cover and res.flag_disjoint

    @pytest.mark.parametrize("d,m,lengths", [
        (0, 2, [60]), (0, 3, [25, 35]), (1, 2, [60]), (2, 2, [58]),
    ])
    def test_cross_validates_greedy(self, d, m, lengths):
        sys = make_cycle_system(lengths, d)
        w = GroupWindow.integers(m, d)
        res = local_marker(sys, cycle_metric(lengths), range(sys.n), w)
        assert res.flag_cover and res.flag_disjoint
        # identical exhaustive checks as the greedy certificate
        cert = marker_certificate(sys, sorted(res.markers), m, range(sys.n), d)
        assert cert.flag_disjoint and cert.flag_cover
        greedy = greedy_markers(sys, m, range(sys.n), d)
        assert greedy.ok()

    def test_unfree_point_rejected(self):
        sys = make_cycle_system([8])
        with pytest.raises(MarkerError, match="not free"):
            local_marker(sys, cycle_metric([8]), {0}, GroupWindow.integers(2, 0))

    def test_noncommutative_group_action(self):
        # the symmetric group on three letters acting on itself by left
        # translation: the fold must work without any commutativity
        import itertools as it
        import json

        import numpy as np

        from rokhlin.dynsys import load_system

        elements = sorted(it.permutations(range(3)))
        index = {g: i for i, g in enumerate(elements)}

        def compose(a, b):
            return tuple(a[b[i]] for i in range(3))

        def inverse(a):
            out = [0] * 3
            for i, v in enumerate(a):
                out[v] = i
            return tuple(out)

        ident = (0, 1, 2)
        labels = ["".join(map(str, g)) for g in elements]
        metric = np.ones((6, 6)) - np.eye(6)
        sys = load_system(json.dumps({"points": labels, "map": {lab: lab for lab in labels}, "dimension": 1}))

        def action(g):
            return np.array([index[compose(g, x)] for x in elements])

        swap = (1, 0, 2)
        cycle3 = (1, 2, 0)
        assert compose(swap, cycle3) != compose(cycle3, swap)  # honestly non-abelian
        window = GroupWindow(
            F=(ident, swap), translates=(ident, cycle3),
            compose=compose, inverse=inverse, identity=ident,
        )
        result = local_marker(sys, metric, range(6), window, action)
        assert result.flag_disjoint and result.flag_cover
        covered = set()
        for g in window.M():
            covered |= {int(action(g)[x]) for x in result.markers}
        assert covered == set(range(6))
        # (F,1)-disjointness: the swap translate of the markers avoids them
        swapped = {int(action(swap)[x]) for x in result.markers}
        assert not (swapped & set(result.markers))
