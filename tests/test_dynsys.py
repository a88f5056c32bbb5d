import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rokhlin.dynsys import (
    FiniteDynamicalSystem,
    MetricError,
    SystemFormatError,
    invariant_split,
    load_system,
    make_cycle_system,
    make_rotation_system,
    orbit_decomposition,
    quotient_report,
)


def brute_orbit_lengths(sys):
    """Independent orbit walk: follow the forward map until the start repeats."""
    seen = set()
    lengths = []
    for start in range(sys.n):
        if start in seen:
            continue
        x, steps = start, 0
        while True:
            seen.add(x)
            x = int(sys.perm[x])
            steps += 1
            if x == start:
                break
        lengths.append(steps)
    return sorted(lengths)


def doc_for(points, mapping, **extra):
    return json.dumps({"points": points, "map": mapping, **extra})


class TestLoadSystem:
    def test_three_cycle(self):
        sys = load_system(doc_for(["a", "b", "c"], {"a": "b", "b": "c", "c": "a"}))
        assert brute_orbit_lengths(sys) == [3]
        assert len(sys.orbits().cycles) == 1

    def test_not_injective_reports_target(self):
        with pytest.raises(SystemFormatError, match="not injective"):
            load_system(doc_for(["a", "b"], {"a": "b", "b": "b"}))

    def test_ten_cycle_with_arc_metric_passes_triangle_audit(self):
        q = 10
        points = [f"p{j}" for j in range(q)]
        mapping = {points[j]: points[(j + 1) % q] for j in range(q)}
        metric = []
        for i in range(q):
            for j in range(i + 1, q):
                d = min(abs(i - j), q - abs(i - j))
                metric.append([points[i], points[j], float(d)])
        sys = load_system(doc_for(points, mapping, metric=metric))
        # oracle: exhaustive triple loop
        for i in range(q):
            for j in range(q):
                for k in range(q):
                    assert sys.metric[i, j] <= sys.metric[i, k] + sys.metric[k, j] + 1e-12

    def test_unknown_field_rejected(self):
        with pytest.raises(SystemFormatError, match="unknown fields"):
            load_system(doc_for(["a"], {"a": "a"}, extra=1))

    def test_missing_map(self):
        with pytest.raises(SystemFormatError, match="required"):
            load_system(json.dumps({"points": ["a"]}))

    def test_bad_json(self):
        with pytest.raises(SystemFormatError, match="JSON"):
            load_system("{not json")

    def test_triangle_violation_reported(self):
        points = ["a", "b", "c"]
        mapping = {"a": "b", "b": "c", "c": "a"}
        metric = [["a", "b", 1.0], ["b", "c", 1.0], ["a", "c", 5.0]]
        with pytest.raises(MetricError, match="triangle"):
            load_system(doc_for(points, mapping, metric=metric))

    def test_missing_pair_reported(self):
        metric = [["a", "b", 1.0]]
        with pytest.raises(MetricError, match="missing distance"):
            load_system(doc_for(["a", "b", "c"], {"a": "b", "b": "c", "c": "a"}, metric=metric))

    def test_map_target_unknown(self):
        with pytest.raises(SystemFormatError):
            load_system(doc_for(["a"], {"a": "z"}))


class TestFactories:
    def test_cycle_system_3_10(self):
        sys = make_cycle_system([3, 10])
        assert sys.n == 13
        assert brute_orbit_lengths(sys) == [3, 10]

    def test_single_fixed_point(self):
        sys = make_cycle_system([1])
        assert sys.n == 1
        assert int(sys.perm[0]) == 0

    def test_two_five_cycles_d1(self):
        sys = make_cycle_system([5, 5], d=1)
        assert sys.declared_dim == 1
        dec = orbit_decomposition(sys)
        assert sorted(c.length for c in dec.cycles) == [5, 5]

    def test_empty_lengths(self):
        with pytest.raises(ValueError):
            make_cycle_system([])

    def test_zero_length(self):
        with pytest.raises(ValueError):
            make_cycle_system([3, 0])

    def test_metric_axioms_small(self):
        sys = make_cycle_system([3, 4])
        m = sys.metric
        assert np.array_equal(m, m.T)
        assert np.all(np.diagonal(m) == 0)
        off = m[~np.eye(sys.n, dtype=bool)]
        assert off.min() > 0
        for k in range(sys.n):
            assert np.all(m <= m[:, k, None] + m[None, k, :] + 1e-12)

    def test_cross_cycle_distance_dominates(self):
        sys = make_cycle_system([4, 6])
        a = sys.index["c0p0"]
        b = sys.index["c1p0"]
        assert sys.metric[a, b] == 10.0 * 3

    def test_rotation_full_orbit(self):
        sys = make_rotation_system(12, 5)
        assert brute_orbit_lengths(sys) == [12]

    def test_rotation_four_orbits(self):
        sys = make_rotation_system(12, 4)
        assert brute_orbit_lengths(sys) == [3, 3, 3, 3]

    def test_rotation_fixed_point(self):
        sys = make_rotation_system(1, 0)
        assert brute_orbit_lengths(sys) == [1]
        assert sys.declared_dim == 1

    def test_rotation_zero_q(self):
        with pytest.raises(ValueError):
            make_rotation_system(0, 1)


class TestOrbitsAndSplit:
    def test_decomposition_positions(self):
        sys = make_cycle_system([3, 10])
        dec = orbit_decomposition(sys)
        offset = 0
        for cyc in dec.cycles:
            for pos, pt in enumerate(cyc.order):
                assert (dec.start[pt], dec.length[pt], dec.pos[pt]) == (offset, cyc.length, pos)
                assert dec.order[offset + pos] == pt
                assert int(sys.perm[pt]) == cyc.order[(pos + 1) % cyc.length]
            offset += cyc.length

    def test_base_is_least_label(self):
        sys = make_cycle_system([4, 4])
        for cyc in orbit_decomposition(sys).cycles:
            assert sys.labels[cyc.base] == min(sys.labels[p] for p in cyc.order)

    def test_split_examples(self):
        sys = make_cycle_system([3, 10])
        sp = invariant_split(sys, 5)
        assert len(sp.y_part) == 3 and len(sp.complement) == 10
        assert not invariant_split(sys, 10).complement

    def test_split_multiset(self):
        sys = make_cycle_system([2, 2, 7, 100])
        sp = invariant_split(sys, 25)
        assert len(sp.y_part) == 11 and len(sp.complement) == 100

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    def test_factory_reports_exact_length_multiset(self, lengths):
        sys = make_cycle_system(lengths)
        assert sorted(c.length for c in orbit_decomposition(sys).cycles) == sorted(lengths)
        assert brute_orbit_lengths(sys) == sorted(lengths)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=5), st.integers(1, 10))
    def test_split_invariance_property(self, lengths, N):
        sys = make_cycle_system(lengths)
        sp = invariant_split(sys, N)
        assert sp.y_part | sp.complement == set(range(sys.n))
        assert not (sp.y_part & sp.complement)
        for part in (sp.y_part, sp.complement):
            assert {int(sys.perm[x]) for x in part} == set(part)
            assert {int(sys.perm_inv[x]) for x in part} == set(part)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=4),
        st.data(),
        st.integers(-12, 12),
        st.integers(0, 24),
    )
    def test_translate_counts_match_apply(self, lengths, data, lo, width):
        # reference: one image per exponent through apply (power_perm)
        sys = make_cycle_system(lengths)
        subset = data.draw(st.frozensets(st.integers(0, sys.n - 1)))
        expected = np.zeros(sys.n, dtype=np.int64)
        for i in range(lo, lo + width + 1):
            for x in sys.apply(i, subset):
                expected[x] += 1
        assert np.array_equal(sys.translate_counts(subset, lo, lo + width), expected)


class TestQuotientReport:
    def test_two_five(self):
        rep = quotient_report(make_cycle_system([2, 5]))
        assert rep.quotient_size == 2
        assert [r["fiber"] for r in rep.rows] == ["M_2 over the circle", "M_5 over the circle"]
        assert [r["stabilizer"] for r in rep.rows] == ["2Z", "5Z"]

    def test_fixed_point_bound(self):
        rep = quotient_report(make_cycle_system([1], d=0))
        assert rep.bound_plus_one == 2

    def test_declared_dim_scales_bound(self):
        rep = quotient_report(make_cycle_system([4], d=3))
        assert rep.bound_plus_one == (3 + 1) * 2
        assert rep.quotient_dim == 3

    def test_empty_system(self):
        from rokhlin.dynsys import FiniteDynamicalSystem

        empty = FiniteDynamicalSystem([], {}, None, 0)
        rep = quotient_report(empty)
        assert rep.rows == ()
        assert rep.quotient_size == 0


@st.composite
def shuffled_cycle_systems(draw):
    """Cycles whose labels, and so whose point indices, come in a random order."""
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    labels = draw(st.permutations([f"q{i}" for i in range(sum(lengths))]))
    forward, offset = {}, 0
    for L in lengths:
        cyc = labels[offset : offset + L]
        forward.update((cyc[j], cyc[(j + 1) % L]) for j in range(L))
        offset += L
    points = draw(st.permutations(labels))
    return FiniteDynamicalSystem(points, forward)


class TestCycleCoordinates:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_cycle_systems(), st.data())
    def test_power_perm_and_apply_match_stepping(self, sys, data):
        subset = data.draw(st.frozensets(st.integers(0, sys.n - 1)))
        for step, sign in ((sys.perm, 1), (sys.perm_inv, -1)):
            cur = np.arange(sys.n)
            for k in range(3 * sys.n + 1):
                i = sign * k
                assert np.array_equal(sys.power_perm(i), cur)
                assert sys.apply(i, subset) == frozenset(int(cur[x]) for x in subset)
                cur = step[cur]

    def test_power_perm_keeps_nothing(self):
        sys = make_cycle_system([3, 7, 1000])
        sys.power_perm(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(-1000, 1001):
                sys.power_perm(i)
            del i  # the loop variable outlives the loop
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after == before
