import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rokhlin.dynsys import (
    Cycle,
    FiniteDynamicalSystem,
    SystemFormatError,
    invariant_split,
    load_system,
    make_cycle_system,
    make_rotation_system,
    orbit_decomposition,
    quotient_report,
)

from metric_reference import cycle_metric


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


def walk_decomposition(sys):
    """The per-point orbit walk that orbit_decomposition replaced: cycles in
    label order of their least label, each walked forward from it."""
    seen = np.zeros(sys.n, dtype=bool)
    cycles = []
    for lab in sorted(sys.labels):
        start = sys.index[lab]
        if seen[start]:
            continue
        order = [start]
        seen[start] = True
        x = int(sys.perm[start])
        while x != start:
            seen[x] = True
            order.append(x)
            x = int(sys.perm[x])
        cycles.append(Cycle(base=start, length=len(order), order=np.array(order, dtype=np.int64)))
    order = np.array([x for c in cycles for x in c.order], dtype=np.int64)
    start, length, pos = (np.empty(sys.n, dtype=np.int64) for _ in range(3))
    offset = 0
    for c in cycles:
        for p, x in enumerate(c.order):
            start[x], length[x], pos[x] = offset, c.length, p
        offset += c.length
    return tuple(cycles), order, start, length, pos


@st.composite
def permutation_systems(draw):
    """A system on shuffled labels whose map has fixed points, short cycles
    and one long cycle."""
    fixed = draw(st.integers(0, 6))
    short = draw(st.lists(st.integers(2, 9), max_size=5))
    long_ = draw(st.sampled_from([0, 37, 64, 300]))
    lengths = [1] * fixed + short + ([long_] if long_ else [])
    n = sum(lengths)
    if n == 0:
        lengths, n = [1], 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells, forward, offset = rng.permutation(n), {}, 0
    labels = [f"p{v:04d}" for v in rng.permutation(n)]
    for L in lengths:
        cyc = cells[offset : offset + L]
        for j in range(L):
            forward[labels[cyc[j]]] = labels[cyc[(j + 1) % L]]
        offset += L
    return load_system(doc_for(labels, forward))


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

    @pytest.mark.parametrize("points, mapping, message", [
        (["a", "a"], {"a": "a"}, "duplicate point labels"),
        (["a", "b"], {"a": "b", "c": "a"}, r"map domain mismatch: missing=\['b'\] extra=\['c'\]"),
        # the first bad target in the map's own order, not in point order
        (["a", "b", "c"], {"c": "yy", "a": "b", "b": "zz"}, "map target 'yy' is not a point"),
    ], ids=["duplicate", "domain", "target"])
    def test_format_errors_name_the_fault(self, points, mapping, message):
        with pytest.raises(SystemFormatError, match=f"^{message}$"):
            load_system(doc_for(points, mapping))

    def test_perm_and_inverse_follow_the_labels(self):
        sys = load_system(doc_for(["c", "a", "b"], {"a": "b", "b": "c", "c": "a"}))
        assert sys.perm.tolist() == [1, 2, 0] and sys.perm_inv.tolist() == [2, 0, 1]
        assert sys.perm.dtype == sys.perm_inv.dtype == np.int64

    def test_keeps_its_label_index(self):
        # the dict load_system fills perm from is the system's index, so no
        # first read builds it again
        sys = load_system(doc_for(["c", "a", "b"], {"a": "b", "b": "c", "c": "a"}))
        assert "index" in sys.__dict__ and sys.index == {"a": 0, "b": 1, "c": 2}

    def test_unknown_field_rejected(self):
        with pytest.raises(SystemFormatError, match="unknown fields"):
            load_system(doc_for(["a"], {"a": "a"}, extra=1))

    def test_missing_map(self):
        with pytest.raises(SystemFormatError, match="required"):
            load_system(json.dumps({"points": ["a"]}))

    def test_bad_json(self):
        with pytest.raises(SystemFormatError, match="JSON"):
            load_system("{not json")

    def test_metric_key_refused(self):
        # a system is labels, a map and a dimension: a distance table is an
        # unknown field like any other
        metric = [["a", "b", 1.0], ["b", "c", 1.0], ["a", "c", 1.0]]
        with pytest.raises(SystemFormatError, match=r"^unknown fields: \['metric'\]$"):
            load_system(doc_for(["a", "b", "c"], {"a": "b", "b": "c", "c": "a"}, metric=metric))

    def test_map_target_unknown(self):
        with pytest.raises(SystemFormatError):
            load_system(doc_for(["a"], {"a": "z"}))


class TestConstructor:
    @pytest.mark.parametrize("labels, perm, message", [
        (["b", "a"], [0, 1], "labels must be strictly increasing"),
        (["a", "a"], [0, 1], "labels must be strictly increasing"),
        (["a", "b"], [0], r"perm must be an integer array of length 2, got int64 \(1,\)"),
        (["a", "b"], [0, 2], "perm index 2 is not a point"),
        (["a", "b"], [-1, 0], "perm index -1 is not a point"),
        (["a", "b"], [1.0, 0.0], r"perm must be an integer array of length 2, got float64 \(2,\)"),
        (["a", "b"], [1, 1], r"map is not injective: targets \['b'\] have multiple preimages"),
    ], ids=["unsorted", "duplicate", "length", "past-the-end", "negative", "float", "repeated-target"])
    def test_refuses_anything_but_sorted_labels_and_a_permutation(self, labels, perm, message):
        with pytest.raises(SystemFormatError, match=f"^{message}$"):
            FiniteDynamicalSystem(labels, np.array(perm))

    def test_takes_sorted_labels_and_an_index_array(self):
        sys = FiniteDynamicalSystem(["a", "b", "c"], np.array([2, 0, 1], dtype=np.int32), np.int8(2))
        assert sys.perm.tolist() == [2, 0, 1] and sys.perm_inv.tolist() == [1, 2, 0]
        assert sys.perm.dtype == np.int64 and sys.declared_dim == 2
        assert sys.index == {"a": 0, "b": 1, "c": 2}


class TestFactories:
    def test_cycle_system_3_10(self):
        sys = make_cycle_system([3, 10])
        assert sys.n == 13
        assert brute_orbit_lengths(sys) == [3, 10]

    @pytest.mark.parametrize("lengths", [[1], [3, 10], [7, 1, 12, 100, 3, 5, 9, 2, 4, 6, 11]])
    def test_cycle_labels_are_zero_padded(self, lengths):
        cw, pw = len(str(len(lengths) - 1)), len(str(max(lengths) - 1))
        want = [f"c{ci:0{cw}d}p{j:0{pw}d}" for ci, L in enumerate(lengths) for j in range(L)]
        assert list(make_cycle_system(lengths).labels) == want

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
        # the reference metric of the marker fold, in make_cycle_system's point order
        sys = make_cycle_system([3, 4])
        m = cycle_metric([3, 4])
        assert m.shape == (sys.n, sys.n)
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
        assert cycle_metric([4, 6])[a, b] == 10.0 * 3

    def test_cycle_build_holds_no_n_by_n_table(self):
        # labels, map and orbit arrays only: 21 MiB traced at 10^5 points
        # (198 MiB at 10^6), where an n x n table would need 80 GB
        tracemalloc.start()
        try:
            sys = make_cycle_system([3, 7, 10**5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sys.n == 100_010 and peak < 32 * 2**20

    def test_orbits_and_split_hold_arrays_only(self):
        # five int64 arrays over the points (3.8 MiB at 10^5 points) and one
        # mask: no per-point Python ints in the cycles or the split
        sys = make_cycle_system([3, 7, 10**5])
        tracemalloc.start()
        try:
            split = invariant_split(sys, 50)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 5 * 2**20
        assert split.long.sum() == 10**5

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

    @settings(max_examples=80, deadline=None)
    @given(permutation_systems())
    def test_decomposition_matches_the_walk(self, sys):
        cycles, order, start, length, pos = walk_decomposition(sys)
        dec = orbit_decomposition(sys)
        assert len(dec.cycles) == len(cycles)
        for got, want in zip(dec.cycles, cycles):
            assert (got.base, got.length) == (want.base, want.length)
            assert np.array_equal(got.order, want.order)
            assert not got.order.flags.writeable and np.shares_memory(got.order, dec.order)
        for name, want in (("order", order), ("start", start), ("length", length), ("pos", pos)):
            got = getattr(dec, name)
            assert got.dtype == np.int64 and np.array_equal(got, want), name

    def test_base_is_least_label(self):
        sys = make_cycle_system([4, 4])
        for cyc in orbit_decomposition(sys).cycles:
            assert sys.labels[cyc.base] == min(sys.labels[p] for p in cyc.order)

    def test_split_examples(self):
        sys = make_cycle_system([3, 10])
        sp = invariant_split(sys, 5)
        assert (~sp.long).sum() == 3 and sp.long.sum() == 10
        assert not invariant_split(sys, 10).long.any()

    def test_split_multiset(self):
        sys = make_cycle_system([2, 2, 7, 100])
        sp = invariant_split(sys, 25)
        assert (~sp.long).sum() == 11 and sp.long.sum() == 100
        assert np.array_equal(sp.long, sys.orbits().length > 25)

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
        assert sp.long.dtype == bool and sp.long.shape == (sys.n,)
        for part in (~sp.long, sp.long):
            assert np.array_equal(part[sys.perm], part)
            assert np.array_equal(part[sys.perm_inv], part)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=4),
        st.data(),
        st.integers(-12, 12),
        st.integers(0, 24),
    )
    def test_translate_counts_match_power_perm(self, lengths, data, lo, width):
        # reference: one image per exponent through power_perm
        sys = make_cycle_system(lengths)
        subset = np.array(sorted(data.draw(st.frozensets(st.integers(0, sys.n - 1)))), dtype=np.int64)
        expected = np.zeros(sys.n, dtype=np.int64)
        for i in range(lo, lo + width + 1):
            for x in sys.power_perm(i)[subset].tolist():
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
        empty = load_system(doc_for([], {}))
        rep = quotient_report(empty)
        assert rep.rows == ()
        assert rep.quotient_size == 0


def stepping_translate_counts(sys, subset, lo, hi):
    """translate_counts by stepping the permutation one shift at a time, as
    the program computed it before it read cycle coordinates."""
    counts = np.zeros(sys.n, dtype=np.int64)
    cur = subset
    step = sys.perm if lo > 0 else sys.perm_inv
    for _ in range(abs(lo)):
        cur = step[cur]
    for _ in range(lo, hi + 1):
        counts[cur] += 1  # alpha_i is a bijection, so cur has no repeats
        cur = sys.perm[cur]
    return counts


@st.composite
def shuffled_cycle_systems(draw, max_length=8):
    """Cycles whose labels, and so whose point indices, come in a random order."""
    lengths = draw(st.lists(st.integers(1, max_length), min_size=1, max_size=4))
    labels = draw(st.permutations([f"q{i}" for i in range(sum(lengths))]))
    forward, offset = {}, 0
    for L in lengths:
        cyc = labels[offset : offset + L]
        forward.update((cyc[j], cyc[(j + 1) % L]) for j in range(L))
        offset += L
    points = draw(st.permutations(labels))
    return load_system(doc_for(points, forward))


class TestCycleCoordinates:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_cycle_systems(), st.data())
    def test_power_perm_and_iterate_match_stepping(self, sys, data):
        subset = np.array(sorted(data.draw(st.frozensets(st.integers(0, sys.n - 1)))), dtype=np.int64)
        for step, sign in ((sys.perm, 1), (sys.perm_inv, -1)):
            cur = np.arange(sys.n)
            for k in range(3 * sys.n + 1):
                i = sign * k
                assert np.array_equal(sys.power_perm(i), cur)
                assert np.array_equal(sys.orbits().iterate(i, subset), cur[subset])
                cur = step[cur]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=40, unique=True), st.data())
    def test_point_order_in_a_file_does_not_matter(self, labels, data):
        # point x is the x-th label in sorted order, whatever order the file
        # lists the points and the map in
        forward = dict(zip(labels, data.draw(st.permutations(labels))))
        sys = load_system(doc_for(labels, forward))
        assert sys.labels == tuple(sorted(labels))
        assert [sys.labels[t] for t in sys.perm.tolist()] == [forward[lab] for lab in sys.labels]
        points = data.draw(st.permutations(labels))
        shuffled = load_system(doc_for(points, dict(data.draw(st.permutations(list(forward.items()))))))
        assert shuffled.labels == sys.labels and np.array_equal(shuffled.perm, sys.perm)

    @settings(max_examples=150, deadline=None)
    @given(shuffled_cycle_systems(max_length=40), st.data(), st.integers(-60, 60), st.integers(-1, 100))
    def test_translate_counts_match_stepping(self, sys, data, lo, width):
        subset = np.array(sorted(data.draw(st.frozensets(st.integers(0, sys.n - 1)))), dtype=np.int64)
        got = sys.translate_counts(subset, lo, lo + width)
        assert got.dtype == np.int64
        assert np.array_equal(got, stepping_translate_counts(sys, subset, lo, lo + width))

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
