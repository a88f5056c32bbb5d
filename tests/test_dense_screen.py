"""The dense path of fiber_sup_norm: Frobenius screening and the fiber builders.

The references below are the formulas the program used before the screen:
the interpolated and combined builders as they were (the element builder is
unchanged; a seam corner is the S x S block of the dense interpolated field),
and an eigensolve at every grid point.  The screened norm must agree with
them bit for bit.
"""

import json
import math
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rokhlin import cstar
from rokhlin.approx import quotient_approx
from rokhlin.cli import main
from rokhlin.cstar import (
    CornerFiber,
    CrossedElement,
    ElementOrbitFiber,
    _grid,
    _next_pow2,
    _rep_points,
    fiber_sup_norm,
    norm,
)
from rokhlin.dynsys import invariant_split, make_cycle_system

from dense_reference import CombinedFiber, InterpolationFiber, dense_quotient_fiber

# the dense interp(sample(b)) - b field whose seam block each corner fiber is
_DENSE = weakref.WeakKeyDictionary()


def random_coeffs(sys, radius, rng, sparse=False):
    coeffs = {}
    for i in range(-radius, radius + 1):
        c = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
        if sparse:
            c[rng.random(sys.n) < 0.5] = 0
        coeffs[i] = c
    return coeffs


# -- the builders and the sigma before the screen ----------------------------


def reference_matrices(fiber, lams):
    if isinstance(fiber, ElementOrbitFiber):
        return fiber.matrices(lams)
    if isinstance(fiber, CornerFiber):
        return reference_matrices(_DENSE[fiber], lams)[:, fiber.seam][:, :, fiber.seam]
    if isinstance(fiber, InterpolationFiber):
        theta = np.mod(np.angle(lams), 2 * math.pi)
        pos = theta * fiber.s / (2 * math.pi)
        j0 = np.floor(pos).astype(int) % fiber.s
        frac = (pos - np.floor(pos))[:, None, None]
        j1 = (j0 + 1) % fiber.s
        return (1.0 - frac) * fiber.nodes[j0] + frac * fiber.nodes[j1]
    out = fiber.signs[0] * reference_matrices(fiber.parts[0], lams)
    for s, p in zip(fiber.signs[1:], fiber.parts[1:]):
        out += s * reference_matrices(p, lams)
    return out


def reference_sigma(mats):
    if mats.shape[1] == 1:
        return np.abs(mats[:, 0, 0])
    gram = mats.conj().transpose(0, 2, 1) @ mats
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def unscreened_sup(sys, fibers, tol):
    """(value, argmax, per_orbit) with an eigensolve at every grid point."""
    value, argmax, per_orbit = 0.0, None, {}
    for fiber in fibers:
        lip = fiber.lip()
        label = sys.labels[fiber.cycle.base]
        lams = _grid(_next_pow2(lip * math.pi / tol) if lip > 0 else 1)
        sig = reference_sigma(reference_matrices(fiber, lams))
        j = int(np.argmax(sig))
        per_orbit[label] = (float(sig[j]), complex(lams[j]))
        if sig[j] > value:
            value, argmax = float(sig[j]), (label, complex(lams[j]))
    return value, argmax, per_orbit


def bits(x):
    return float(x).hex()


def assert_bit_identical(result, sys, fibers, tol):
    value, argmax, per_orbit = unscreened_sup(sys, fibers, tol)
    assert bits(result.value) == bits(value)
    assert result.argmax == argmax
    assert result.per_orbit.keys() == per_orbit.keys()
    for label, (v, lam) in per_orbit.items():
        assert bits(result.per_orbit[label][0]) == bits(v), label
        assert result.per_orbit[label][1] == lam, label


def quotient_fibers(lengths, b_coeffs, eps):
    """interp(sample(b)) - b on every cycle, built as assemble_and_verify
    builds it: seam corners, each tied to the dense field it is a block of."""
    sys = make_cycle_system(lengths)
    b = b_coeffs(sys)
    q = quotient_approx(invariant_split(sys, max(lengths)), [b], eps, sys)
    fibers = q.corner_fibers(b)
    for fib in fibers:
        _DENSE[fib] = dense_quotient_fiber(b, fib.cycle, fib.s)
    return sys, fibers


# -- builders -----------------------------------------------------------------


class TestBuilders:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.integers(2, 80), st.integers(0, 2**32 - 1))
    def test_interpolation_matrices(self, L, s, seed):
        rng = np.random.default_rng(seed)
        nodes = rng.standard_normal((s, L, L)) + 1j * rng.standard_normal((s, L, L))
        fib = InterpolationFiber(make_cycle_system([L]).orbits().cycles[0], nodes)
        # node points, the grid the norm uses, and random points
        lams = np.concatenate([_grid(s), _grid(256), np.exp(2j * np.pi * rng.random(41))])
        assert np.array_equal(fib.matrices(lams), reference_matrices(fib, lams))

    @pytest.mark.parametrize("signs", [(1.0, -1.0), (-1.0, 1.0), (2.5, -0.5), (1.0, 1.0, -1.0), (-1.0,)])
    def test_combined_matrices(self, signs):
        rng = np.random.default_rng(len(signs))
        sys = make_cycle_system([5])
        cyc = sys.orbits().cycles[0]
        parts = []
        for j in range(len(signs)):
            a = CrossedElement(sys, random_coeffs(sys, 2, rng, sparse=j == 1))
            parts.append(ElementOrbitFiber(a, cyc) if j % 2 == 0
                         else InterpolationFiber(cyc, ElementOrbitFiber(a, cyc).matrices(_grid(12))))
        fib = CombinedFiber(parts, list(signs))
        lams = np.concatenate([_grid(128), np.exp(2j * np.pi * rng.random(29))])
        assert np.array_equal(fib.matrices(lams), reference_matrices(fib, lams))

    def test_quotient_fiber_matrices_bit_identical(self):
        # the acceptance scenario's quotient fibers, compared bit for bit
        sys, fibers = quotient_fibers([3, 7], lambda sys: CrossedElement.unitary(sys), Fraction(3, 10))
        lams = _grid(8192)
        for fib in fibers:
            got, want = fib.matrices(lams), np.ascontiguousarray(reference_matrices(fib, lams))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# -- the screen -----------------------------------------------------------------


def flat_fiber(L, c, i):
    """Two interleaved bands of c on an L-cycle, L even: c u^i on the even
    slots and c u^(i+2) on the odd ones."""
    sys = make_cycle_system([L])
    cyc = sys.orbits().cycles[0]
    even, odd = np.zeros((2, L), dtype=np.complex128)
    slots = _rep_points(sys, cyc)
    even[slots[::2]], odd[slots[1::2]] = c, c
    return sys, [ElementOrbitFiber(CrossedElement(sys, {i: even, i + 2: odd}), cyc)]


@st.composite
def dense_cases(draw):
    """(sys, fibers, tol) for the dense path, with fields of every kind it sees."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["element", "quotient", "flat", "twins"]))
    if kind == "element":
        # scales whose squares are normal, near the smallest normal float,
        # subnormal, or lost to underflow; every band keeps an entry, so the
        # fiber has at least three (a one-band fiber takes no grid)
        L = draw(st.integers(1, 32))
        scale = draw(st.sampled_from([1.0, 1e150, 1e-150, 1e-154, 1e-158, 1e-170]))
        sys = make_cycle_system([L])
        coeffs = random_coeffs(sys, draw(st.integers(1, 3)), rng, draw(st.booleans()))
        for c in coeffs.values():
            c[0] = c[0] or 1.0
        a = CrossedElement(sys, {i: scale * c for i, c in coeffs.items()})
        fibers = [ElementOrbitFiber(a, sys.orbits().cycles[0])]
    elif kind == "quotient":
        lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
        radius = draw(st.integers(1, 2))
        unitary = draw(st.booleans())
        sys, fibers = quotient_fibers(
            lengths,
            (lambda sys: CrossedElement.unitary(sys)) if unitary
            else (lambda sys: CrossedElement(sys, random_coeffs(sys, radius, rng))),
            draw(st.sampled_from([Fraction(1, 2), Fraction(3, 10)])),
        )
    elif kind == "flat":
        # c u^i on the even slots and c u^(i+2) on the odd ones of an even
        # cycle: a weighted permutation, so sigma is |c| at every grid point
        # up to rounding, and the points tie or nearly tie
        sys, fibers = flat_fiber(2 * draw(st.integers(1, 10)), complex(*rng.standard_normal(2)),
                                 draw(st.integers(-3, 3)))
    else:
        # two orbits with the same fiber: the maxima tie across orbits
        L = draw(st.integers(1, 9))
        sys = make_cycle_system([L, L])
        coeffs = {i: np.tile(c[:L], 2) for i, c in random_coeffs(sys, 1, rng).items()}
        a = CrossedElement(sys, coeffs)
        fibers = [ElementOrbitFiber(a, cyc) for cyc in sys.orbits().cycles]
    lip = max(f.lip() for f in fibers)
    grid = draw(st.sampled_from([1, 8, 128, 1024]))
    return sys, fibers, lip * math.pi / grid if lip > 0 else 1.0


class TestScreen:
    @settings(max_examples=60, deadline=None)
    @given(dense_cases(), st.sampled_from([64, cstar._GRID_CHUNK]))
    def test_bit_identical_to_unscreened(self, case, chunk):
        # a chunk of 64 puts the maximum of most grids in a later chunk
        sys, fibers, tol = case
        with mock.patch.object(cstar, "_GRID_CHUNK", chunk):
            result = fiber_sup_norm(sys, fibers, tol)
        assert_bit_identical(result, sys, fibers, tol)
        assert result.dense_points <= sum(result.grids.values())

    def test_maximum_in_the_second_chunk(self):
        # 1 - u^3 on a 3-cycle is (1 - lam) I: the maximum sits at lam = -1,
        # grid point 4096 of 8192, the first point of the second chunk
        sys = make_cycle_system([3])
        a = CrossedElement(sys, {0: np.ones(3), 3: -np.ones(3)})
        fibers = [ElementOrbitFiber(a, sys.orbits().cycles[0])]
        result = fiber_sup_norm(sys, fibers, 5e-4)
        assert result.grids == {sys.labels[0]: 8192} and 8192 > cstar._GRID_CHUNK
        assert result.argmax[1] == _grid(8192)[4096]
        assert_bit_identical(result, sys, fibers, 5e-4)

    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("scale", [1e-170, 1e-158])
    def test_tiny_coefficients(self, L, scale):
        # squared entries underflow (1e-170) or turn subnormal (1e-158), so
        # the computed Frobenius norm says nothing about the computed sigma
        sys = make_cycle_system([L])
        a = CrossedElement(sys, {0: np.full(L, scale), 1: np.full(L, 0.5j * scale)})
        fibers = [ElementOrbitFiber(a, sys.orbits().cycles[0])]
        for tol in (1.0, fibers[0].lip() * math.pi / 64):
            result = fiber_sup_norm(sys, fibers, tol)
            assert_bit_identical(result, sys, fibers, tol)
            assert all(v >= 0 for v, _ in result.per_orbit.values())
        if L == 1:
            assert result.value == pytest.approx(1.5 * scale, rel=1e-3)

    def test_zero_fiber(self):
        # every point's matrix is zero: each takes the underflow bound and
        # every point ties
        sys = make_cycle_system([4])
        fib = ElementOrbitFiber(CrossedElement.unitary(sys), sys.orbits().cycles[0])
        fibers = [CombinedFiber([fib, fib], [1.0, -1.0])]
        result = fiber_sup_norm(sys, fibers, 1e-2)
        assert result.value == 0.0 and result.dense_points == result.grids[sys.labels[0]]
        assert_bit_identical(result, sys, fibers, 1e-2)

    def test_tiny_coefficients_report_is_json(self, tmp_path, capsys):
        sys = make_cycle_system([1, 2])
        spath = tmp_path / "sys.json"
        spath.write_text(json.dumps({
            "points": list(sys.labels),
            "map": {sys.labels[i]: sys.labels[int(sys.perm[i])] for i in range(sys.n)},
            "dimension": 0,
        }))
        scen = tmp_path / "tiny.json"
        scen.write_text(json.dumps({
            "command": "norm", "system": spath.name, "tol": 1e-3,
            "element": [{"power": 0, "coefficients": {lab: [1e-170, 0.0] for lab in sys.labels}}],
        }))
        assert main(["norm", "--scenario", str(scen)]) == 0
        rep = json.loads(capsys.readouterr().out)
        # both fibers, 1e-170 times the identity, have one band and report
        # its largest entry, 1e-170, with no Gram matrix to underflow
        assert {lab: o["value"] for lab, o in rep["norm"]["per_orbit"].items()} == {
            sys.labels[0]: 1e-170, sys.labels[1]: 1e-170}
        assert rep["norm"]["value"] == 1e-170

    def test_acceptance_quotient_fibers(self):
        sys, fibers = quotient_fibers([3, 7], lambda sys: CrossedElement.unitary(sys), Fraction(3, 10))
        result = fiber_sup_norm(sys, fibers, 1e-3)
        assert_bit_identical(result, sys, fibers, 1e-3)


def fixed_point_fiber():
    # |1 - 0.5i lam| on a fixed point peaks at lam = i, grid point 2048 of
    # 8192 at tol 2e-4, in the first of two chunks; the second chunk stays
    # below that peak
    sys = make_cycle_system([1])
    a = CrossedElement(sys, {0: np.ones(1), 1: np.full(1, -0.5j)})
    return sys, [ElementOrbitFiber(a, sys.orbits().cycles[0])]


class TestDensePoints:
    @pytest.mark.parametrize("case", ["acceptance", "fixed point"])
    def test_only_points_that_reach_the_maximum_are_solved(self, case):
        if case == "acceptance":
            sys, fibers = quotient_fibers([3, 7], lambda sys: CrossedElement.unitary(sys), Fraction(3, 10))
            tol = 1e-3
        else:
            sys, fibers = fixed_point_fiber()
            tol = 2e-4
        result = fiber_sup_norm(sys, fibers, tol)
        # each chunk's largest-Frobenius point is solved first and the best
        # value is carried across chunks, so here no point is solved whose
        # Frobenius norm stays below its fiber's maximum: 68 of 16384 points
        # on the grids of the acceptance corners (which assemble_and_verify
        # reads in closed form; the grid is their fallback), 1 of 8192 on the
        # fixed point
        reach = 0
        for fib in fibers:
            n = result.grids[sys.labels[fib.cycle.base]]
            assert n > cstar._GRID_CHUNK
            flat = fib.matrices(_grid(n)).reshape(n, -1)
            fro = np.sqrt(np.vecdot(flat, flat).real) * cstar._SCREEN_MARGIN
            reach += int((fro >= result.per_orbit[sys.labels[fib.cycle.base]][0]).sum())
        assert result.dense_points == reach < 100
        assert_bit_identical(result, sys, fibers, tol)

    def test_flat_fiber_solves_every_point(self):
        # ||u + u^2||_F = sqrt(20) at every lam, above sigma <= 2: nothing
        # can be skipped
        sys = make_cycle_system([10])
        u = CrossedElement.unitary(sys)
        result = norm(u + u * u, 1e-3)
        assert result.grids == {sys.labels[0]: 8192}
        assert result.dense_points == 8192

    def test_lanczos_fibers_take_no_dense_eigensolve(self):
        sys = make_cycle_system([40])
        u = CrossedElement.unitary(sys)
        result = norm(u + u * u, 1e-2)
        assert result.solvers == {sys.labels[0]: "lanczos"} and result.dense_points == 0


# -- memory ---------------------------------------------------------------------


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unscreened_path(sys, fibers, tol):
    """Today's builders with an eigensolve at every point, chunk by chunk."""
    for fiber in fibers:
        lip = fiber.lip()
        lams = _grid(_next_pow2(lip * math.pi / tol) if lip > 0 else 1)
        for lo in range(0, len(lams), cstar._GRID_CHUNK):
            cstar._sigma_exact(fiber.matrices(lams[lo : lo + cstar._GRID_CHUNK]))


class TestScreenMemory:
    @pytest.mark.parametrize("case", ["flat", "acceptance"])
    def test_peak_at_most_unscreened(self, case):
        if case == "flat":
            sys, fibers = flat_fiber(10, 1.0, 1)
        else:
            # the full L x L fields, as the screen first measured them
            sys, corners = quotient_fibers([3, 7], lambda sys: CrossedElement.unitary(sys), Fraction(3, 10))
            fibers = [_DENSE[fib] for fib in corners]
        screened = traced_peak(lambda: fiber_sup_norm(sys, fibers, 1e-3))
        unscreened = traced_peak(lambda: unscreened_path(sys, fibers, 1e-3))
        assert screened <= unscreened, (screened, unscreened)

    def test_corners_peak_below_the_dense_fields(self):
        # the acceptance quotient fields on their seam corners against the
        # same fields as full L x L matrices: the same value, in less memory
        sys, corners = quotient_fibers([3, 7], lambda sys: CrossedElement.unitary(sys), Fraction(3, 10))
        dense = [_DENSE[fib] for fib in corners]
        peaks = [traced_peak(lambda f=f: fiber_sup_norm(sys, f, 1e-3)) for f in (corners, dense)]
        assert fiber_sup_norm(sys, corners, 1e-3).value == fiber_sup_norm(sys, dense, 1e-3).value
        assert 2 * peaks[0] < peaks[1], peaks
