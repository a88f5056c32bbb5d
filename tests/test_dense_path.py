"""The dense path of fiber_sup_norm and the fiber builders.

A fiber that is not an element fiber (a seam corner on the grid fallback, or
a test fiber below) takes an eigensolve at every grid point.  The references
below are the interpolated and combined builders as they were (a seam
corner is the S x S block of the dense interpolated field) and an eigensolve
at every grid point; the dense path must agree with them bit for bit.

A seam corner here is wrapped in a combined fiber, which fiber_sup_norm
solves on its grid rather than in closed form.  Element fibers of two or
more bands take Lanczos at every cycle length, at a power-of-two scale where
their entries are extreme.  Lanczos must agree with a dense eigensolve at every point of the
grid, and the norm at its argmax, with the grid's dense maximum between its
value and its upper bound.
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
from rokhlin.approx import derive_params, quotient_approx
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
from rokhlin.dynsys import make_cycle_system

from dense_reference import (
    CombinedFiber,
    InterpolationFiber,
    dense_fiber_sigma,
    dense_quotient_fiber,
    element_matrices,
    lanczos_sweep,
)

# the dense interp(sample(b)) - b field whose seam block each corner fiber is
_DENSE = weakref.WeakKeyDictionary()

# how far below the largest dense_fiber_sigma of a grid a norm on the Lanczos
# path may read: Lanczos stops once its estimate moves by at most 1e-13
# relative between checks, but where the top two singular values lie close
# (0.4% apart on a random radius-1 element of a 22-cycle) a warm start stops
# 2e-12 short; the largest shortfall over 7,500 random elements of radius 1-3
# on cycles of 1-32 points was 6.4e-13
LANCZOS_AGREEMENT = 1e-11


def random_coeffs(sys, radius, rng, sparse=False):
    coeffs = {}
    for i in range(-radius, radius + 1):
        c = rng.standard_normal(sys.n) + 1j * rng.standard_normal(sys.n)
        if sparse:
            c[rng.random(sys.n) < 0.5] = 0
        coeffs[i] = c
    return coeffs


# -- the builders and an eigensolve at every point ------------------------------


def reference_matrices(fiber, lams):
    if isinstance(fiber, ElementOrbitFiber):
        return element_matrices(fiber, lams)
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


def dense_sup(sys, fibers, tol):
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
    """The dense path solves only the grid points its branch-and-bound
    reaches: each orbit's value is, bit for bit, the reference sigma at its
    argmax, a grid point; the reference maximum over the grid lies between
    that value and value + tol (up to the eigensolver's rounding); and the
    result is the first largest orbit value (none when every value is 0)."""
    _, _, per_orbit = dense_sup(sys, fibers, tol)
    assert result.per_orbit.keys() == per_orbit.keys()
    for fiber in fibers:
        label = sys.labels[fiber.cycle.base]
        value, lam = result.per_orbit[label]
        top = per_orbit[label][0]
        assert lam in _grid(result.grids[label]), label
        assert bits(value) == bits(reference_sigma(reference_matrices(fiber, np.array([lam])))[0]), label
        assert value <= top <= value + tol + 1e-14 * top, (label, value, top)
    value, argmax = 0.0, None
    for label, (v, lam) in result.per_orbit.items():
        if v > value:
            value, argmax = v, (label, lam)
    assert result.value == value and result.argmax == argmax


def quotient_fibers(lengths, b_coeffs, eps):
    """interp(sample(b)) - b on every cycle, built as assemble_and_verify
    builds it: seam corners, each tied to the dense field it is a block of."""
    sys = make_cycle_system(lengths)
    b = b_coeffs(sys)
    # u^k puts every cycle on the quotient side with k = max(1, radius of b)
    # and, unlike b, is a contraction
    unit = CrossedElement.unitary(sys, max(1, b.support_radius()))
    q = quotient_approx(derive_params([unit], eps, sys, N_override=max(lengths)))
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
                         else InterpolationFiber(cyc, element_matrices(ElementOrbitFiber(a, cyc), _grid(12))))
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


# -- the dense path and element fibers ---------------------------------------------


def flat_fiber(L, c, i):
    """Two interleaved bands of c on an L-cycle, L even: c u^i on the even
    slots and c u^(i+2) on the odd ones."""
    sys = make_cycle_system([L])
    cyc = sys.orbits().cycles[0]
    even, odd = np.zeros((2, L), dtype=np.complex128)
    slots = _rep_points(sys, cyc)
    even[slots[::2]], odd[slots[1::2]] = c, c
    return CrossedElement(sys, {i: even, i + 2: odd})


@st.composite
def corner_cases(draw):
    """(sys, fibers, tol) for the dense path: the seam corners of quotient
    fields, each wrapped in a combined fiber so that it takes its grid and
    not its closed form."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    radius = draw(st.integers(1, 2))
    unitary = draw(st.booleans())
    sys, fibers = quotient_fibers(
        lengths,
        (lambda sys: CrossedElement.unitary(sys)) if unitary
        else (lambda sys: CrossedElement(sys, random_coeffs(sys, radius, rng))),
        draw(st.sampled_from([Fraction(1, 2), Fraction(3, 10)])),
    )
    lip = max(f.lip() for f in fibers)
    grid = draw(st.sampled_from([1, 8, 128, 1024]))
    return sys, [CombinedFiber([f]) for f in fibers], lip * math.pi / grid if lip > 0 else 1.0


@st.composite
def element_cases(draw):
    """(unit, scale, grid): an element whose fibers have two or more bands,
    a scale to solve scale * unit at and a grid size for its largest fiber."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "sparse", "constant", "flat", "twins"]))
    if kind == "flat":
        # a weighted permutation: sigma is |c| at every grid point up to
        # rounding, so the points tie or nearly tie
        unit = flat_fiber(2 * draw(st.integers(1, 10)), complex(*rng.standard_normal(2)), draw(st.integers(-3, 3)))
    elif kind == "twins":
        # two orbits with the same fiber: the maxima tie across orbits
        L = draw(st.integers(1, 9))
        sys = make_cycle_system([L, L])
        unit = CrossedElement(sys, {i: np.tile(c[:L], 2) for i, c in random_coeffs(sys, 1, rng).items()})
    else:
        # radius 1-3 on a cycle of 1-32 points, every band keeping an entry,
        # so the fiber has three bands or more
        sys = make_cycle_system([draw(st.integers(1, 32))])
        coeffs = random_coeffs(sys, draw(st.integers(1, 3)), rng, kind == "sparse")
        for c in coeffs.values():
            c[0] = c[0] or 1.0
            if kind == "constant":
                c[:] = c[0]
        unit = CrossedElement(sys, coeffs)
    # scales whose squares are normal, near the smallest normal float,
    # subnormal, lost to underflow, or near overflow
    scale = draw(st.sampled_from([1.0, 1e150, 1e-150, 1e-154, 1e-158, 1e-170]))
    return unit, scale, draw(st.sampled_from([1, 8, 128, 1024]))


def assert_matches_dense(unit, scale, tol):
    """norm(scale * unit, tol) on every orbit: Lanczos, converged, at most
    the dense sigma (scaled) at its argmax and close to it, with the dense
    maximum of its grid between value and upper; and Lanczos at every point
    of that grid close to the dense sigma there."""
    sys = unit.sys
    result = norm(scale * unit, tol)
    for cyc in sys.orbits().cycles:
        label = sys.labels[cyc.base]
        lams = _grid(result.grids[label])
        dense = dense_fiber_sigma(unit, cyc, lams)
        sigma, unconverged, *_ = lanczos_sweep(ElementOrbitFiber(unit, cyc), lams)
        assert unconverged == 0
        assert np.abs(sigma - dense).max() <= LANCZOS_AGREEMENT * dense.max(), label
        value, lam = result.per_orbit[label]
        at = scale * float(dense_fiber_sigma(unit, cyc, np.array([lam]))[0])
        assert value <= at * (1 + 1e-14), (label, value, at)
        assert abs(value - at) <= LANCZOS_AGREEMENT * at, (label, value, at)
        top = scale * float(dense.max())
        assert value <= top * (1 + 1e-14) and top <= value + result.tol, (label, value, top)
    assert set(result.solvers.values()) == {"lanczos"} and result.unconverged == 0
    return result


class TestDensePath:
    @settings(max_examples=60, deadline=None)
    @given(corner_cases(), st.sampled_from([64, cstar._GRID_CHUNK]))
    def test_bit_identical_to_unscreened(self, case, chunk):
        # the dense path against an eigensolve at every point of the
        # reference fields; a chunk of 64 puts the maximum of most grids in
        # a later chunk
        sys, fibers, tol = case
        with mock.patch.object(cstar, "_GRID_CHUNK", chunk):
            result = fiber_sup_norm(sys, fibers, tol)
        assert_bit_identical(result, sys, fibers, tol)
        assert set(result.solvers.values()) == {"dense"}

    def test_maximum_in_the_second_chunk(self):
        # 1 - u^3 on a 3-cycle is (1 - lam) I: the maximum sits at lam = -1,
        # grid point 4096 of 8192, the first point of the second chunk; as
        # a combined fiber it takes the dense path
        sys = make_cycle_system([3])
        a = CrossedElement(sys, {0: np.ones(3), 3: -np.ones(3)})
        fibers = [CombinedFiber([ElementOrbitFiber(a, sys.orbits().cycles[0])])]
        result = fiber_sup_norm(sys, fibers, 5e-4)
        assert result.grids == {sys.labels[0]: 8192} and 8192 > cstar._GRID_CHUNK
        assert result.solvers == {sys.labels[0]: "dense"}
        assert result.argmax[1] == _grid(8192)[4096]
        assert_bit_identical(result, sys, fibers, 5e-4)

    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("scale", [1e-170, 1e-158])
    def test_tiny_coefficients(self, L, scale):
        # squared entries underflow (1e-170) or turn subnormal (1e-158);
        # norm solves the element at a power-of-two scale, where they do not
        sys = make_cycle_system([L])
        unit = CrossedElement(sys, {0: np.ones(L), 1: np.full(L, 0.5j)})
        for tol in (1.0, ElementOrbitFiber(scale * unit, sys.orbits().cycles[0]).lip() * math.pi / 64):
            result = assert_matches_dense(unit, scale, tol)
            assert all(v > 0 for v, _ in result.per_orbit.values())
        if L == 1:
            assert result.value == pytest.approx(1.5 * scale, rel=1e-3)

    def test_zero_fiber(self):
        # every point's matrix is zero, and every point ties
        sys = make_cycle_system([4])
        fib = ElementOrbitFiber(CrossedElement.unitary(sys), sys.orbits().cycles[0])
        fibers = [CombinedFiber([fib, fib], [1.0, -1.0])]
        result = fiber_sup_norm(sys, fibers, 1e-2)
        assert result.value == 0.0 and result.solvers == {sys.labels[0]: "dense"}
        assert_bit_identical(result, sys, fibers, 1e-2)

    def test_overflowing_gram_is_refused(self):
        # entries near 1e160 overflow the Gram matrices, on which eigvalsh
        # fails to converge: the fiber is refused by name instead
        sys = make_cycle_system([3])
        rng = np.random.default_rng(3)
        a = CrossedElement(sys, {i: 1e160 * c for i, c in random_coeffs(sys, 1, rng).items()})
        fibers = [CombinedFiber([ElementOrbitFiber(a, sys.orbits().cycles[0])])]
        refusal = f"orbit of '{sys.labels[0]}' has a spectral norm that is not finite"
        with pytest.raises(ValueError, match=refusal), np.errstate(over="ignore", invalid="ignore"):
            fiber_sup_norm(sys, fibers, fibers[0].lip() * math.pi / 8)

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
        # on their grid, wrapped in combined fibers
        sys, corners = quotient_fibers([3, 7], lambda sys: CrossedElement.unitary(sys), Fraction(3, 10))
        fibers = [CombinedFiber([fib]) for fib in corners]
        result = fiber_sup_norm(sys, fibers, 1e-3)
        assert_bit_identical(result, sys, fibers, 1e-3)


class TestElementScales:
    """Every element fiber of two or more bands takes Lanczos, on cycles of
    at most 32 points too, and agrees with a dense eigensolve of the same
    grid at every scale norm solves."""

    @settings(max_examples=60, deadline=None)
    @given(element_cases())
    def test_norm_matches_the_dense_reference(self, case):
        unit, scale, grid = case
        lip = max(ElementOrbitFiber(scale * unit, cyc).lip() for cyc in unit.sys.orbits().cycles)
        assert_matches_dense(unit, scale, lip * math.pi / grid)


# -- memory ---------------------------------------------------------------------


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDensePathMemory:
    def test_corners_peak_below_the_dense_fields(self):
        # the acceptance quotient fields on the grid of their seam corners
        # (wrapped in combined fibers) against the same fields as full L x L
        # matrices: the same value, in less memory
        sys, seams = quotient_fibers([3, 7], lambda sys: CrossedElement.unitary(sys), Fraction(3, 10))
        corners = [CombinedFiber([fib]) for fib in seams]
        dense = [_DENSE[fib] for fib in seams]
        peaks = [traced_peak(lambda f=f: fiber_sup_norm(sys, f, 1e-3)) for f in (corners, dense)]
        assert fiber_sup_norm(sys, corners, 1e-3).value == fiber_sup_norm(sys, dense, 1e-3).value
        assert 2 * peaks[0] < peaks[1], peaks
