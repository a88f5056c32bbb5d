"""A concrete model of the crossed product of functions on a finite system by Z.

Elements are finitely supported Laurent series sum_i f_i u^i with functions
f_i on the point set and a unitary u implementing the forward map.  The single
convention used everywhere is

    u g u* = g o forward^{-1},   i.e.   (f u^i)(g u^j) = f . (g o alpha_{-i}) u^{i+j},

where alpha_i denotes the i-th forward iterate.  The algebra splits over
orbits, and over each cycle of length L it is the L x L matrices over the
circle; norms are computed fiberwise, as the sup over the circle of the
fiber's top singular value sigma(lam).  A Lipschitz branch-and-bound
(Piyavskii 1972; Shubert 1972) over a dyadic grid finds it: the grid size n
is the least power of two with lip() pi / n <= tol, and the search solves
point 0, then, level by level, the midpoints of the arcs whose bound
(sigma_a + sigma_b) / 2 + lip (b - a) pi / n can still beat the best value by
more than tol, one batch a level.  So the reported value, the best point
solved, is certified from below and value + tol from above, with at most n
points solved (a one-band fiber and a seam corner with a closed form need
no search).  An element fiber's arcs use the gauge bound sum_i sup|f_i| |i|
/ L, up to L times below lip(): with mu^L = lam, D = diag(mu^-r)
conjugates the fiber to sum_i diag(f_i) S^i(1) mu^i, whose derivative per
unit arc has norm at most that sum.

An element fiber of one band, f u^i, needs no grid and no eigensolver: its
fiber diag(f) S^i(lam) is diag(f) times a unitary at every |lam| = 1, so its
norm is max|f| over the cycle's slots at every lam.  fiber_sup_norm reads it
as that, at the single grid point lam = 1 (solver "band").

Every other element fiber takes Lanczos on a(lam)*a(lam), whatever its
cycle length.  A seam corner of the quotient side (CornerFiber) in which no
entry wraps more than once has a closed form (corner_norm): the arc's
sagitta times the top singular value of S x S matrices at the arc-midpoint
phases, with no grid.  Any other fiber (a seam corner with no closed form)
takes a dense Hermitian eigensolve at every point the search solves, with
lip() as its arc bound.  Seam-corner values, closed form or grid, are
eigvalsh estimates with no Sturm certificate: there "value is a lower bound"
holds only up to eigvalsh's rounding, a few ulps of the Gram matrix's scale.

Lanczos runs grid point 0 alone from a fixed-seed random vector, then every
later point the search solves, each level's batch in lockstep chunks of at
most _LANCZOS_CHUNK_BYTES, from point 0's top Ritz vector x moved to its
lam: the slots before a cut c, where x has the least weight within the band
radius, take a factor conj(lam).  That is
P(lam) x for a unitary P(lam) with P* a(lam) P carrying lam only on the
entries that cross c, so where x has no weight near c it is the top vector
at every lam.  Ritz values are checked at every step up to 8, so such a
point stops after two.  Only the entries of a band that wrap around the
cycle carry lam, so the banded matvec holds each band's values once and
per-lam seam weights for those entries alone (see _seam_twist).  A top Ritz
value grows with the step count (interlacing) and, from any start and even
without reorthogonalization, stays below the top eigenvalue up to roundoff
(Paige).

Each top Ritz value is certified from below by a Sturm count on the Lanczos
tridiagonal: the count says whether an eigenvalue lies at or above a point.
Small batches estimate the top eigenvalue with one dense eigensolve, and one
Sturm sweep tests a few points a few ulps of the Gershgorin scale below the
estimate, with a guard above it; columns where none passes or the guard
finds an eigenvalue, and batches too large for a cheap eigensolve, bisect
with Sturm counts instead (counted in NormResult.ritz_bisections).  Every
value is the largest diagonal entry or a point that passed the Sturm test
(Rump, "Verification methods", Acta Numerica 2010).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dynsys import Cycle, FiniteDynamicalSystem

__all__ = [
    "CrossedElement",
    "HostMismatchError",
    "OrbitFiberRep",
    "PeriodicEmbedding",
    "PrimSpectrumReport",
    "NormResult",
    "orbit_rep",
    "orbit_rep_with_phases",
    "periodic_embedding",
    "primitive_spectrum",
    "holonomy",
    "norm",
    "fiber_sup_norm",
    "corner_norm",
    "ElementOrbitFiber",
    "CornerFiber",
]

_UNIT_TOL = 1e-12
# norm solves an element whose largest coefficient entry c lies outside
# [2^-_SCALE_EXP, 2^_SCALE_EXP] at a power-of-two scale inside it: squares of
# entries within 2^-200 of c then stay normal floats, and L^2 sums of them
# finite, for any cycle the grid limit admits
_SCALE_EXP = 256
_LANCZOS_SEED = 0x5EED
# random banded elements on cycles of 48-300 points settle to _REL_TOL within
# 20-40 steps from the seed vector; the 8 benchmark contractions (L = 48-192,
# radius 1-2) take 18-41 at point 0, and 3.0 steps a point from its Ritz
# vector moved off the cut over the 26 further points their searches solve
# (the floor is 2: checks at steps 1 and 2); points still moving at the cap
# count as NormResult.unconverged
_LANCZOS_MAX_STEPS = 256
# one dense eigensolve of m tridiagonals of size k, with one Sturm sweep,
# beats Sturm bisection while m k^2 is at most this (one BLAS thread, 2-vCPU
# Xeon: 0.7 against 18 ms at m = 1, k = 64; 7.6 against 58 ms at m = 1,
# k = 256; 4.4 against 5.8 ms at m = 256, k = 16; bisection wins at m = 512,
# k = 16, 7.8 against 8.8 ms, and at m = 512, k = 256, 0.12 against 2.5 s)
_RITZ_DENSE_MAX = 2**16
# ulps of the Gershgorin scale below a dense estimate at which a Sturm count
# may certify it, first passing first; the widest one also bounds how far the
# top eigenvalue may lie above the estimate
_RITZ_BACKOFF = (2, 32, 512)
_BISECT_STEPS = 50
_REL_TOL = 1e-13
_GRID_CHUNK = 4096
# a dense-path grid chunk holds at most this many matrix entries a stack
# (all of _GRID_CHUNK points up to L = 32)
_DENSE_CHUNK_ENTRIES = 2**22
# a Lanczos grid chunk holds at most this many bytes of per-point arrays
# (see _lanczos_point_bytes), and at least one point
_LANCZOS_CHUNK_BYTES = 2**25
# a fiber whose grid, at 24 bytes a point (a lam and a sigma), would pass
# this is refused before anything is solved: at most 2^23 points, 128 times
# the largest grid the tests reach (2^16; the shipped scenarios and benchmark
# workloads 2^13), and the search solves at most that many; so is a periodic
# embedding whose lam grid (16 bytes a point) would
_GRID_MAX_BYTES = 2**28
# a phased seam corner (see CornerFiber.phased) is solved in closed form at
# its s/2 arc-midpoint phases only up to this many; past it, its grid, whose
# size does not grow with s, costs less (radius 3 on a 4-cycle, one BLAS
# thread, 2-vCPU Xeon: 11 ms at 3,770 phases and 230 ms at 64,089, against
# 28-48 ms for the 8,192-point grid at tol 1e-3)
_CLOSED_MAX_PHASES = 2**14
# bytes of per-grid-point arrays one streamed grid chunk of a periodic
# embedding may hold (see PeriodicEmbedding); a system whose single grid
# point needs more is refused before anything is allocated
_EMBED_CHUNK_BYTES = 2**25


class HostMismatchError(ValueError):
    """Two elements over different systems were combined."""


# ---------------------------------------------------------------------------
# elements


class CrossedElement:
    """Finitely supported Laurent series over a finite dynamical system."""

    __slots__ = ("sys", "coeffs")

    def __init__(self, sys: FiniteDynamicalSystem, coeffs: Mapping[int, np.ndarray]):
        self.sys = sys
        clean: dict[int, np.ndarray] = {}
        for i, arr in coeffs.items():
            arr = np.asarray(arr, dtype=np.complex128)
            if arr.shape != (sys.n,):
                raise ValueError(f"coefficient at power {i} has shape {arr.shape}, want ({sys.n},)")
            if np.any(arr != 0):
                clean[int(i)] = arr
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sys: FiniteDynamicalSystem) -> "CrossedElement":
        return cls(sys, {})

    @classmethod
    def from_function(cls, sys: FiniteDynamicalSystem, values, power: int = 0) -> "CrossedElement":
        return cls(sys, {power: np.asarray(values, dtype=np.complex128)})

    @classmethod
    def unitary(cls, sys: FiniteDynamicalSystem, power: int = 1) -> "CrossedElement":
        return cls(sys, {power: np.ones(sys.n)})

    @classmethod
    def indicator(cls, sys: FiniteDynamicalSystem, subset: Iterable[int], power: int = 0) -> "CrossedElement":
        v = np.zeros(sys.n)
        v[list(subset)] = 1.0
        return cls(sys, {power: v})

    # -- structure ---------------------------------------------------------

    def coefficient(self, i: int) -> np.ndarray:
        return self.coeffs.get(i, np.zeros(self.sys.n, dtype=np.complex128))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def support_radius(self) -> int:
        return max((abs(i) for i in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_bound(self) -> float:
        """sum_i sup|f_i|: an upper bound for the operator norm."""
        return float(sum(np.abs(a).max() for a in self.coeffs.values()))

    # -- algebra -----------------------------------------------------------

    def _check_host(self, other: "CrossedElement") -> None:
        if self.sys is not other.sys:
            raise HostMismatchError("elements live over different systems")

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check_host(other)
        out = dict(self.coeffs)
        for i, arr in other.coeffs.items():
            out[i] = out[i] + arr if i in out else arr
        return CrossedElement(self.sys, out)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + (-1.0) * other

    def __neg__(self) -> "CrossedElement":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, CrossedElement):
            self._check_host(other)
            out: dict[int, np.ndarray] = {}
            for i, f in self.coeffs.items():
                pi = self.sys.power_perm(-i)
                for j, g in other.coeffs.items():
                    term = f * g[pi]
                    k = i + j
                    out[k] = out[k] + term if k in out else term
            return CrossedElement(self.sys, out)
        return CrossedElement(self.sys, {i: other * arr for i, arr in self.coeffs.items()})

    def __rmul__(self, scalar) -> "CrossedElement":
        return self * scalar

    def adjoint(self) -> "CrossedElement":
        out = {}
        for i, f in self.coeffs.items():
            out[-i] = np.conj(f)[self.sys.power_perm(i)]
        return CrossedElement(self.sys, out)

    def expectation(self) -> np.ndarray:
        """Projection onto the zero Fourier coefficient."""
        return self.coefficient(0)

    def compressed(self, values) -> "CrossedElement":
        """Two-sided compression h . a . h by a function h."""
        h = CrossedElement.from_function(self.sys, values)
        return h * self * h

    def __repr__(self) -> str:
        return f"CrossedElement(support={self.support})"


# ---------------------------------------------------------------------------
# orbit fiber representations


def _rep_points(sys: FiniteDynamicalSystem, cycle: Cycle) -> np.ndarray:
    """Point index of diagonal slot r: the (-r)-th iterate of the base point."""
    return sys.orbits().iterate(-np.arange(cycle.length), cycle.base)


def _shift_matrix(L: int, lam: complex, phases: Sequence[complex] | None = None) -> np.ndarray:
    """Cyclic shift with unit superdiagonal and lam in the corner, or explicit phases."""
    w = np.zeros((L, L), dtype=np.complex128)
    if phases is None:
        phases = [1.0] * (L - 1) + [lam]
    for r in range(L - 1):
        w[r, r + 1] = phases[r]
    w[L - 1, 0] = phases[L - 1]
    return w


@dataclass(frozen=True)
class OrbitFiberRep:
    """Evaluation of crossed elements in the L x L fiber of one orbit.

    ``u_matrix`` has unit-modulus superdiagonal and corner entries; functions
    map to diagonal matrices along the backward orbit of the base point.
    """

    sys: FiniteDynamicalSystem
    cycle: Cycle
    lam: complex
    u_matrix: np.ndarray

    @property
    def L(self) -> int:
        return self.cycle.length

    def function_matrix(self, values) -> np.ndarray:
        vals = np.asarray(values, dtype=np.complex128)
        return np.diag(vals[_rep_points(self.sys, self.cycle)])

    def matrix(self, a: CrossedElement) -> np.ndarray:
        out = np.zeros((self.L, self.L), dtype=np.complex128)
        upow: dict[int, np.ndarray] = {0: np.eye(self.L, dtype=np.complex128)}

        def power(i: int) -> np.ndarray:
            if i not in upow:
                if i > 0:
                    upow[i] = power(i - 1) @ self.u_matrix
                else:
                    upow[i] = power(i + 1) @ self.u_matrix.conj().T
            return upow[i]

        for i, f in a.coeffs.items():
            out += self.function_matrix(f) @ power(i)
        return out

    def covariance_residual(self, values) -> float:
        """sup norm of u beta(f) u* - beta(f o forward^{-1})."""
        beta = self.function_matrix(values)
        rolled = self.function_matrix(np.asarray(values)[self.sys.perm_inv])
        diff = self.u_matrix @ beta @ self.u_matrix.conj().T - rolled
        return float(np.abs(diff).max())


def orbit_rep(sys: FiniteDynamicalSystem, cycle: Cycle, lam: complex) -> OrbitFiberRep:
    """Standard fiber representation at circle parameter lam (shift with lam corner)."""
    if abs(abs(lam) - 1.0) > _UNIT_TOL:
        raise ValueError(f"lam must lie on the unit circle, |lam| = {abs(lam)}")
    return OrbitFiberRep(sys=sys, cycle=cycle, lam=complex(lam),
                         u_matrix=_shift_matrix(cycle.length, complex(lam)))


def orbit_rep_with_phases(
    sys: FiniteDynamicalSystem, cycle: Cycle, phases: Sequence[complex]
) -> OrbitFiberRep:
    """Fiber representation with explicit unit-modulus superdiagonal/corner phases."""
    phases = [complex(p) for p in phases]
    if len(phases) != cycle.length:
        raise ValueError(f"need {cycle.length} phases, got {len(phases)}")
    if any(abs(abs(p) - 1.0) > _UNIT_TOL for p in phases):
        raise ValueError("phases must lie on the unit circle")
    lam = np.prod(phases)
    return OrbitFiberRep(sys=sys, cycle=cycle, lam=complex(lam),
                         u_matrix=_shift_matrix(cycle.length, complex(lam), phases))


def holonomy(rep: OrbitFiberRep, tol: float = 1e-10) -> complex:
    """Corner-product invariant of the u-image: (-1)^(L+1) det(u_matrix).

    Requires the u-image in standard form (nonzero entries only on the
    superdiagonal and the lower-left corner); the value is cross-checked
    against the scalar in u_matrix^L = lam * identity.
    """
    v = rep.u_matrix
    L = rep.L
    mask = np.zeros((L, L), dtype=bool)
    for r in range(L - 1):
        mask[r, r + 1] = True
    mask[L - 1, 0] = True
    if np.any(np.abs(v[~mask]) > _UNIT_TOL) or np.any(np.abs(np.abs(v[mask]) - 1) > 1e-9):
        raise ValueError("u-image is not in superdiagonal-plus-corner form")
    lam = (-1) ** (L + 1) * np.linalg.det(v)
    power = np.linalg.matrix_power(v, L)
    if np.abs(power - lam * np.eye(L)).max() > tol:
        raise ValueError("determinant value disagrees with the matrix power scalar")
    return complex(lam)


# ---------------------------------------------------------------------------
# fiber fields and the certified sup norm

def _grid(n: int, idx: np.ndarray | None = None) -> np.ndarray:
    """The n-th roots of unity exp(2 pi i j / n), for every j or for the
    indices idx alone (the same floats either way)."""
    return np.exp(2j * np.pi * (np.arange(n) if idx is None else idx) / n)


def _next_pow2(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1.0, x))))


class ElementOrbitFiber:
    """Fiber field of a crossed element over one cycle.

    Carries the coefficient data in representation order, an arc-Lipschitz
    bound, the seam form the Lanczos solver applies (``twists``), and the
    dense L x L matrices (``matrices``), a reference no solver reads.
    """

    def __init__(self, a: CrossedElement, cycle: Cycle):
        self.cycle = cycle
        self.L = cycle.length
        pts = _rep_points(a.sys, cycle)
        self.bands = {i: f[pts] for i, f in a.coeffs.items() if np.any(np.abs(f[pts]) != 0)}

    def lip(self) -> float:
        return float(sum(np.abs(d).max() * math.ceil(abs(i) / self.L) for i, d in self.bands.items()))

    def gauge_lip(self) -> float:
        """Arc-Lipschitz bound sum_i sup|f_i| |i| / L, at most lip() (up to L
        times smaller).  With mu^L = lam, D = diag(mu^-r) conjugates the fiber
        to sum_i diag(f_i) S^i(1) mu^i, whose lam-derivative per unit arc has
        norm at most sum_i sup|f_i| |i| / L, and sigma is 1-Lipschitz in the
        matrix (Weyl)."""
        return float(sum(np.abs(d).max() * (abs(i) / self.L) for i, d in self.bands.items()))

    def matrices(self, lams: np.ndarray) -> np.ndarray:
        L = self.L
        out = np.zeros((len(lams), L, L), dtype=np.complex128)
        rows = np.arange(L)
        for i, diag in self.bands.items():
            shift, w = _twist(diag, i, lams)
            out[:, rows, (rows + shift) % L] += w
        return out

    @property
    def radius(self) -> int:
        """The largest |i| of the fiber's bands."""
        return max(map(abs, self.bands), default=0)

    def twists(self, lams: np.ndarray):
        """Seam form (see _seam_twist) of the fiber and of its adjoint for a
        lam batch.  Only the wrapped entries of a band carry a power of lam,
        so each term holds the band's values, shared by every lam, and one
        row of seam weights per lam; a sub-batch takes the rows of the seam
        weights (those with two axes)."""
        terms = [_seam_twist(diag, i, lams) for i, diag in self.bands.items()]
        return terms, [_seam_adjoint(term) for term in terms]


# Band form: a list of (shift, weights) terms, each the matrix with
# weights[..., r] at (r, (r + shift) % n) and zeros elsewhere; terms may share
# a shift, and leading axes of the weights index points and lams.


def _twist(diag: np.ndarray, i: int, lams: np.ndarray) -> tuple[int, np.ndarray]:
    """diag(diag) S^i(lam) for each lam, where S(lam) is the cyclic shift with
    lam in the corner: the band values times lam to their wrap power, with an
    axis of lams before the last (diag may carry leading axes)."""
    n = diag.shape[-1]
    return i % n, _wrap_weights(diag, (np.arange(n) + i) // n, i // n, lams)


def _wrap_weights(vals: np.ndarray, wraps: np.ndarray, lo: int, lams: np.ndarray) -> np.ndarray:
    """vals times lam to the power wraps, with an axis of lams before the
    last; the wraps take the two values lo and lo + 1 (those of one band).
    Each power is taken once per lam, a negative one as a power of conj(lam),
    since u^-1 = u*."""
    powers = np.stack([(np.conj(lams) if k < 0 else lams) ** abs(k) for k in (lo, lo + 1)], axis=-1)
    # take, unlike powers[:, idx], keeps the lam axis outer (C order)
    return vals[..., None, :] * np.take(powers, wraps - lo, axis=1)


def _band_adjoint(terms):
    """(s, w)* is the shift -s with weights roll(conj(w), s)."""
    return [(-s % w.shape[-1], np.roll(np.conj(w), s, axis=-1)) for s, w in terms]


def _band_product(x, y):
    """(s, v)(t, w) is the shift s + t with weights v * roll(w, -s); terms are
    summed by shift."""
    out: dict[int, np.ndarray] = {}
    for s, v in x:
        for t, w in y:
            key = (s + t) % v.shape[-1]
            term = v * np.roll(w, -s, axis=-1)
            out[key] = out[key] + term if key in out else term
    return list(out.items())


def _band_residual(x, y) -> float:
    """Largest entry of |x - y| for two band forms."""
    diff: dict[int, np.ndarray] = {}
    for s, w in x:
        diff[s] = diff[s] + w if s in diff else w
    for s, w in y:
        diff[s] = diff[s] - w if s in diff else -w
    return max(float(np.abs(w).max()) for w in diff.values())


# Seam form: a list of (shift, head, tail) terms, each the matrix with
# weights head[..., r] at (r, r + shift) for r < n - shift and tail[..., r]
# at (n - shift + r, r), the entries that wrap around the cycle.  A weight
# array with a leading axis has one row per lam; one without is shared.


def _seam_twist(diag: np.ndarray, i: int, lams: np.ndarray):
    """diag(diag) S^i(lam) in seam form: the head carries lam to the power
    i // n and the tail one power more, so for |i| < n one side is the band
    values and the other (lams, |i|) seam weights, the same floats that
    _twist gives those entries."""
    n = len(diag)
    s, lo = i % n, i // n

    def part(vals: np.ndarray, k: int) -> np.ndarray:
        if k == 0:
            return vals
        return vals * ((np.conj(lams) if k < 0 else lams) ** abs(k))[:, None]

    return s, part(diag[: n - s], lo), part(diag[n - s :], lo + 1)


def _seam_adjoint(term):
    """(s, head, tail)* is the shift -s, whose head holds the conjugate tail
    and whose tail the conjugate head (for s > 0)."""
    s, head, tail = term
    if s == 0:
        return s, np.conj(head), np.conj(tail)
    return head.shape[-1], np.conj(tail), np.conj(head)


def _seam_rows(terms, keep: np.ndarray):
    """The terms restricted to the lams of a keep mask."""
    return [(s, *(w[keep] if w.ndim > 1 else w for w in sides)) for s, *sides in terms]


def _shifted_sum(terms, v: np.ndarray) -> np.ndarray:
    """Sum of the seam-form terms applied to an (n_lams, L) vector stack."""
    L = v.shape[1]
    out = np.zeros_like(v)
    for s, head, tail in terms:
        out[:, : L - s] += head * v[:, s:]
        if s:
            out[:, L - s :] += tail * v[:, :s]
    return out


class CornerFiber:
    """Fiber field of interp(sample(b)) - b over one cycle, on its seam corner.

    sample(b) is b's fiber at the s hat nodes, the s-th roots of unity in
    index order, and interp blends the two nodes adjacent to a circle point
    (a hat-function combination subordinate to the arcs).  An entry of b's
    fiber that does not wrap around the cycle is constant in lam, so interp
    reproduces it: the field vanishes off S x S, where S holds the rows and
    columns within r of the seam, r the largest |i| of b's bands on the cycle
    (|S| = min(2r, L); ``seam`` lists S in cycle order).  ``L`` is the order
    |S| of its matrices, and ``matrices`` evaluates the S x S block from the
    band coefficients at the two nodes and at lam, entry by entry as the
    dense blend would, so no node stack and no L x L matrix is formed and the
    cost per grid point does not depend on the cycle length or on s.
    """

    def __init__(self, a: CrossedElement, cycle: Cycle, s: int):
        fiber = ElementOrbitFiber(a, cycle)
        bands, r = fiber.bands, fiber.radius
        self.cycle = cycle
        self.s = s
        n = cycle.length
        seam = np.arange(n) if 2 * r >= n else np.r_[0:r, n - r : n]
        self.seam = seam
        self.L = len(seam)
        at = np.full(n, -1)
        at[seam] = np.arange(self.L)
        # per band, the entries inside S x S: (rows, cols, values, wraps, i // n)
        self.entries = []
        for i, diag in bands.items():
            cols = at[(seam + i) % n]
            rows = seam[cols >= 0]
            self.entries.append((at[rows], cols[cols >= 0], diag[rows], (rows + i) // n, i // n))
        # (W+, W-): the entries that wrap once forward and once backward, when
        # no entry wraps more than once (every band has |i| <= n) and every
        # value is finite; then the field is g(lam) W+ + conj(g(lam)) W- (see
        # corner_norm)
        self.wrapped = None
        if all(np.abs(wraps).max(initial=0) <= 1 and np.isfinite(vals).all() for *_, vals, wraps, _ in self.entries):
            self.wrapped = np.zeros((2, self.L, self.L), dtype=np.complex128)
            for rows, cols, vals, wraps, _ in self.entries:
                for side, w in enumerate((1, -1)):
                    once = wraps == w
                    self.wrapped[side, rows[once], cols[once]] += vals[once]

    @property
    def phased(self) -> bool:
        """Whether sigma(W+ + phi W-) can depend on the phase phi.  Its Gram
        matrix carries phi only through W+* W-, which vanishes when W+ or W-
        does, or when their rows are disjoint (2r <= n: W+ has the last r rows
        of the cycle, W- the first r)."""
        w_plus, w_minus = self.wrapped
        return bool((w_plus.conj().T @ w_minus).any())

    @property
    def slack(self) -> float:
        """How far the closed form's upper bound may lie above its value (see
        corner_norm): 0 unless ``phased``, and inf where the closed form does
        not apply (``wrapped`` is None) or would solve more than
        _CLOSED_MAX_PHASES phases."""
        if self.wrapped is None:
            return math.inf
        if not self.phased:
            return 0.0
        if self.s // 2 > _CLOSED_MAX_PHASES:
            return math.inf
        return _sagitta(self.s) * float(np.linalg.norm(self.wrapped[1])) * 2 * math.pi / self.s

    def lip(self) -> float:
        """Arc-Lipschitz bound: the node step over the arc 2 pi / s plus the
        seam entries' own bound.  A band moves an entry f lam^w by |f| |w| per
        unit arc and by |f| |1 - exp(2 pi i w / s)| from node to node; its
        entries form a weighted partial permutation, whose norm is the largest
        weight."""
        step = seam = 0.0
        for _, _, vals, wraps, _ in self.entries:
            size = np.abs(vals)
            step += float(np.max(size * np.abs(2 * np.sin(np.pi * wraps / self.s)), initial=0.0))
            seam += float(np.max(size * np.abs(wraps), initial=0.0))
        return step / (2 * math.pi / self.s) + seam

    def _block(self, lams: np.ndarray, scale=None) -> np.ndarray:
        """The S x S block of b's fiber at each lam, times scale in place."""
        out = np.zeros((len(lams), self.L, self.L), dtype=np.complex128)
        for rows, cols, vals, wraps, lo in self.entries:
            out[:, rows, cols] += _wrap_weights(vals, wraps, lo, lams)
        return out if scale is None else np.multiply(scale, out, out=out)

    def _arcs(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of the node before each lam and lam's fraction of the arc."""
        pos = np.mod(np.angle(lams), 2 * math.pi) * self.s / (2 * math.pi)
        return np.floor(pos).astype(int) % self.s, (pos - np.floor(pos))[:, None, None]

    def matrices(self, lams: np.ndarray) -> np.ndarray:
        j0, frac = self._arcs(lams)
        # (1 - frac) * node j0 + frac * node j1 - b(lam), one block at a time
        out = self._block(np.exp(2j * np.pi * j0 / self.s), 1.0 - frac)
        out += self._block(np.exp(2j * np.pi * ((j0 + 1) % self.s) / self.s), frac)
        out -= self._block(lams)
        return out


def _sagitta(s: int) -> float:
    """The sup of |g| over an arc of the s-node circle, 2 sin^2(pi / 2s): the
    arc's sagitta (see corner_norm)."""
    return 2 * math.sin(math.pi / (2 * s)) ** 2


def _arc_midpoints(s: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The arc midpoints exp(i pi (2j + 1) / s) for j < count and their
    phases conj(mid)^2; at count = s/2 these are every distinct midpoint
    phase (j and j + s/2 share one), 4 pi / s apart."""
    mid = np.exp(1j * np.pi * (2 * np.arange(count) + 1) / s)
    return mid, np.conj(mid) ** 2


def corner_norm(sys: FiniteDynamicalSystem, corners: Sequence[CornerFiber]) -> NormResult:
    """Sup norm of corner fields in closed form, for corners with a finite
    ``slack`` (no entry wraps more than once).

    On the arc between nodes lam_0 and lam_1, with lam at fraction t of it, an
    entry c lam^w of b's fiber blends to c g_w(lam), g_w = (1-t) lam_0^w +
    t lam_1^w - lam^w: g_0 = 0, and g_-1 is the conjugate of g = g_1.  So the
    field is g W+ + conj(g) W-, and sigma(lam) = |g| sigma(W+ + phi W-) with
    phi = conj(g) / g.  At the arc midpoint g = -sag mid, sag = 2 sin^2(pi / 2s)
    the sagitta, so phi = conj(mid)^2.

    |g| <= sag on every arc.  Rotate the arc to lam = exp(i x b), x in [-1, 1],
    b = pi / s <= pi / 2 (s >= 2); with S = sin b and C = cos b,
    h(x) = |g|^2 - sag^2 = x^2 S^2 + 4 C sin^2(x b / 2) - 2 x S sin(x b),
    which is even with h(0) = 0.  For y = x b in [0, b],
    h'(x) / 2 = y S^2 / b - (S - C b) sin y - y S cos y = -S q(y), with
    q(y) = y cos y + (S - C b) / S sin y - y S / b.  q(0) = q(b) = 0 and
    q'' = -2 sin y - y cos y - (S - C b) / S sin y <= 0 on [0, b], since
    tan b >= b; so q >= 0 there, h is nonincreasing on [0, 1] and h <= 0.

    ``value`` is sag times the largest sigma(W+ + phi W-) over the s/2
    midpoint phases, one batched eigensolve of S x S matrices, and ``argmax``
    the midpoint attaining it, so value is sigma at a real lam up to
    eigvalsh's rounding.  The phases lie 4 pi / s apart and phi ->
    sigma(W+ + phi W-) moves by at most ||W-|| <= ||W-||_F per radian, so
    value + sag ||W-||_F 2 pi / s (the corner's ``slack``) bounds the sup.
    Where sigma does not depend on phi (not ``phased``: W+* W- = 0, as when
    2r <= n for radius r and cycle length n) one matrix is solved and the
    slack is 0.  ``upper`` = value +
    ``tol`` is the largest value + slack over the corners; ``grids`` counts
    the phases solved per orbit."""
    value, upper, argmax = 0.0, 0.0, None
    grids: dict[str, int] = {}
    per_orbit: dict[str, tuple[float, complex]] = {}
    for fiber in corners:
        label = sys.labels[fiber.cycle.base]
        w_plus, w_minus = fiber.wrapped
        mid, phases = _arc_midpoints(fiber.s, fiber.s // 2 if fiber.phased else 1)
        chunk = max(1, _DENSE_CHUNK_ENTRIES // (fiber.L * fiber.L))
        sig = np.concatenate([
            _sigma_exact(w_plus + phases[lo : lo + chunk, None, None] * w_minus)
            for lo in range(0, len(phases), chunk)
        ])
        j = int(np.argmax(sig))
        best = _sagitta(fiber.s) * float(sig[j])
        grids[label], per_orbit[label] = len(phases), (best, complex(mid[j]))
        upper = max(upper, best + fiber.slack)
        if best > value:
            value, argmax = best, (label, complex(mid[j]))
    return NormResult(value=value, tol=upper - value, argmax=argmax, grids=grids, per_orbit=per_orbit,
                      solvers=dict.fromkeys(grids, "closed"), evaluations=sum(grids.values()))


def _sigma_exact(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack: the square root of
    the top eigenvalue of its Gram matrix, from eigvalsh; NaN throughout
    when a Gram entry overflowed, on which eigvalsh may fail."""
    if mats.shape[1] == 1:
        return np.abs(mats[:, 0, 0])
    gram = mats.conj().transpose(0, 2, 1) @ mats
    if not np.isfinite(gram).all():
        return np.full(len(mats), np.nan)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def _sturm_above(alpha: np.ndarray, b2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether the symmetric tridiagonal with diagonal alpha and squared
    subdiagonal b2 (one per column) has an eigenvalue at or above x, by a
    Sturm count; x holds one point per column, or rows of them."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # T - x has a pivot >= 0 in its LDL^T iff T has an eigenvalue >= x;
        # pivots after the first such one do not matter (fmax skips NaN)
        d = alpha[0] - x
        top = d.copy()
        for a, bb in zip(alpha[1:], b2):
            d = (a - x) - bb / d
            np.fmax(top, d, out=top)
    return top >= 0


def _top_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, int]:
    """Certified lower bound on the top eigenvalue of each symmetric
    tridiagonal (one per column: diagonal alpha, subdiagonal beta >= 0), and
    the number of columns that took bisection.

    While m k^2 <= _RITZ_DENSE_MAX, one batched eigensolve estimates each top
    eigenvalue est.  One Sturm sweep then tests the candidates est minus
    _RITZ_BACKOFF ulps of the Gershgorin scale (max|alpha| + 2 max beta),
    clamped at max alpha, and the guard est plus the widest back-off; the
    first candidate with an eigenvalue at or above it is the result, unless an
    eigenvalue lies at or above the guard (the estimate is too low to give a
    close bound; eigvalsh loses accuracy over a wide dynamic range).  Those
    columns, the ones with no passing candidate and larger batches bisect
    with Sturm counts from max alpha up to max alpha + 2 max beta
    (Gershgorin), _BISECT_STEPS times.  Max alpha always has an eigenvalue at
    or above it, so every result is a lower bound.  A column holding a value
    that is not finite (a Lanczos step overflowed) reads NaN."""
    k, m = alpha.shape
    finite = np.isfinite(alpha).all(axis=0) & np.isfinite(beta).all(axis=0)
    if not finite.all():
        out = np.full(m, np.nan)
        out[finite], bisected = _top_ritz(alpha[:, finite], beta[:, finite])
        return out, bisected
    lo, b2, bmax = alpha.max(axis=0), beta * beta, beta.max(axis=0, initial=0.0)
    out, todo = lo.copy(), np.arange(m)
    if m * k * k <= _RITZ_DENSE_MAX:
        tri, i = np.zeros((m, k, k)), np.arange(k)
        tri[:, i, i] = alpha.T
        tri[:, i[1:], i[:-1]] = beta.T  # eigvalsh reads the lower triangle
        est = np.linalg.eigvalsh(tri)[:, -1]
        ulp = np.spacing(np.abs(alpha).max(axis=0) + 2 * bmax)
        back = np.array(_RITZ_BACKOFF, dtype=float)[:, None] * ulp
        points = np.vstack([np.maximum(est - back, lo), est + back[-1]])
        above = _sturm_above(alpha, b2, points)
        passed = above[:-1].any(axis=0) & ~above[-1]
        out[passed] = points[above[:-1].argmax(axis=0), todo][passed]
        todo = todo[~passed]
    if todo.size:
        alpha, b2, lo = alpha[:, todo], b2[:, todo], lo[todo]
        hi = lo + 2 * bmax[todo]
        for _ in range(_BISECT_STEPS):
            x = 0.5 * (lo + hi)
            above = _sturm_above(alpha, b2, x)
            lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        out[todo] = lo
    return out, int(todo.size)


def _quiet_cut(start: np.ndarray, k: int) -> int:
    """The slot c at which the start vector has the least weight within k
    slots (those at c - k .. c + k - 1, counted circularly), the first such
    one; 0 when k = 0 or the window covers the cycle."""
    L = len(start)
    if k == 0 or 2 * k >= L:
        return 0
    weight = np.abs(np.concatenate([start[L - k :], start, start[:k]])) ** 2
    return int(np.argmin(np.convolve(weight, np.ones(2 * k), "valid")[:L]))


def _lanczos_point_bytes(fiber: ElementOrbitFiber) -> int:
    """Bytes _sigma_max_lanczos holds per point of a batch: seven (L,)
    complex vectors (q, q_prev, w, the two shifted sums and a product), the
    seam weights of the fiber and of its adjoint, and four float columns of
    the step cap (alpha and beta, and their copies when a check bisects).
    Traced peaks per point of 64-point batches from a random start (radius 1
    and 3; L = 200, 1000 and 8000) came to six vectors plus 8-19 KiB."""
    seam = sum(min(abs(i), fiber.L) for i in fiber.bands)
    return 16 * (7 * fiber.L + 2 * seam) + 32 * _LANCZOS_MAX_STEPS


def _sigma_max_lanczos(fiber: ElementOrbitFiber, lams: np.ndarray, start: np.ndarray | None = None):
    """Largest singular value per lam by Lanczos on a*a, in lockstep over all
    lams, without reorthogonalization, from one start vector x (``start``,
    normalized, or else a fixed-seed random one) moved to each lam by P(lam)
    = diag(conj(lam) on the slots r < c), c = _quiet_cut(x, radius).  P is
    unitary and P* a(lam) P carries lam only on the entries that cross c, so
    a top vector of a(1) with no weight near c starts every lam at its top
    vector (P(1) = 1, and c = 0 leaves x as it is).  Top Ritz values are
    recomputed at every step up to 8 and every k/4 steps after step k; a lam
    whose estimate moved by at most _REL_TOL relative since the last check
    leaves the batch.  Any start gives lower bounds: a Ritz value never
    exceeds the top eigenvalue, up to roundoff.

    Returns the estimates, the number of lams still moving at the step cap,
    the number of Lanczos steps summed over the lams, the number of checks
    (one per lam) whose Ritz value took bisection, and, for a single lam
    with a finite estimate, its top Ritz vector Q y (Q the Lanczos basis, y
    the top eigenvector of the tridiagonal), else None.  A lam whose steps
    overflowed reads NaN (see _top_ritz) and leaves the batch."""
    if start is None or not np.linalg.norm(start) > 0:  # a fiber vanishing at the seed point
        re, im = np.random.default_rng(_LANCZOS_SEED).standard_normal((2, fiber.L))
        start = re + 1j * im
    q = np.tile(start / np.linalg.norm(start), (len(lams), 1))
    cut = _quiet_cut(start, fiber.radius)
    q[:, :cut] *= np.conj(lams)[:, None]
    q_prev = np.zeros_like(q)
    alpha, beta = np.zeros((2, _LANCZOS_MAX_STEPS, len(lams)))
    est, active = np.zeros(len(lams)), np.arange(len(lams))
    terms, adj_terms = fiber.twists(lams)
    basis = [] if len(lams) == 1 else None
    check, steps, bisections = 1, 0, 0
    for k in range(1, _LANCZOS_MAX_STEPS + 1):
        steps += len(active)
        if basis is not None:
            basis.append(q[0])
        w = _shifted_sum(adj_terms, _shifted_sum(terms, q))
        alpha[k - 1] = np.vecdot(q, w).real
        w -= alpha[k - 1, :, None] * q + beta[k - 2, :, None] * q_prev  # q_prev = 0 at k = 1
        beta[k - 1] = np.linalg.norm(w, axis=1)
        # beta = 0: the Krylov space is invariant, so its Ritz values are exact
        q_prev, q = q, w / np.where(beta[k - 1] > 0, beta[k - 1], 1.0)[:, None]
        if k < min(check, _LANCZOS_MAX_STEPS):
            continue
        check += max(1, k // 4)
        top, bisected = _top_ritz(alpha[:k], beta[: k - 1])
        new, bisections = np.sqrt(np.maximum(top, 0.0)), bisections + bisected
        keep = np.abs(new - est[active]) > _REL_TOL * new
        est[active] = new
        if not keep.all():
            active = active[keep]
            if not active.size:
                break
            q, q_prev, alpha, beta = q[keep], q_prev[keep], alpha[:, keep], beta[:, keep]
            terms, adj_terms = _seam_rows(terms, keep), _seam_rows(adj_terms, keep)
    ritz = None
    if basis is not None and np.isfinite(est[0]):
        k = len(basis)
        tri = np.diag(alpha[:k, 0]) + np.diag(beta[: k - 1, 0], 1) + np.diag(beta[: k - 1, 0], -1)
        ritz = np.linalg.eigh(tri)[1][:, -1] @ np.array(basis)
    return est, len(active), steps, bisections, ritz


@dataclass(frozen=True)
class NormResult:
    """Certified two-sided operator norm estimate.

    The true norm lies in [value, value + tol]: ``value`` is the best point
    the solvers evaluated, and ``argmax`` records its orbit base label and
    circle point.  ``grids`` holds each orbit's dyadic grid size n, the
    finest level of fiber_sup_norm's branch-and-bound and its cap on the
    points it evaluates there, ``evaluations`` the points (lam values, or
    closed-form phases) actually solved, summed over the orbits,
    ``per_orbit`` the per-orbit maxima with their attaining circle points,
    ``unconverged`` the number of evaluated points whose Lanczos estimate
    was still moving at the step cap, ``lanczos_steps`` the Lanczos steps
    summed over the evaluated points, ``ritz_bisections`` the point checks
    whose top Ritz value was certified by bisection rather than by a dense
    estimate and one Sturm sweep, and ``solvers`` the solver of each orbit:
    ``"band"`` or ``"lanczos"`` for an element fiber, ``"closed"`` or
    ``"dense"`` for a seam corner.  A ``"band"`` orbit (an element fiber
    f u^i of one band) reads max|f| exactly at lam = 1 with a grid of 1 and
    keeps the caller's tol, so its upper bound is true but loose.  A
    closed-form result (corner_norm) has no grid: its tol is the width of
    its own bound, at most the caller's tol, and ``grids`` counts the phases
    it solved.
    """

    value: float
    tol: float
    argmax: tuple[str, complex] | None
    grids: dict[str, int]
    per_orbit: dict[str, tuple[float, complex]]
    solvers: dict[str, str]
    unconverged: int = 0
    lanczos_steps: int = 0
    ritz_bisections: int = 0
    evaluations: int = 0

    @property
    def upper(self) -> float:
        return self.value + self.tol


def _solver(fiber) -> str:
    """How fiber_sup_norm reads a fiber: ``"band"`` for an element fiber of
    one band, ``"lanczos"`` for any other element fiber, and ``"dense"``
    for a fiber that is not an element fiber."""
    if not isinstance(fiber, ElementOrbitFiber):
        return "dense"
    return "band" if len(fiber.bands) == 1 else "lanczos"


def _sigma_batches(fiber, solver: str, label: str, counts: np.ndarray):
    """sigma at a batch of lams by the fiber's solver, as a function of the
    batch that refuses a sigma that is not finite; Lanczos counts
    (unconverged, steps, bisections) add into counts.  A band fiber diag(f)
    S^i(lam) is f times a unitary at every lam, so it reads max|f|.  Lanczos
    runs its first batch (grid point 0 alone) from the fixed seed and every
    later batch, in chunks, from that point's top Ritz vector."""
    if solver == "band":
        (band,) = fiber.bands.values()
        top = np.abs(band).max()
        read = lambda lams: np.full(len(lams), top)
    elif solver == "dense":
        chunk = min(_GRID_CHUNK, max(1, _DENSE_CHUNK_ENTRIES // (fiber.L * fiber.L)))
        read = lambda lams: np.concatenate(
            [_sigma_exact(fiber.matrices(lams[lo : lo + chunk])) for lo in range(0, len(lams), chunk)])
    else:
        chunk = max(1, _LANCZOS_CHUNK_BYTES // _lanczos_point_bytes(fiber))
        warm: list = []

        def read(lams: np.ndarray) -> np.ndarray:
            nonlocal counts
            if not warm:
                sig, *first, ritz = _sigma_max_lanczos(fiber, lams)
                counts += first
                warm.append(ritz)
                return sig
            sig = np.empty(len(lams))
            for lo in range(0, len(lams), chunk):
                sig[lo : lo + chunk], *more, _ = _sigma_max_lanczos(fiber, lams[lo : lo + chunk], warm[0])
                counts += more
            return sig

    def solve(lams: np.ndarray) -> np.ndarray:
        sig = read(lams)
        if not np.isfinite(sig).all():
            raise ValueError(f"fiber over the orbit of {label!r} has a spectral norm that is not finite "
                             "(its entries' squares overflow)")
        return sig

    return solve


def _refine(n: int, lip: float, tol: float, solve) -> tuple[np.ndarray, np.ndarray]:
    """The grid indices a Lipschitz branch-and-bound (Piyavskii; Shubert)
    solves on the n-point grid, n a power of two, and their sigma.

    Point 0 is solved alone; the arc [0, n] then closes the circle.  Level by
    level, every arc [a, b] whose bound (sigma_a + sigma_b) / 2 +
    lip (b - a) pi / n, the most a function of arc-Lipschitz bound lip can
    reach on the arc of (b - a) 2 pi / n radians, lies above best + tol is
    split at its midpoint, and all those midpoints are solved in one batch;
    the refinement stops when no arc is live.  An arc of one grid step is
    never split, so at most n points are solved, and when lip pi / n <= tol
    its bound is at most best + tol; so the sup of sigma over the circle is
    at most the best solved value plus tol."""
    idx = np.zeros(1, dtype=np.int64)
    sig = solve(_grid(n, idx))
    solved, values, best = [idx], [sig], float(sig[0])
    a, b, sa, sb = idx, np.full(1, n), sig, sig
    while True:
        live = (b - a > 1) & ((sa + sb) / 2 + lip * (b - a) * math.pi / n > best + tol)
        if not live.any():
            break
        a, b, sa, sb = a[live], b[live], sa[live], sb[live]
        mid = (a + b) // 2
        sig = solve(_grid(n, mid))
        solved.append(mid)
        values.append(sig)
        best = max(best, float(sig.max()))
        a, b, sa, sb = np.r_[a, mid], np.r_[mid, b], np.r_[sa, sig], np.r_[sig, sb]
    return np.concatenate(solved), np.concatenate(values)


def fiber_sup_norm(sys: FiniteDynamicalSystem, fibers: Sequence, tol: float, *, scale_exp: int = 0) -> NormResult:
    """Sup of fiber spectral norms over the circle, certified to within tol
    by a branch-and-bound over per-orbit dyadic grids.

    A fiber has a ``cycle``, the order ``L`` of its matrices, an arc-Lipschitz
    bound ``lip()`` and ``matrices(lams)``.  Each orbit's grid size n is the
    least power of two with lip * (pi / n) <= tol (1 for a fiber of one
    band).  n is the finest level of _refine and its cap on the points
    solved, not a list of points: _refine solves point 0, then only the
    midpoints of arcs whose Lipschitz bound can still beat the best value by
    more than tol, so only the lam values it solves are built.  Its bound
    uses, for an element fiber, the gauge bound sum_i sup|f_i| |i| / L
    (ElementOrbitFiber.gauge_lip: D = diag(mu^-r), mu^L = lam, conjugates
    the fiber to sum_i diag(f_i) S^i(1) mu^i), at most lip(), and lip()
    for any other fiber.  ``value`` is the best point solved, so the sup
    lies in [value, value + tol], and value lies at most tol below the
    largest sigma over the full grid.  An element fiber of one band is read
    as max|f| at the one point lam = 1, any other element fiber by Lanczos,
    and a fiber that is not an element fiber by a dense eigensolve at each
    point solved (see the module docstring).

    A fiber whose bound is not finite (a NaN or infinite coefficient) is
    refused: nothing certifies it.  So is a fiber whose grid would hold more
    than _GRID_MAX_BYTES (16 bytes a point for lam and 8 for sigma); both are
    refused before anything is solved.  So is a Lanczos fiber whose entries
    all lie below 2^-_SCALE_EXP, whose squares underflow so that Lanczos may
    read far below sigma, when tol lies below its coefficient bound sum_i
    sup|f_i| (a bound on sigma, so a larger tol certifies any value >= 0);
    norm solves such a fiber at a power-of-two scale.  A fiber whose solver
    yields a sigma that is not finite (entries so large that the squares the
    solver forms overflow, which norm's scaling avoids) is refused once
    solved.  When the fibers and tol are those of a caller's element and tol
    scaled by 2^-scale_exp (see norm), a refusal quotes the bound and tol
    times 2^scale_exp: the caller's own numbers, unless norm had to clamp
    the scaled tol into the positive floats.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    plan = []
    for fiber in fibers:
        lip = fiber.lip()
        label = sys.labels[fiber.cycle.base]
        if not math.isfinite(lip):
            raise ValueError(f"fiber over the orbit of {label!r} is not finite (Lipschitz bound {lip})")
        solver, n = _solver(fiber), 1
        if lip > 0 and solver != "band":
            points = lip * math.pi / tol
            n = _next_pow2(points) if math.isfinite(points) else math.inf
        if 24 * n > _GRID_MAX_BYTES:
            raise ValueError(
                f"fiber over the orbit of {label!r} needs a grid of {n} points, {24 * n} bytes "
                f"(Lipschitz bound {math.ldexp(lip, scale_exp)}, tol {math.ldexp(tol, scale_exp)}), "
                f"over the limit of {_GRID_MAX_BYTES} bytes"
            )
        sups = [float(np.abs(d).max()) for d in fiber.bands.values()] if solver == "lanczos" else []
        if sups and max(sups) < 2.0**-_SCALE_EXP and tol < sum(sups):
            raise ValueError(
                f"fiber over the orbit of {label!r} has entries below 2^-{_SCALE_EXP} (largest {max(sups)}), "
                f"whose squares underflow, and tol {tol} is below its coefficient bound {sum(sups)}: "
                "solve it through norm, which scales it"
            )
        plan.append((fiber, label, n, solver))
    value, argmax, counts = 0.0, None, np.zeros(3, dtype=np.int64)
    grids: dict[str, int] = {}
    per_orbit: dict[str, tuple[float, complex]] = {}
    solvers: dict[str, str] = {}
    evaluations = 0
    for fiber, label, n, solver in plan:
        grids[label], solvers[label] = n, solver
        lip = fiber.gauge_lip() if isinstance(fiber, ElementOrbitFiber) else fiber.lip()
        idx, sig = _refine(n, lip, tol, _sigma_batches(fiber, solver, label, counts))
        evaluations += len(idx)
        # the first grid point attaining the maximum, as np.argmax over the grid
        j = idx[sig == sig.max()].min(keepdims=True)
        best, best_lam = float(sig.max()), complex(_grid(n, j)[0])
        per_orbit[label] = (best, best_lam)
        if best > value:
            value, argmax = best, (label, best_lam)
    unconverged, lanczos_steps, ritz_bisections = map(int, counts)
    return NormResult(value=value, tol=float(tol), argmax=argmax, grids=grids, per_orbit=per_orbit,
                      solvers=solvers, unconverged=unconverged, lanczos_steps=lanczos_steps,
                      ritz_bisections=ritz_bisections, evaluations=evaluations)


def norm(a: CrossedElement, tol: float = 1e-3) -> NormResult:
    """Certified operator norm of a crossed element (max over orbit fibers).

    An element whose largest coefficient entry lies outside [2^-_SCALE_EXP,
    2^_SCALE_EXP] is solved as a 2^-e, with 2^(e-1) <= that entry < 2^e, at
    tol 2^-e tol (kept within the positive floats), and value and per_orbit
    are scaled back by 2^e.  Scaling by a power of two is exact (for every
    entry above 2^-1021 times the largest), so the grids are those of a
    itself; out of range, the squares the solvers form would overflow, or
    underflow and report 0 below the true norm.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    top = max((float(np.abs(f).max()) for f in a.coeffs.values()), default=0.0)
    e = math.frexp(top)[1] if 0 < top < 2.0**-_SCALE_EXP or 2.0**_SCALE_EXP < top < math.inf else 0
    if e:
        a = math.ldexp(1.0, -e) * a
    fibers = [ElementOrbitFiber(a, cyc) for cyc in a.sys.orbits().cycles]
    scaled = min(max(math.ldexp(tol, -e), math.ulp(0.0)), np.finfo(float).max)
    result = fiber_sup_norm(a.sys, [fib for fib in fibers if fib.bands], scaled, scale_exp=e)
    if not e:
        return result
    per_orbit = {label: (math.ldexp(v, e), lam) for label, (v, lam) in result.per_orbit.items()}
    return replace(result, value=math.ldexp(result.value, e), tol=float(tol), per_orbit=per_orbit)


# ---------------------------------------------------------------------------
# periodic systems: embedding, spectrum


class PeriodicEmbedding:
    """Covariant embedding of the crossed product of a periodic system into
    n x n matrix functions on the circle, held in band form.

    At a point x and circle parameter lam, u is the shift 1 with weights
    (1, ..., 1, lam); a function f is the diagonal (f(alpha_{-r}(x)))_r of
    its first n backward iterates; so a crossed element sum_i f_i u^i is
    sum_i diag(f_i o alpha_{-r}) S^i(lam), at most 2k + 1 weighted diagonals
    for support radius k (see _twist).  No n x n matrix is formed.  The
    residuals stream the lam grid in chunks of ``chunk`` points, holding at
    most ``point_bytes`` per grid point of the chunk, so their memory is
    O(points * chunk * n); a system whose single grid point needs more than
    _EMBED_CHUNK_BYTES, and a lam grid of more than _GRID_MAX_BYTES, are
    refused before anything is allocated.  Injectivity is checked
    numerically by a commuting square with the canonical expectation (grid
    average of the diagonal).
    """

    def __init__(self, sys: FiniteDynamicalSystem, grid: int, n: int | None = None):
        if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 1:
            raise ValueError(f"grid must be an integer >= 1, got grid = {grid!r}")
        if 16 * grid > _GRID_MAX_BYTES:
            raise ValueError(
                f"a lam grid of {grid} points needs {16 * grid} bytes, over the limit of {_GRID_MAX_BYTES} bytes"
            )
        lengths = {c.length for c in sys.orbits().cycles}
        if n is None:
            n = math.lcm(*lengths)
        elif isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got n = {n!r}")
        elif any(n % length for length in lengths):
            raise ValueError(f"n = {n} is not a period of the system (cycle lengths {sorted(lengths)})")
        n = int(n)
        # per grid point a residual holds at most three (points, n) and six
        # (n,) complex arrays; refuse before allocating
        point_bytes = 16 * n * (3 * sys.n + 6)
        if point_bytes > _EMBED_CHUNK_BYTES:
            raise ValueError(
                f"periodic embedding of period {n} needs {point_bytes} bytes per grid point "
                f"on {sys.n} points, over the limit of {_EMBED_CHUNK_BYTES} bytes per grid chunk"
            )
        self.sys = sys
        self.n = n
        self.grid = int(grid)
        self.point_bytes = point_bytes
        self.chunk = _EMBED_CHUNK_BYTES // point_bytes
        self.lams = _grid(self.grid)
        # (points, n) index of the first n backward iterates of each point
        self._backward = sys.orbits().iterate(-np.arange(n), np.arange(sys.n)[:, None])

    @property
    def peak_bytes(self) -> int:
        """Bound on the traced peak of one residual: a full chunk, the lam
        grid, fixed (points, n) arrays worth at most two grid points, and
        64 KiB of interpreter objects."""
        return (min(self.chunk, self.grid) + 2) * self.point_bytes + 16 * self.grid + 2**16

    def _chunks(self):
        """The lam grid, one streamed chunk at a time."""
        return (self.lams[s : s + self.chunk] for s in range(0, self.grid, self.chunk))

    def _diagonal(self, values) -> np.ndarray:
        """(points, n) diagonal of ``beta(values)``."""
        return np.asarray(values, dtype=np.complex128)[self._backward]

    def u(self, lams: np.ndarray):
        """Band form of u at each lam: the shift 1 with weights (1, ..., 1, lam)."""
        return [_twist(np.ones(self.n), 1, lams)]

    def beta(self, values):
        """Band form of a function: its (points, 1, n) diagonal, constant in lam."""
        return [(0, self._diagonal(values)[:, None, :])]

    def embed(self, a: CrossedElement, lams: np.ndarray):
        """Band form of a crossed element at each lam: one term per power,
        with (points, len(lams), n) weights."""
        return [_twist(self._diagonal(f), i, lams) for i, f in a.coeffs.items()]

    def unitarity_residual(self) -> float:
        """max over the grid of |u u* - 1|."""
        eye = [(0, np.ones(self.n))]
        return max(
            _band_residual(_band_product(u, _band_adjoint(u)), eye) for u in map(self.u, self._chunks())
        )

    def covariance_residual(self, values) -> float:
        """max over grid and points of |u beta(f) u* - beta(f o forward^{-1})|."""
        beta = self.beta(values)
        rolled = self.beta(np.asarray(values)[self.sys.perm_inv])
        return max(
            _band_residual(_band_product(_band_product(u, beta), _band_adjoint(u)), rolled)
            for u in map(self.u, self._chunks())
        )

    def expectation_residual(self, a: CrossedElement) -> float:
        """Commuting square defect: embed(E(a)) vs diagonal grid average of embed(a)."""
        # only the powers divisible by n reach the diagonal
        on_diagonal = {i: f for i, f in a.coeffs.items() if i % self.n == 0}
        total = np.zeros((self.sys.n, self.n), dtype=np.complex128)
        for lams in self._chunks() if on_diagonal else ():
            diagonal = sum(_twist(self._diagonal(f), i, lams)[1] for i, f in on_diagonal.items())
            # one grid point at a time in grid order, the order of a dense mean
            for column in diagonal.transpose(1, 0, 2):
                total += column
        return float(np.abs(total / self.grid - self._diagonal(a.expectation())).max())


def periodic_embedding(sys: FiniteDynamicalSystem, grid: int, n: int | None = None) -> PeriodicEmbedding:
    return PeriodicEmbedding(sys, grid, n)


@dataclass(frozen=True)
class PrimSpectrumReport:
    """Counts of length-k orbits with the product structure of each stratum."""

    counts: dict[int, int]
    period: int
    max_irreducible_dim: int
    rows: tuple[dict, ...]


def primitive_spectrum(sys: FiniteDynamicalSystem) -> PrimSpectrumReport:
    lengths = [c.length for c in sys.orbits().cycles]
    period = math.lcm(*lengths)
    counts: dict[int, int] = {}
    for L in lengths:
        counts[L] = counts.get(L, 0) + 1
    rows = tuple(
        {"k": k, "orbit_count": counts[k], "structure": f"{counts[k]} orbit classes x circle"}
        for k in sorted(counts)
    )
    return PrimSpectrumReport(
        counts=counts,
        period=period,
        max_irreducible_dim=max(lengths, default=0),
        rows=rows,
    )
