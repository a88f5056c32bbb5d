"""A concrete model of the crossed product of functions on a finite system by Z.

Elements are finitely supported Laurent series sum_i f_i u^i with functions
f_i on the point set and a unitary u implementing the forward map.  The single
convention used everywhere is

    u g u* = g o forward^{-1},   i.e.   (f u^i)(g u^j) = f . (g o alpha_{-i}) u^{i+j},

where alpha_i denotes the i-th forward iterate.  The algebra splits over
orbits, and over each cycle of length L it is the L x L matrices over the
circle; all norms are computed fiberwise over a circle grid whose spacing is
chosen from an explicit Lipschitz bound, so the reported value is certified
from below and value + tol from above.

Fiber spectral norms come from a dense Hermitian eigensolver on cycles of at
most 32 points and on fibers given only by matrices, and otherwise from
Lanczos on a(lam)*a(lam): grid point 0 alone from a fixed-seed random vector,
then every other point, in lockstep chunks, from point 0's top Ritz vector.
The fiber's top singular vector moves little with lam, so the warm start
settles in a few steps.  A top Ritz value grows with the step count
(interlacing) and, from any start and even without reorthogonalization, stays
below the top eigenvalue up to roundoff (Paige).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dynsys import Cycle, FiniteDynamicalSystem

__all__ = [
    "CrossedElement",
    "HostMismatchError",
    "OrbitFiberRep",
    "OrbitIsomorphism",
    "PeriodicEmbedding",
    "PrimSpectrumReport",
    "NormResult",
    "orbit_rep",
    "orbit_rep_with_phases",
    "orbit_isomorphism",
    "periodic_embedding",
    "primitive_spectrum",
    "holonomy",
    "norm",
    "fiber_sup_norm",
    "ElementOrbitFiber",
    "InterpolationFiber",
    "CombinedFiber",
    "regular_window_norm",
]

_UNIT_TOL = 1e-12
# cycles up to this length use a dense eigensolver per fiber, longer ones the
# banded Lanczos solver (over 256 grid points: equal cost at L = 32, Lanczos
# 1.6x faster at L = 48 and 3-8x at L = 96)
_DENSE_MAX_L = 32
_LANCZOS_SEED = 0x5EED
# random banded elements on cycles of 48-300 points settle to _REL_TOL within
# 20-40 steps from the seed vector and mostly within 8 from a warm start;
# points still moving at the cap count as NormResult.unconverged
_LANCZOS_MAX_STEPS = 256
_RITZ_EVERY = 4
_BISECT_STEPS = 50
_REL_TOL = 1e-13
_GRID_CHUNK = 4096
# peak bytes a periodic embedding may use: three (points, grid, n, n) images
_EMBED_MAX_BYTES = 2 * 2**30


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

    def restricted(self, subset: Iterable[int]) -> "CrossedElement":
        """Zero the coefficients outside an invariant point subset."""
        mask = np.zeros(self.sys.n)
        mask[list(subset)] = 1.0
        return CrossedElement(self.sys, {i: arr * mask for i, arr in self.coeffs.items()})

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

def _grid(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def _next_pow2(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1.0, x))))


class ElementOrbitFiber:
    """Fiber field of a crossed element over one cycle.

    Carries the coefficient data in representation order, an arc-Lipschitz
    bound, and both dense and banded evaluation paths.
    """

    def __init__(self, a: CrossedElement, cycle: Cycle):
        self.cycle = cycle
        self.L = cycle.length
        pts = _rep_points(a.sys, cycle)
        self.bands = {i: f[pts] for i, f in a.coeffs.items() if np.any(np.abs(f[pts]) != 0)}

    def lip(self) -> float:
        return float(sum(np.abs(d).max() * math.ceil(abs(i) / self.L) for i, d in self.bands.items()))

    def matrices(self, lams: np.ndarray) -> np.ndarray:
        L = self.L
        out = np.zeros((len(lams), L, L), dtype=np.complex128)
        rows = np.arange(L)
        for i, diag in self.bands.items():
            cols = (rows + i) % L
            wraps = (rows + i) // L
            out[:, rows, cols] += diag[None, :] * lams[:, None] ** wraps[None, :]
        return out

    def matvec_pair(self, lams: np.ndarray):
        """(apply, apply_adjoint) closures acting on (n_lams, L) vector stacks.

        Both sum weighted cyclic shifts w[:, r] * v[:, (r + s) % L], taken as
        views of one doubled copy of v; the twist weights (band values times
        the wrap power of lam) are precomputed once per lam batch.
        """
        L = self.L
        terms, adj_terms = [], []
        for i, diag in self.bands.items():
            w = diag[None, :] * lams[:, None] ** ((np.arange(L) + i) // L)[None, :]
            terms.append((i % L, w))
            adj_terms.append((-i % L, np.roll(np.conj(w), i, axis=1)))

        def shifted_sum(terms):
            def act(v):
                doubled = np.concatenate([v, v], axis=1)
                out = np.zeros_like(v)
                for s, w in terms:
                    out += w * doubled[:, s : s + L]
                return out
            return act

        return shifted_sum(terms), shifted_sum(adj_terms)


class InterpolationFiber:
    """Piecewise-linear (in arc angle) interpolation through node matrices.

    Nodes sit at the s-th roots of unity in index order; evaluation at an
    arbitrary circle point blends the two adjacent nodes, which is exactly a
    hat-function combination subordinate to the arcs.
    """

    def __init__(self, cycle: Cycle, nodes: np.ndarray):
        self.cycle = cycle
        nodes = np.asarray(nodes, dtype=np.complex128)
        if nodes.ndim != 3 or nodes.shape[1] != nodes.shape[2]:
            raise ValueError("nodes must be a stack of square matrices")
        self.nodes = nodes
        self.s = nodes.shape[0]
        self.L = nodes.shape[1]

    def lip(self) -> float:
        diffs = self.nodes - np.roll(self.nodes, -1, axis=0)
        step = max(float(np.linalg.norm(d, 2)) for d in diffs)
        return step / (2 * math.pi / self.s)

    def matrices(self, lams: np.ndarray) -> np.ndarray:
        theta = np.mod(np.angle(lams), 2 * math.pi)
        pos = theta * self.s / (2 * math.pi)
        j0 = np.floor(pos).astype(int) % self.s
        frac = (pos - np.floor(pos))[:, None, None]
        j1 = (j0 + 1) % self.s
        return (1.0 - frac) * self.nodes[j0] + frac * self.nodes[j1]


class CombinedFiber:
    """Signed sum of fiber fields over the same cycle."""

    def __init__(self, parts: Sequence, signs: Sequence[float] | None = None):
        if not parts:
            raise ValueError("need at least one part")
        self.parts = list(parts)
        self.signs = list(signs) if signs is not None else [1.0] * len(parts)
        self.L = parts[0].L
        self.cycle = parts[0].cycle

    def lip(self) -> float:
        return float(sum(abs(s) * p.lip() for s, p in zip(self.signs, self.parts)))

    def matrices(self, lams: np.ndarray) -> np.ndarray:
        out = self.signs[0] * self.parts[0].matrices(lams)
        for s, p in zip(self.signs[1:], self.parts[1:]):
            out += s * p.matrices(lams)
        return out


def _sigma_max_dense(fiber, lams: np.ndarray) -> np.ndarray:
    mats = fiber.matrices(lams)
    if mats.shape[1] == 1:
        return np.abs(mats[:, 0, 0])
    gram = mats.conj().transpose(0, 2, 1) @ mats
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def _top_ritz(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each symmetric tridiagonal (one per column: diagonal
    alpha, subdiagonal beta >= 0) by Sturm-count bisection, from the largest
    diagonal entry up to that plus twice the largest beta (Gershgorin).  The
    lower end always has an eigenvalue at or above it, so the result is a
    lower bound, short by at most 2^-_BISECT_STEPS of the starting bracket."""
    lo, b2 = alpha.max(axis=0), beta * beta
    hi = lo + 2 * beta.max(axis=0, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_BISECT_STEPS):
            x = 0.5 * (lo + hi)
            # T - x has a pivot >= 0 in its LDL^T iff T has an eigenvalue >= x;
            # pivots after the first such one do not matter (fmax skips NaN)
            d = alpha[0] - x
            top = d.copy()
            for a, bb in zip(alpha[1:], b2):
                d = (a - x) - bb / d
                np.fmax(top, d, out=top)
            above = top >= 0
            lo, hi = np.where(above, x, lo), np.where(above, hi, x)
    return lo


def _sigma_max_lanczos(fiber: ElementOrbitFiber, lams: np.ndarray, start: np.ndarray | None = None):
    """Largest singular value per lam by Lanczos on a*a, in lockstep over all
    lams, from one start vector (``start``, normalized, or else a fixed-seed
    random one) and without reorthogonalization.  Top Ritz values are
    recomputed every _RITZ_EVERY steps (every k/4 once longer); a lam whose
    estimate moved by at most _REL_TOL relative since the last check leaves
    the batch.  Any start gives lower bounds: a Ritz value never exceeds the
    top eigenvalue, up to roundoff.

    Returns the estimates, the number of lams still moving at the step cap,
    the number of Lanczos steps summed over the lams, and, for a single lam,
    its top Ritz vector Q y (Q the Lanczos basis, y the top eigenvector of
    the tridiagonal), else None."""
    if start is None or not np.linalg.norm(start) > 0:  # a fiber vanishing at the seed point
        re, im = np.random.default_rng(_LANCZOS_SEED).standard_normal((2, fiber.L))
        start = re + 1j * im
    q = np.tile(start / np.linalg.norm(start), (len(lams), 1))
    q_prev = np.zeros_like(q)
    alpha, beta = np.zeros((2, _LANCZOS_MAX_STEPS, len(lams)))
    est, active = np.zeros(len(lams)), np.arange(len(lams))
    apply, apply_adj = fiber.matvec_pair(lams)
    basis = [] if len(lams) == 1 else None
    check, steps = _RITZ_EVERY, 0
    for k in range(1, _LANCZOS_MAX_STEPS + 1):
        steps += len(active)
        if basis is not None:
            basis.append(q[0])
        w = apply_adj(apply(q))
        alpha[k - 1] = np.vecdot(q, w).real
        w -= alpha[k - 1, :, None] * q + beta[k - 2, :, None] * q_prev  # q_prev = 0 at k = 1
        beta[k - 1] = np.linalg.norm(w, axis=1)
        # beta = 0: the Krylov space is invariant, so its Ritz values are exact
        q_prev, q = q, w / np.where(beta[k - 1] > 0, beta[k - 1], 1.0)[:, None]
        if k < min(check, _LANCZOS_MAX_STEPS):
            continue
        check += max(_RITZ_EVERY, k // 4)
        new = np.sqrt(np.maximum(_top_ritz(alpha[:k], beta[: k - 1]), 0.0))
        keep = np.abs(new - est[active]) > _REL_TOL * new
        est[active] = new
        if not keep.all():
            active = active[keep]
            if not active.size:
                break
            q, q_prev, alpha, beta = q[keep], q_prev[keep], alpha[:, keep], beta[:, keep]
            apply, apply_adj = fiber.matvec_pair(lams[active])
    ritz = None
    if basis is not None:
        k = len(basis)
        tri = np.diag(alpha[:k, 0]) + np.diag(beta[: k - 1, 0], 1) + np.diag(beta[: k - 1, 0], -1)
        ritz = np.linalg.eigh(tri)[1][:, -1] @ np.array(basis)
    return est, len(active), steps, ritz


@dataclass(frozen=True)
class NormResult:
    """Certified two-sided operator norm estimate.

    The true norm lies in [value, value + tol]; ``argmax`` records the orbit
    base label and circle point attaining the reported value, ``grids`` the
    per-orbit grid sizes, ``per_orbit`` the per-orbit maxima with their
    attaining circle points, ``unconverged`` the number of grid points
    whose Lanczos estimate was still moving at the step cap, and
    ``lanczos_steps`` the Lanczos steps summed over all grid points.
    """

    value: float
    tol: float
    argmax: tuple[str, complex] | None
    grids: dict[str, int]
    per_orbit: dict[str, tuple[float, complex]] = None
    unconverged: int = 0
    lanczos_steps: int = 0

    @property
    def upper(self) -> float:
        return self.value + self.tol


def fiber_sup_norm(sys: FiniteDynamicalSystem, fibers: Sequence, tol: float) -> NormResult:
    """Sup of fiber spectral norms over per-orbit circle grids with certified slack.

    Grid sizes are powers of two with arc spacing such that lip * (pi / grid)
    <= tol for each fiber's arc-Lipschitz bound.  A fiber whose bound is not
    finite (a NaN or infinite coefficient) is refused: nothing certifies it.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    value, argmax, unconverged, lanczos_steps = 0.0, None, 0, 0
    grids: dict[str, int] = {}
    per_orbit: dict[str, tuple[float, complex]] = {}
    for fiber in fibers:
        lip = fiber.lip()
        label = sys.labels[fiber.cycle.base]
        if not math.isfinite(lip):
            raise ValueError(f"fiber over the orbit of {label!r} is not finite (Lipschitz bound {lip})")
        n = _next_pow2(lip * math.pi / tol) if lip > 0 else 1
        grids[label] = n
        lanczos = isinstance(fiber, ElementOrbitFiber) and fiber.L > _DENSE_MAX_L
        chunk = min(_GRID_CHUNK, max(64, int(2e7 / (fiber.L * fiber.L))))
        full, sig = _grid(n), np.empty(n)
        if lanczos:
            # grid point 0 from the fixed seed; its top Ritz vector starts the rest
            sig[:1], stuck, steps, ritz = _sigma_max_lanczos(fiber, full[:1])
            unconverged, lanczos_steps = unconverged + stuck, lanczos_steps + steps
            for lo in range(1, n, chunk):
                sig[lo : lo + chunk], stuck, steps, _ = _sigma_max_lanczos(fiber, full[lo : lo + chunk], ritz)
                unconverged, lanczos_steps = unconverged + stuck, lanczos_steps + steps
        else:
            for lo in range(0, n, chunk):
                sig[lo : lo + chunk] = _sigma_max_dense(fiber, full[lo : lo + chunk])
        j = int(np.argmax(sig))
        best, best_lam = float(sig[j]), complex(full[j])
        per_orbit[label] = (best, best_lam)
        if best > value:
            value, argmax = best, (label, best_lam)
    return NormResult(value=value, tol=float(tol), argmax=argmax, grids=grids,
                      per_orbit=per_orbit, unconverged=unconverged, lanczos_steps=lanczos_steps)


def norm(a: CrossedElement, tol: float = 1e-3) -> NormResult:
    """Certified operator norm of a crossed element (max over orbit fibers)."""
    fibers = [ElementOrbitFiber(a, cyc) for cyc in a.sys.orbits().cycles]
    return fiber_sup_norm(a.sys, [fib for fib in fibers if fib.bands], tol)


def regular_window_norm(a: CrossedElement, cycle: Cycle, half_width: int,
                        max_iter: int = 2000, seed: int = 0xACE) -> float:
    """Independent norm oracle: power iteration on a truncated shift-representation window.

    The element acts on square-summable sequences over the orbit of the base
    point; compressing to the coordinate window [-half_width, half_width]
    gives a banded matrix whose largest singular value approaches the fiber
    sup from below as the window grows.
    """
    L = cycle.length
    size = 2 * half_width + 1
    ns = np.arange(-half_width, half_width + 1)
    mat = np.zeros((size, size), dtype=np.complex128)
    for i, f in a.coeffs.items():
        vals = f[[cycle.order[n % L] for n in ns]]
        for r in range(size):
            c = r - i
            if 0 <= c < size:
                mat[r, c] = vals[r]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    est = 0.0
    herm = mat.conj().T @ mat
    for _ in range(max_iter):
        w = herm @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 0.0
        new = math.sqrt(nrm)
        if abs(new - est) <= _REL_TOL * max(new, 1e-300):
            est = new
            break
        est = new
        v = w / nrm
    return float(est)


# ---------------------------------------------------------------------------
# orbit isomorphism: sampled fibers <-> coefficients


class OrbitIsomorphism:
    """Concrete isomorphism between one orbit's crossed product and matrix
    functions on the circle, realized on a power-of-two sample grid.

    ``sample`` evaluates the fiber representation on the grid; ``reconstruct``
    recovers Laurent coefficients from the sampled matrix entries by discrete
    Fourier inversion in the circle variable.  Entry (r, c) of the fiber at
    lam is the Laurent series sum_t f_{c-r+tL}(point_r) lam^t, so each matrix
    entry determines one residue class of coefficients.
    """

    def __init__(self, sys: FiniteDynamicalSystem, cycle: Cycle, grid_size: int):
        if grid_size < 1 or grid_size & (grid_size - 1):
            raise ValueError(f"grid size must be a power of two, got {grid_size}")
        self.sys = sys
        self.cycle = cycle
        self.grid_size = grid_size
        self.lams = _grid(grid_size)

    def _check_support(self, radius: int) -> None:
        if self.grid_size < 2 * radius + self.cycle.length:
            raise ValueError(
                f"grid {self.grid_size} aliases support radius {radius} on a "
                f"cycle of length {self.cycle.length}"
            )

    def sample(self, a: CrossedElement) -> np.ndarray:
        self._check_support(a.support_radius())
        return ElementOrbitFiber(a, self.cycle).matrices(self.lams)

    def reconstruct(self, mats: np.ndarray) -> CrossedElement:
        G, L = self.grid_size, self.cycle.length
        if mats.shape != (G, L, L):
            raise ValueError(f"expected shape {(G, L, L)}, got {mats.shape}")
        # coefficient of lam^t in each entry series, for t in [-T, T]
        hat = np.fft.fft(mats, axis=0) / G
        imax = (G - L) // 2
        pts = _rep_points(self.sys, self.cycle)
        coeffs: dict[int, np.ndarray] = {}
        for r in range(L):
            for c in range(L):
                base = c - r
                tmin = math.ceil((-imax - base) / L)
                tmax = math.floor((imax - base) / L)
                for t in range(tmin, tmax + 1):
                    i = base + t * L
                    arr = coeffs.setdefault(i, np.zeros(self.sys.n, dtype=np.complex128))
                    arr[pts[r]] = hat[t % G, r, c]
        return CrossedElement(self.sys, coeffs)


def orbit_isomorphism(sys: FiniteDynamicalSystem, cycle: Cycle, grid_size: int) -> OrbitIsomorphism:
    return OrbitIsomorphism(sys, cycle, grid_size)


# ---------------------------------------------------------------------------
# periodic systems: embedding, spectrum


class PeriodicEmbedding:
    """Covariant embedding of the crossed product of a periodic system into
    n x n matrix functions on the circle.

    Functions embed as diagonals of their first n backward iterates; the
    unitary embeds as the shift with the circle coordinate in the corner.
    Injectivity is checked numerically by a commuting square with the
    canonical expectation (grid average of the diagonal).
    """

    def __init__(self, sys: FiniteDynamicalSystem, grid: int, n: int | None = None):
        period = math.lcm(*(c.length for c in sys.orbits().cycles)) if n is None else int(n)
        # refuse before allocating: the residuals hold up to three images at once
        shape = (sys.n, int(grid), period, period)
        size = math.prod(shape) * np.dtype(np.complex128).itemsize
        if 3 * size > _EMBED_MAX_BYTES:
            raise ValueError(
                f"periodic embedding of period {period} needs a {shape} complex array of "
                f"{size} bytes and a peak of {3 * size} bytes, over the limit of "
                f"{_EMBED_MAX_BYTES} bytes"
            )
        if n is None:
            n = period
        elif np.any(n % sys.orbits().length):
            raise ValueError(f"{n} is not a period of the system")
        self.sys = sys
        self.n = int(n)
        self.grid = int(grid)
        self.lams = _grid(self.grid)
        self.u_matrices = np.stack([_shift_matrix(self.n, lam) for lam in self.lams])

    def _diagonal(self, values) -> np.ndarray:
        """(points, n) diagonal of ``beta(values)``."""
        vals = np.asarray(values, dtype=np.complex128)
        return vals[self.sys.orbits().iterate(-np.arange(self.n), np.arange(self.sys.n)[:, None])]

    def beta(self, values) -> np.ndarray:
        """(points, n, n) diagonal embedding of a function (constant in lam)."""
        out = np.zeros((self.sys.n, self.n, self.n), dtype=np.complex128)
        idx = np.arange(self.n)
        out[:, idx, idx] = self._diagonal(values)
        return out

    def embed(self, a: CrossedElement) -> np.ndarray:
        """(points, grid, n, n) matrix image of a crossed element."""
        out = np.zeros((self.sys.n, self.grid, self.n, self.n), dtype=np.complex128)
        upow: dict[int, np.ndarray] = {0: np.broadcast_to(np.eye(self.n), self.u_matrices.shape).copy()}

        def power(i: int) -> np.ndarray:
            if i not in upow:
                if i > 0:
                    upow[i] = power(i - 1) @ self.u_matrices
                else:
                    upow[i] = power(i + 1) @ self.u_matrices.conj().transpose(0, 2, 1)
            return upow[i]

        # beta(f) is diagonal, so beta(f) @ u^i scales row a of u^i by f's a-th entry
        for i, f in a.coeffs.items():
            out += self._diagonal(f)[:, None, :, None] * power(i)
        return out

    def unitarity_residual(self) -> float:
        eye = np.eye(self.n)
        res = self.u_matrices @ self.u_matrices.conj().transpose(0, 2, 1) - eye
        return float(np.abs(res).max())

    def covariance_residual(self, values) -> float:
        """max over grid and points of |u beta(f) u* - beta(f o forward^{-1})|."""
        b = self.beta(values)
        rolled = self.beta(np.asarray(values)[self.sys.perm_inv])
        ub = np.einsum("gab,xbc->xgac", self.u_matrices, b)
        res = np.einsum("xgac,gdc->xgad", ub, self.u_matrices.conj())
        res -= rolled[:, None]
        return float(np.abs(res).max())

    def expectation_residual(self, a: CrossedElement) -> float:
        """Commuting square defect: embed(E(a)) vs diagonal grid average of embed(a)."""
        image = self.embed(a)
        averaged = image.mean(axis=1)
        diag_avg = np.zeros_like(averaged)
        idx = np.arange(self.n)
        diag_avg[:, idx, idx] = averaged[:, idx, idx]
        return float(np.abs(diag_avg - self.beta(a.expectation())).max())


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
