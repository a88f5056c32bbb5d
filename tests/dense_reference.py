"""Dense references, tests only.

Quotient side: hat-node interpolation through full node matrices, as the
program measured interp(sample(b)) - b before it took the seam corner
(rokhlin.cstar.CornerFiber), which rokhlin.cstar.fiber_sup_norm reads in
closed form where it can; wrapped in CombinedFiber, a corner takes its grid.

Ideal side: the summing map of one tower level as an (anchor, j, j') array of
window matrices, and the return map from that array back to the crossed
product, computing alpha_j of each anchor from the orbit decomposition rather
than from the family's tower coordinates.

Norms: power iteration on a truncated window of the shift representation,
an oracle for rokhlin.cstar.norm that never forms a fiber; the Gram
matrices of fibers built from matrix powers of the shift, an oracle that
shares no builder with the program; Lanczos at every point of a lam grid,
as the program solved grids before it refined them by branch-and-bound; and
the Lanczos loop as it ran before it certified each lam once, as it leaves
the batch (lanczos_reference).

Fibers: the dense L x L fiber of an orbit, as the program represented it
before every solver took band or seam form: the u-image as an explicit shift
matrix (OrbitFiberRep, with the standard lam corner or explicit phases), the
determinant and matrix-power holonomy, and an element fiber's stack of
matrices (element_matrices); and the orbit isomorphism, which inverts sampled
fibers back to Laurent coefficients by discrete Fourier inversion in the
circle variable."""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rokhlin.cstar import (
    _LANCZOS_MAX_STEPS,
    _LANCZOS_SEED,
    _REL_TOL,
    _UNIT_TOL,
    CrossedElement,
    ElementOrbitFiber,
    _grid,
    _quiet_cut,
    _rep_points,
    _ritz_estimate,
    _seam_rows,
    _shifted_sum,
    _sigma_max_lanczos,
    _top_ritz,
    _twist,
)
from rokhlin.dynsys import Cycle, FiniteDynamicalSystem


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


def dense_holonomy(rep: OrbitFiberRep, tol: float = 1e-10) -> complex:
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


def element_matrices(fiber: ElementOrbitFiber, lams: np.ndarray) -> np.ndarray:
    """The element fiber's (len(lams), L, L) dense stack: each band i placed
    as diag(f_i) S^i(lam) (rokhlin.cstar._twist)."""
    L = fiber.L
    out = np.zeros((len(lams), L, L), dtype=np.complex128)
    rows = np.arange(L)
    for i, diag in fiber.bands.items():
        shift, w = _twist(diag, i, lams)
        out[:, rows, (rows + shift) % L] += w
    return out


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
        step = float(np.linalg.svd(diffs, compute_uv=False).max())
        return step / (2 * math.pi / self.s)

    def matrices(self, lams: np.ndarray) -> np.ndarray:
        theta = np.mod(np.angle(lams), 2 * math.pi)
        pos = theta * self.s / (2 * math.pi)
        j0 = np.floor(pos).astype(int) % self.s
        frac = (pos - np.floor(pos))[:, None, None]
        j1 = (j0 + 1) % self.s
        # (1 - frac) * node j0 + frac * node j1, blended in place in two arrays
        out = self.nodes[j0]
        np.multiply(1.0 - frac, out, out=out)
        right = self.nodes[j1]
        np.multiply(frac, right, out=right)
        out += right
        return out


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
        out = None
        for s, p in zip(self.signs, self.parts):
            mats = element_matrices(p, lams) if isinstance(p, ElementOrbitFiber) else p.matrices(lams)
            if out is None:
                out = mats if s == 1.0 else np.multiply(s, mats, out=mats)
            elif s == 1.0:
                out += mats
            elif s == -1.0:
                out -= mats
            else:
                out += np.multiply(s, mats, out=mats)
        return out


def node_lams(s: int) -> np.ndarray:
    """The s hat nodes, as the quotient side placed them."""
    return np.exp(2j * np.pi * np.arange(s) / s)


def dense_quotient_fiber(b, cycle: Cycle, s: int, target=None) -> CombinedFiber:
    """interp(sample(b)) - target on the full L x L fiber (target b by default)."""
    interp = InterpolationFiber(cycle, element_matrices(ElementOrbitFiber(b, cycle), node_lams(s)))
    return CombinedFiber([interp, ElementOrbitFiber(b if target is None else target, cycle)], [1.0, -1.0])


def dense_blend(b, cycle: Cycle, s: int, lams: np.ndarray) -> np.ndarray:
    """dense_quotient_fiber(b, cycle, s).matrices(lams), from the two nodes
    next to each lam alone, so no node stack is held."""
    fiber = ElementOrbitFiber(b, cycle)
    pos = np.mod(np.angle(lams), 2 * math.pi) * s / (2 * math.pi)
    j0 = np.floor(pos).astype(int) % s
    frac = (pos - np.floor(pos))[:, None, None]
    nodes = node_lams(s)
    out = (1.0 - frac) * element_matrices(fiber, nodes[j0])
    out += frac * element_matrices(fiber, nodes[(j0 + 1) % s])
    out -= element_matrices(fiber, lams)
    return out


def dense_quotient_fibers(quotient, b, target=None) -> list[CombinedFiber]:
    """The dense field on every short cycle of a QuotientSide."""
    return [dense_quotient_fiber(b, cyc, quotient.node_count[cyc.base], target) for cyc in quotient.cycles]


def ideal_anchors(ideal, l: int) -> np.ndarray:
    """The points of support l in increasing order: anchor s is the s-th."""
    return ideal.family.points[l, :, ideal.params.m]


def ideal_blocks(ideal, l: int, b) -> np.ndarray:
    """summing(l, b) scattered into an (anchors, 2m+1, 2m+1) array: entry
    [s, j + m, j' + m] is block (j, j') at anchor s."""
    m = ideal.params.m
    out = np.zeros((len(ideal_anchors(ideal, l)), 2 * m + 1, 2 * m + 1), dtype=np.complex128)
    for i, cols, vals in ideal.summing(l, b):
        out[:, cols, cols - i] = vals
    return out


def ideal_return(ideal, l: int, blocks: np.ndarray) -> CrossedElement:
    """Return map of level l on an (anchors, 2m+1, 2m+1) array: block (j, j')
    at anchor s goes to power j - j' at alpha_j(s)."""
    sys, m = ideal.params.sys, ideal.params.m
    anchors = ideal_anchors(ideal, l)
    coeffs: dict[int, np.ndarray] = {}
    for j in range(-m, m + 1):
        at = sys.orbits().iterate(j, anchors)
        for jp in range(-m, m + 1):
            vals = blocks[:, j + m, jp + m]
            if np.any(vals):
                coeffs.setdefault(j - jp, np.zeros(sys.n, dtype=np.complex128))[at] += vals
    return CrossedElement(sys, coeffs)


def dense_fiber_sigma(a: CrossedElement, cycle: Cycle, lams: np.ndarray) -> np.ndarray:
    """Largest singular value of a's fiber over the cycle at each lam: the
    square root of the top eigenvalue of the Gram matrix of sum_i diag(f_i)
    S(lam)^i, each power a matrix power of the shift S(lam) with lam in the
    corner (of its adjoint for i < 0).  (numpy's SVD strays 5 ulps from
    max|f| on a one-band fiber of a 48-cycle; the Gram matrix of one band is
    diagonal, and eigvalsh returns its diagonal.)"""
    L = cycle.length
    shift = np.zeros((len(lams), L, L), dtype=np.complex128)
    shift[:, np.arange(L - 1), np.arange(1, L)] = 1.0
    shift[:, L - 1, 0] = lams
    pts = _rep_points(a.sys, cycle)
    mats = np.zeros_like(shift)
    for i, f in a.coeffs.items():
        step = shift if i >= 0 else shift.conj().transpose(0, 2, 1)
        mats += f[pts][:, None] * np.linalg.matrix_power(step, abs(i))
    gram = mats.conj().transpose(0, 2, 1) @ mats
    return np.sqrt(np.linalg.eigvalsh(gram)[:, -1])


def lanczos_sweep(fiber: ElementOrbitFiber, lams: np.ndarray):
    """Lanczos sigma at every lam of a grid: lams[0] alone from the fixed
    seed, then the rest in one batch from its top Ritz vector.  Returns the
    sigma, the unconverged points, the steps and the bisected checks."""
    sigma, *counts, ritz = _sigma_max_lanczos(fiber, lams[:1])
    if len(lams) > 1:
        rest, *more, _ = _sigma_max_lanczos(fiber, lams[1:], ritz)
        sigma, counts = np.concatenate([sigma, rest]), [c + m for c, m in zip(counts, more)]
    return (sigma, *counts)


def lanczos_reference(fiber: ElementOrbitFiber, lams: np.ndarray, start: np.ndarray | None = None):
    """Lanczos sigma per lam as rokhlin.cstar._sigma_max_lanczos ran before
    it certified each lam once, as it leaves the batch: every check
    certifies the top Ritz value of every active lam, and the stop test
    reads the certified values.  Returns the sigma, the lams still moving at
    the step cap and the Lanczos steps summed over the lams."""
    if start is None or not np.linalg.norm(start) > 0:
        re, im = np.random.default_rng(_LANCZOS_SEED).standard_normal((2, fiber.L))
        start = re + 1j * im
    q = np.tile(start / np.linalg.norm(start), (len(lams), 1))
    q[:, : _quiet_cut(start, fiber.radius)] *= np.conj(lams)[:, None]
    q_prev = np.zeros_like(q)
    alpha, beta = np.zeros((2, _LANCZOS_MAX_STEPS, len(lams)))
    est, active = np.zeros(len(lams)), np.arange(len(lams))
    terms, adj_terms = fiber.twists(lams)
    check, steps = 1, 0
    for k in range(1, _LANCZOS_MAX_STEPS + 1):
        steps += len(active)
        w = _shifted_sum(adj_terms, _shifted_sum(terms, q))
        alpha[k - 1] = np.vecdot(q, w).real
        w -= alpha[k - 1, :, None] * q + beta[k - 2, :, None] * q_prev
        beta[k - 1] = np.linalg.norm(w, axis=1)
        q_prev, q = q, w / np.where(beta[k - 1] > 0, beta[k - 1], 1.0)[:, None]
        if k < min(check, _LANCZOS_MAX_STEPS):
            continue
        check += max(1, k // 4)
        top, certified = _ritz_estimate(alpha[:k], beta[: k - 1])
        if not certified:
            top = _top_ritz(alpha[:k], beta[: k - 1], top)[0]
        new = np.sqrt(np.maximum(top, 0.0))
        keep = np.abs(new - est[active]) > _REL_TOL * new
        est[active] = new
        if not keep.all():
            active = active[keep]
            if not active.size:
                break
            q, q_prev, alpha, beta = q[keep], q_prev[keep], alpha[:, keep], beta[:, keep]
            terms, adj_terms = _seam_rows(terms, keep), _seam_rows(adj_terms, keep)
    return est, len(active), steps


def regular_window_norm(a: CrossedElement, cycle: Cycle, half_width: int,
                        max_iter: int = 2000, seed: int = 0xACE, rel_tol: float = 1e-13) -> float:
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
        if abs(new - est) <= rel_tol * max(new, 1e-300):
            est = new
            break
        est = new
        v = w / nrm
    return float(est)


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
        return element_matrices(ElementOrbitFiber(a, self.cycle), self.lams)

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
