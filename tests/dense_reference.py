"""Dense references, tests only.

Quotient side: hat-node interpolation through full node matrices, as the
program measured interp(sample(b)) - b before it took the seam corner
(rokhlin.cstar.CornerFiber) and its closed form (rokhlin.cstar.corner_norm).

Ideal side: the summing map of one tower level as an (anchor, j, j') array of
window matrices, and the return map from that array back to the crossed
product, computing alpha_j of each anchor from the orbit decomposition rather
than from the family's tower coordinates.

Norms: power iteration on a truncated window of the shift representation,
an oracle for rokhlin.cstar.norm that never forms a fiber; the Gram
matrices of fibers built from matrix powers of the shift, an oracle that
shares no builder with the program; and Lanczos at every point of a lam
grid, as the program solved grids before it refined them by
branch-and-bound.

Fibers: the orbit isomorphism, which inverts sampled fibers
(ElementOrbitFiber.matrices) back to Laurent coefficients by discrete
Fourier inversion in the circle variable."""

import math
from typing import Sequence

import numpy as np

from rokhlin.cstar import CrossedElement, ElementOrbitFiber, _grid, _rep_points, _sigma_max_lanczos
from rokhlin.dynsys import Cycle, FiniteDynamicalSystem


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
            mats = p.matrices(lams)
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
    interp = InterpolationFiber(cycle, ElementOrbitFiber(b, cycle).matrices(node_lams(s)))
    return CombinedFiber([interp, ElementOrbitFiber(b if target is None else target, cycle)], [1.0, -1.0])


def dense_blend(b, cycle: Cycle, s: int, lams: np.ndarray) -> np.ndarray:
    """dense_quotient_fiber(b, cycle, s).matrices(lams), from the two nodes
    next to each lam alone, so no node stack is held."""
    fiber = ElementOrbitFiber(b, cycle)
    pos = np.mod(np.angle(lams), 2 * math.pi) * s / (2 * math.pi)
    j0 = np.floor(pos).astype(int) % s
    frac = (pos - np.floor(pos))[:, None, None]
    nodes = node_lams(s)
    out = (1.0 - frac) * fiber.matrices(nodes[j0]) + frac * fiber.matrices(nodes[(j0 + 1) % s])
    out -= fiber.matrices(lams)
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
