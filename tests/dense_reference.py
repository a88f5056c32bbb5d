"""Dense references, tests only.

Quotient side: hat-node interpolation through full node matrices, as the
program measured interp(sample(b)) - b before it took the seam corner
(rokhlin.cstar.CornerFiber).

Ideal side: the summing map of one tower level as an (anchor, j, j') array of
window matrices, and the return map from that array back to the crossed
product, computing alpha_j of each anchor from the orbit decomposition rather
than from the family's tower coordinates."""

import math
from typing import Sequence

import numpy as np

from rokhlin.cstar import CrossedElement, ElementOrbitFiber
from rokhlin.dynsys import Cycle


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


def dense_quotient_fibers(quotient, b, target=None) -> list[CombinedFiber]:
    """The dense field on every short cycle of a QuotientSide."""
    return [dense_quotient_fiber(b, cyc, quotient.node_count[cyc.base], target) for cyc in quotient.cycles]


def ideal_anchors(ideal, l: int) -> np.ndarray:
    """The points of support l in increasing order: anchor s is the s-th."""
    return np.array(sorted(ideal.family.supports[l]), dtype=np.int64)


def ideal_blocks(ideal, l: int, b) -> np.ndarray:
    """summing(l, b) scattered into an (anchors, 2m+1, 2m+1) array: entry
    [s, j + m, j' + m] is block (j, j') at anchor s."""
    m = ideal.params.m
    out = np.zeros((len(ideal.family.supports[l]), 2 * m + 1, 2 * m + 1), dtype=np.complex128)
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
