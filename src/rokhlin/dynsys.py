"""Finite dynamical systems: a labelled point set with an invertible forward map.

Points carry opaque string labels; every algorithm works on integer indices
against a stable label table.  Besides its labels and map a system holds
only a declared covering dimension ``d``.  The dimension is caller-supplied
metadata: a finite sample set is zero-dimensional, but the tower and
bookkeeping formulas downstream must be exercised at the dimension of the
space being sampled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Check",
    "FiniteDynamicalSystem",
    "Cycle",
    "OrbitDecomposition",
    "InvariantSplit",
    "QuotientReport",
    "SystemFormatError",
    "load_system",
    "make_cycle_system",
    "make_rotation_system",
    "orbit_decomposition",
    "invariant_split",
    "quotient_report",
]


@dataclass(frozen=True)
class Check:
    """One certificate row: a measured quantity, its bound and its verdict.
    ``at_most`` applies the default rule, measured <= bound."""

    name: str
    measured: float
    bound: float
    passed: bool

    @classmethod
    def at_most(cls, name: str, measured, bound) -> Check:
        return cls(name, float(measured), float(bound), bool(measured <= bound))


class SystemFormatError(ValueError):
    """A system description violates the schema or the bijectivity invariant."""


class FiniteDynamicalSystem:
    """A finite set of labelled points with a bijective forward map.

    Attributes:
        labels: tuple of point labels, in construction order.
        perm: ``perm[x]`` is the index of the forward image of point ``x``.
        declared_dim: the covering dimension the system is standing in for.
    """

    def __init__(self, points: Sequence[str], forward: Mapping[str, str], declared_dim: int = 0):
        labels = tuple(points)
        n = len(labels)
        index = dict(zip(labels, range(n)))
        if len(index) != n:
            raise SystemFormatError("duplicate point labels")
        self.labels = labels
        self.index = index

        if forward.keys() != index.keys():
            missing = sorted(set(labels) - set(forward.keys()))
            extra = sorted(set(forward.keys()) - set(labels))
            raise SystemFormatError(f"map domain mismatch: missing={missing} extra={extra}")
        # one C-level lookup pass: the index of each point's target
        try:
            perm = np.fromiter(map(index.__getitem__, map(forward.__getitem__, labels)), np.int64, n)
        except KeyError:
            target = next(t for t in forward.values() if t not in index)
            raise SystemFormatError(f"map target {target!r} is not a point") from None
        hits = np.bincount(perm, minlength=n)
        if n and hits.max(initial=0) > 1:
            dups = [labels[t] for t in np.nonzero(hits > 1)[0]]
            raise SystemFormatError(f"map is not injective: targets {dups} have multiple preimages")
        self.perm = perm
        self.perm_inv = np.empty_like(perm)
        self.perm_inv[perm] = np.arange(n)

        if int(declared_dim) != declared_dim or declared_dim < 0:
            raise SystemFormatError(f"dimension must be a nonnegative integer, got {declared_dim}")
        self.declared_dim = int(declared_dim)

        self._orbits: OrbitDecomposition | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def power_perm(self, i: int) -> np.ndarray:
        """Index array of the i-th forward iterate (negative i gives the inverse)."""
        return self.orbits().iterate(i, slice(None))

    def mask(self, points) -> np.ndarray:
        """Boolean mask over the points of an array-like of point indices."""
        mask = np.zeros(self.n, dtype=bool)
        mask[np.asarray(points, np.int64)] = True
        return mask

    def translate_counts(self, subset: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """counts[x] = number of i in [lo, hi] with x in alpha_i(subset), for an
        index array of distinct points.

        Read from cycle coordinates: a subset point on a cycle of length L
        covers its cycle (hi - lo + 1) // L whole times, and the rest of its
        window is one arc of the cycle, one or two intervals of ``order``.
        One difference array over ``order`` and one cumsum count the arcs.
        """
        orbs = self.orbits()
        width = max(hi - lo + 1, 0)
        subset = np.asarray(subset, np.int64)
        start, length = orbs.start[subset], orbs.length[subset]
        first = (orbs.pos[subset] + lo) % length
        end = first + width % length  # past length, the arc wraps to the cycle's start
        wraps = end > length
        rises = np.concatenate([start + first, start[wraps]])
        falls = np.concatenate([start + np.minimum(end, length), (start + end - length)[wraps]])
        arcs = np.cumsum(np.bincount(rises, minlength=self.n + 1) - np.bincount(falls, minlength=self.n + 1))
        laps = np.bincount(start, minlength=self.n)[orbs.start] * (width // orbs.length)
        return laps + arcs[orbs.start + orbs.pos]

    def orbits(self) -> "OrbitDecomposition":
        if self._orbits is None:
            self._orbits = orbit_decomposition(self)
        return self._orbits

    def __repr__(self) -> str:
        return f"FiniteDynamicalSystem(n={self.n}, d={self.declared_dim})"


@dataclass(frozen=True, eq=False)
class Cycle:
    """One forward-closed cycle; ``order[p+1]`` is the forward image of
    ``order[p]``.  ``order`` is a read-only view of the decomposition's order."""

    base: int
    length: int
    order: np.ndarray


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of the point set into cycles, with each point's cycle coordinates.

    ``order`` concatenates the cycles' orders; point x lies on the cycle
    ``order[start[x] : start[x] + length[x]]`` at position ``pos[x]``, so
    alpha_i(x) = ``order[start[x] + (pos[x] + i) % length[x]]``.  ``rank[x]``
    is the place of point x's label in sorted label order.
    """

    cycles: tuple[Cycle, ...]
    order: np.ndarray
    start: np.ndarray
    length: np.ndarray
    pos: np.ndarray
    rank: np.ndarray

    def lengths(self) -> list[int]:
        return [c.length for c in self.cycles]

    def iterate(self, i, points) -> np.ndarray:
        """alpha_i of ``points`` (an index array, or ``slice(None)`` for all);
        ``i`` and ``points`` broadcast against each other."""
        return self.order[self.start[points] + (self.pos[points] + i) % self.length[points]]


@dataclass(frozen=True)
class InvariantSplit:
    """Invariant split at N: ``long`` masks the points on cycles longer than
    N; the rest lie on short cycles."""

    N: int
    long: np.ndarray


def _base_rank_and_position(sys: FiniteDynamicalSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point, its label rank, the least label rank on its cycle and its
    distance from the point holding that rank (its base), by pointer doubling
    over perm and perm_inv: array operations only, no per-point walk."""
    n = sys.n
    by_label = np.fromiter(sorted(range(n), key=sys.labels.__getitem__), dtype=np.int64, count=n)
    rank = np.empty(n, dtype=np.int64)
    rank[by_label] = np.arange(n)
    low, hop = rank, sys.perm
    while True:
        # the minimum over the next 2^(r+1) iterates equals the one over 2^r
        # everywhere only once it is constant on each cycle: the cycle minimum
        nxt = np.minimum(low, low[hop])
        if np.array_equal(nxt, low):
            break
        low, hop = nxt, hop[hop]
    base = by_label[low]
    is_base = base == np.arange(n)
    # list ranking along perm_inv; a base points at itself with distance 0
    pos, back = (~is_base).astype(np.int64), np.where(is_base, np.arange(n), sys.perm_inv)
    while not np.array_equal(back, base):
        pos, back = pos + pos[back], back[back]
    return rank, low, pos


def orbit_decomposition(sys: FiniteDynamicalSystem) -> OrbitDecomposition:
    """Decompose the point set into cycles, each anchored at its least label.

    Cycles come in the order of their bases' labels, each starting at its
    base (see _base_rank_and_position).
    """
    rank, low, pos = _base_rank_and_position(sys)
    sizes = np.bincount(low, minlength=sys.n)  # cycle length, indexed by its base's rank
    offsets = np.cumsum(sizes) - sizes
    start, length = offsets[low], sizes[low]
    order = np.empty(sys.n, dtype=np.int64)
    order[start + pos] = np.arange(sys.n)
    order.flags.writeable = False
    offsets, sizes = offsets[sizes > 0], sizes[sizes > 0]
    cycles = tuple(
        Cycle(base=base, length=size, order=order[a : a + size])
        for base, a, size in zip(order[offsets].tolist(), offsets.tolist(), sizes.tolist())
    )
    return OrbitDecomposition(cycles=cycles, order=order, start=start, length=length, pos=pos, rank=rank)


def invariant_split(sys: FiniteDynamicalSystem, N: int) -> InvariantSplit:
    """Split into the union of cycles of length <= N and its complement."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    return InvariantSplit(N=int(N), long=sys.orbits().length > N)


@dataclass(frozen=True)
class QuotientReport:
    """Orbit-space summary: one row per cycle plus the crossed-product dimension bound.

    Each row describes the fiber over that orbit class: an L-cycle has
    stabilizer L*Z inside Z and fiber isomorphic to the L x L matrices over
    the circle, whose nuclear dimension is 1.  ``bound_plus_one`` instantiates
    dim^{+1}(orbit space) * sup dimnuc^{+1}(stabilizer group algebra) with the
    system's declared dimension; the orbit-space dimension is reported equal
    to the declared dimension (finite-to-one open quotient).
    """

    quotient_size: int
    rows: tuple[dict, ...]
    declared_dim: int
    quotient_dim: int
    max_fiber_dimnuc: int
    bound_plus_one: int


def quotient_report(sys: FiniteDynamicalSystem) -> QuotientReport:
    orbs = sys.orbits()
    rows = []
    for cyc in orbs.cycles:
        rows.append(
            {
                "base": sys.labels[cyc.base],
                "length": cyc.length,
                "stabilizer": f"{cyc.length}Z",
                "fiber": f"M_{cyc.length} over the circle",
                "fiber_dimnuc": 1,
            }
        )
    d = sys.declared_dim
    return QuotientReport(
        quotient_size=len(orbs.cycles),
        rows=tuple(rows),
        declared_dim=d,
        quotient_dim=d,
        max_fiber_dimnuc=1 if rows else 0,
        bound_plus_one=(d + 1) * 2,
    )


def _cycle_labels(ci: int, length: int, cw: int, pw: int) -> list[str]:
    return [f"c{ci:0{cw}d}p{j:0{pw}d}" for j in range(length)]


def make_cycle_system(lengths: Sequence[int], d: int = 0) -> FiniteDynamicalSystem:
    """Disjoint union of cycles; point j of cycle c is labelled ``c{c}p{j}``
    (zero-padded) and steps to point j + 1 mod its cycle's length."""
    lengths = list(lengths)
    if not lengths:
        raise ValueError("lengths must be nonempty")
    if any(length < 1 for length in lengths):
        raise ValueError(f"cycle lengths must be positive, got {lengths}")
    cw = len(str(len(lengths) - 1))
    pw = len(str(max(lengths) - 1))
    points: list[str] = []
    forward: dict[str, str] = {}
    for ci, L in enumerate(lengths):
        labs = _cycle_labels(ci, L, cw, pw)
        points.extend(labs)
        forward.update(zip(labs, labs[1:] + labs[:1]))
    return FiniteDynamicalSystem(points, forward, d)


def make_rotation_system(q: int, p: int, d: int = 1) -> FiniteDynamicalSystem:
    """q equispaced circle points rotated by p steps."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    pw = len(str(q - 1))
    points = [f"t{j:0{pw}d}" for j in range(q)]
    forward = {points[j]: points[(j + p) % q] for j in range(q)}
    return FiniteDynamicalSystem(points, forward, d)


_SCHEMA_KEYS = {"points", "map", "dimension"}


def load_system(document: str) -> FiniteDynamicalSystem:
    """Parse and validate a JSON system description.

    Schema: ``points`` (array of strings), ``map`` (object point -> point),
    optional ``dimension`` (nonnegative integer).  Unknown fields are
    rejected; all invariants are checked eagerly.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SystemFormatError("top level must be an object")
    unknown = sorted(set(doc.keys()) - _SCHEMA_KEYS)
    if unknown:
        raise SystemFormatError(f"unknown fields: {unknown}")
    if "points" not in doc or "map" not in doc:
        raise SystemFormatError("fields 'points' and 'map' are required")
    points = doc["points"]
    if not isinstance(points, list) or not all(isinstance(x, str) for x in points):
        raise SystemFormatError("'points' must be an array of strings")
    fwd = doc["map"]
    if not isinstance(fwd, dict):
        raise SystemFormatError("'map' must be an object")
    return FiniteDynamicalSystem(points, fwd, doc.get("dimension", 0))

