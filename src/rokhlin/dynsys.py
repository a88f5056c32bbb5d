"""Finite dynamical systems: a labelled point set with an invertible forward map.

Points carry opaque string labels and are numbered in label order, so point
x is the x-th label in sorted order; every algorithm works on those integer
indices.  Besides its labels and its permutation a system holds only a
declared covering dimension ``d``.  The dimension is caller-supplied
metadata: a finite sample set is zero-dimensional, but the tower and
bookkeeping formulas downstream must be exercised at the dimension of the
space being sampled.  ``load_system`` is the one reader of a label map.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
        labels: tuple of point labels, strictly increasing: point x is the
            x-th label.
        perm: ``perm[x]`` is the index of the forward image of point ``x``.
        declared_dim: the covering dimension the system is standing in for.
    """

    def __init__(self, labels: Sequence[str], perm, declared_dim: int = 0):
        self.labels = labels = tuple(labels)
        n = len(labels)
        if not all(map(operator.lt, labels, labels[1:])):
            raise SystemFormatError("labels must be strictly increasing")
        perm = np.asarray(perm)
        if perm.shape != (n,) or not np.issubdtype(perm.dtype, np.integer):
            raise SystemFormatError(f"perm must be an integer array of length {n}, got {perm.dtype} {perm.shape}")
        if n and not 0 <= perm.min() <= perm.max() < n:
            raise SystemFormatError(f"perm index {perm[(perm < 0) | (perm >= n)][0]} is not a point")
        hits = np.bincount(perm, minlength=n)
        if hits.max(initial=0) > 1:
            dups = [labels[t] for t in np.nonzero(hits > 1)[0]]
            raise SystemFormatError(f"map is not injective: targets {dups} have multiple preimages")
        self.perm = perm.astype(np.int64)
        self.perm_inv = np.empty_like(self.perm)
        self.perm_inv[self.perm] = np.arange(n)

        if not isinstance(declared_dim, (int, np.integer)) or isinstance(declared_dim, bool) or declared_dim < 0:
            raise SystemFormatError(f"dimension must be a nonnegative integer, got {declared_dim!r}")
        self.declared_dim = int(declared_dim)

        self._orbits: OrbitDecomposition | None = None

    @cached_property
    def index(self) -> dict[str, int]:
        """The index of each label, built on first read."""
        return dict(zip(self.labels, range(self.n)))

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
    alpha_i(x) = ``order[start[x] + (pos[x] + i) % length[x]]``.
    """

    cycles: tuple[Cycle, ...]
    order: np.ndarray
    start: np.ndarray
    length: np.ndarray
    pos: np.ndarray

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


def _base_and_position(sys: FiniteDynamicalSystem) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the least index on its cycle (its base) and its distance
    from the base, by pointer doubling over perm and perm_inv: array
    operations only, no per-point walk."""
    n = sys.n
    base, hop = np.arange(n), sys.perm
    while True:
        # the minimum over the next 2^(r+1) iterates equals the one over 2^r
        # everywhere only once it is constant on each cycle: the cycle minimum
        nxt = np.minimum(base, base[hop])
        if np.array_equal(nxt, base):
            break
        base, hop = nxt, hop[hop]
    is_base = base == np.arange(n)
    # pointer jumping along perm_inv; a base points at itself with distance 0
    pos, back = (~is_base).astype(np.int64), np.where(is_base, np.arange(n), sys.perm_inv)
    while not np.array_equal(back, base):
        pos, back = pos + pos[back], back[back]
    return base, pos


def orbit_decomposition(sys: FiniteDynamicalSystem) -> OrbitDecomposition:
    """Decompose the point set into cycles, each anchored at its least index.

    Cycles come in the order of their bases, each starting at its base (see
    _base_and_position).
    """
    base, pos = _base_and_position(sys)
    sizes = np.bincount(base, minlength=sys.n)  # cycle length, indexed by its base
    offsets = np.cumsum(sizes) - sizes
    start, length = offsets[base], sizes[base]
    order = np.empty(sys.n, dtype=np.int64)
    order[start + pos] = np.arange(sys.n)
    order.flags.writeable = False
    offsets, sizes = offsets[sizes > 0], sizes[sizes > 0]
    cycles = tuple(
        Cycle(base=b, length=size, order=order[a : a + size])
        for b, a, size in zip(order[offsets].tolist(), offsets.tolist(), sizes.tolist())
    )
    return OrbitDecomposition(cycles=cycles, order=order, start=start, length=length, pos=pos)


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


def make_cycle_system(lengths: Sequence[int], d: int = 0) -> FiniteDynamicalSystem:
    """Disjoint union of cycles; point j of cycle c is labelled ``c{c}p{j}``
    (zero-padded) and steps to point j + 1 mod its cycle's length."""
    lengths = list(lengths)
    if not lengths:
        raise ValueError("lengths must be nonempty")
    if any(length < 1 for length in lengths):
        raise ValueError(f"cycle lengths must be positive, got {lengths}")
    cw, pw = len(str(len(lengths) - 1)), len(str(max(lengths) - 1))
    suffixes = [f"p{j:0{pw}d}" for j in range(max(lengths))]
    labels = []
    for ci, L in enumerate(lengths):
        labels += map(f"c{ci:0{cw}d}".__add__, suffixes[:L])
    ends = np.cumsum(lengths)
    perm = np.arange(1, ends[-1] + 1)
    perm[ends - 1] = ends - lengths  # each cycle's end steps to its start
    return FiniteDynamicalSystem(labels, perm, d)


def make_rotation_system(q: int, p: int, d: int = 1) -> FiniteDynamicalSystem:
    """q equispaced circle points rotated by p steps."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    pw = len(str(q - 1))
    return FiniteDynamicalSystem([f"t{j:0{pw}d}" for j in range(q)], (np.arange(q) + p % q) % q, d)


_SCHEMA_KEYS = {"points", "map", "dimension"}


def load_system(document: str) -> FiniteDynamicalSystem:
    """Parse and validate a JSON system description.

    Schema: ``points`` (array of strings, in any order), ``map`` (object
    point -> point), optional ``dimension`` (a nonnegative JSON integer).
    Unknown fields are rejected; all invariants are checked eagerly.  The
    points are numbered in label order.
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
    labels = sorted(points)
    index = dict(zip(labels, range(len(labels))))
    if len(index) != len(labels):
        raise SystemFormatError("duplicate point labels")
    if fwd.keys() != index.keys():
        missing = sorted(index.keys() - fwd.keys())
        extra = sorted(fwd.keys() - index.keys())
        raise SystemFormatError(f"map domain mismatch: missing={missing} extra={extra}")
    # one C-level lookup pass: the index of each point's target
    try:
        perm = np.fromiter(map(index.__getitem__, map(fwd.__getitem__, labels)), np.int64, len(labels))
    except (KeyError, TypeError):
        target = next(t for t in fwd.values() if not isinstance(t, str) or t not in index)
        raise SystemFormatError(f"map target {target!r} is not a point") from None
    sys = FiniteDynamicalSystem(labels, perm, doc.get("dimension", 0))
    sys.index = index  # the dict its first read of ``index`` would build again
    return sys
