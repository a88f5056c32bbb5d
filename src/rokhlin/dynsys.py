"""Finite dynamical systems: a labelled point set with an invertible forward map.

Points carry opaque string labels; every algorithm works on integer indices
against a stable label table.  Systems may carry a metric (symmetric, zero
exactly on the diagonal, triangle inequality) and a declared covering
dimension ``d``.  The dimension is caller-supplied metadata: a finite sample
set is zero-dimensional, but the tower and bookkeeping formulas downstream
must be exercised at the dimension of the space being sampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "FiniteDynamicalSystem",
    "Cycle",
    "OrbitDecomposition",
    "InvariantSplit",
    "QuotientReport",
    "SystemFormatError",
    "MetricError",
    "load_system",
    "make_cycle_system",
    "make_rotation_system",
    "orbit_decomposition",
    "invariant_split",
    "quotient_report",
]

# Cross-cycle distances default to ten times the largest intra-cycle distance:
# balls used by the marker algorithms must never straddle cycles.
CROSS_CYCLE_FACTOR = 10.0

# Exhaustive triangle audits are cubic; constructors skip them above this size
# (factory metrics are correct by construction, and file inputs are desk-scale).
_TRIANGLE_AUDIT_LIMIT = 600


class SystemFormatError(ValueError):
    """A system description violates the schema or the bijectivity invariant."""


class MetricError(ValueError):
    """A supplied metric violates symmetry, definiteness or the triangle inequality."""


class FiniteDynamicalSystem:
    """A finite set of labelled points with a bijective forward map.

    Attributes:
        labels: tuple of point labels, in construction order.
        perm: ``perm[x]`` is the index of the forward image of point ``x``.
        metric: optional ``(n, n)`` distance matrix.
        declared_dim: the covering dimension the system is standing in for.
    """

    def __init__(
        self,
        points: Sequence[str],
        forward: Mapping[str, str],
        metric: np.ndarray | None = None,
        declared_dim: int = 0,
        *,
        _skip_metric_audit: bool = False,
    ):
        labels = tuple(points)
        if len(set(labels)) != len(labels):
            raise SystemFormatError("duplicate point labels")
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)

        if set(forward.keys()) != set(labels):
            missing = sorted(set(labels) - set(forward.keys()))
            extra = sorted(set(forward.keys()) - set(labels))
            raise SystemFormatError(f"map domain mismatch: missing={missing} extra={extra}")
        perm = np.empty(n, dtype=np.int64)
        for lab, target in forward.items():
            if target not in self.index:
                raise SystemFormatError(f"map target {target!r} is not a point")
            perm[self.index[lab]] = self.index[target]
        hits = np.bincount(perm, minlength=n)
        if n and hits.max(initial=0) > 1:
            dups = [labels[t] for t in np.nonzero(hits > 1)[0]]
            raise SystemFormatError(f"map is not injective: targets {dups} have multiple preimages")
        self.perm = perm
        self.perm_inv = np.argsort(perm) if n else perm.copy()

        if int(declared_dim) != declared_dim or declared_dim < 0:
            raise SystemFormatError(f"dimension must be a nonnegative integer, got {declared_dim}")
        self.declared_dim = int(declared_dim)

        if metric is not None:
            metric = np.asarray(metric, dtype=float)
            if metric.shape != (n, n):
                raise MetricError(f"metric shape {metric.shape} does not match {n} points")
            _audit_metric(metric, labels, full_triangle=not _skip_metric_audit and n <= _TRIANGLE_AUDIT_LIMIT)
        self.metric = metric

        self._orbits: OrbitDecomposition | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def power_perm(self, i: int) -> np.ndarray:
        """Index array of the i-th forward iterate (negative i gives the inverse)."""
        return self.orbits().iterate(i, slice(None))

    def apply(self, i: int, subset: Iterable[int]) -> frozenset[int]:
        """Image of a point subset under the i-th forward iterate."""
        return frozenset(self.orbits().iterate(i, np.fromiter(subset, dtype=np.int64)).tolist())

    def translate_counts(self, subset: Iterable[int], lo: int, hi: int) -> np.ndarray:
        """counts[x] = number of i in [lo, hi] with x in alpha_i(subset), for a
        set of distinct points.

        Steps the permutation one shift at a time, so a sweep over many
        exponents costs one gather per exponent and caches no power arrays.
        """
        counts = np.zeros(self.n, dtype=np.int64)
        cur = np.fromiter(subset, dtype=np.int64)
        step = self.perm if lo > 0 else self.perm_inv
        for _ in range(abs(lo)):
            cur = step[cur]
        for _ in range(lo, hi + 1):
            counts[cur] += 1  # alpha_i is a bijection, so cur has no repeats
            cur = self.perm[cur]
        return counts

    def min_distance(self) -> float:
        """Smallest positive inter-point distance (requires a metric)."""
        if self.metric is None:
            raise MetricError("system has no metric")
        off = self.metric[~np.eye(self.n, dtype=bool)]
        return float(off.min()) if off.size else math.inf

    def orbits(self) -> "OrbitDecomposition":
        if self._orbits is None:
            self._orbits = orbit_decomposition(self)
        return self._orbits

    def __repr__(self) -> str:
        return f"FiniteDynamicalSystem(n={self.n}, d={self.declared_dim}, metric={self.metric is not None})"


def _audit_metric(metric: np.ndarray, labels: Sequence[str], full_triangle: bool) -> None:
    n = len(labels)
    diag = np.diagonal(metric)
    if n and diag.max(initial=0.0) != 0.0:
        bad = labels[int(np.argmax(diag != 0.0))]
        raise MetricError(f"metric is nonzero on the diagonal at {bad!r}")
    if not np.array_equal(metric, metric.T):
        r, c = np.argwhere(metric != metric.T)[0]
        raise MetricError(f"metric is not symmetric at ({labels[r]!r}, {labels[c]!r})")
    off = metric[~np.eye(n, dtype=bool)]
    if off.size and off.min() <= 0.0:
        r, c = np.argwhere((metric <= 0.0) & ~np.eye(n, dtype=bool))[0]
        raise MetricError(f"metric vanishes off the diagonal at ({labels[r]!r}, {labels[c]!r})")
    if full_triangle:
        for k in range(n):
            slack = metric - (metric[:, k, None] + metric[None, k, :])
            if slack.max(initial=0.0) > 1e-12:
                r, c = np.argwhere(slack > 1e-12)[0]
                raise MetricError(
                    f"triangle inequality fails on ({labels[r]!r}, {labels[k]!r}, {labels[c]!r})"
                )


@dataclass(frozen=True)
class Cycle:
    """One forward-closed cycle; ``order[p+1]`` is the forward image of ``order[p]``."""

    base: int
    length: int
    order: tuple[int, ...]


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
    """Invariant split into short-orbit points (y_part) and long-orbit points."""

    N: int
    y_part: frozenset[int]
    complement: frozenset[int]


def orbit_decomposition(sys: FiniteDynamicalSystem) -> OrbitDecomposition:
    """Decompose the point set into cycles, each anchored at its least label."""
    seen = np.zeros(sys.n, dtype=bool)
    cycles: list[Cycle] = []
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
        cycles.append(Cycle(base=start, length=len(order), order=tuple(order)))
    lengths = np.array([c.length for c in cycles], dtype=np.int64)
    order = np.fromiter((x for c in cycles for x in c.order), dtype=np.int64, count=sys.n)
    slot_start = np.repeat(np.cumsum(lengths) - lengths, lengths)  # per slot of order
    start, length, pos = (np.empty(sys.n, dtype=np.int64) for _ in range(3))
    start[order], length[order] = slot_start, np.repeat(lengths, lengths)
    pos[order] = np.arange(sys.n) - slot_start
    return OrbitDecomposition(cycles=tuple(cycles), order=order, start=start, length=length, pos=pos)


def invariant_split(sys: FiniteDynamicalSystem, N: int) -> InvariantSplit:
    """Split into the union of cycles of length <= N and its complement."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    short: set[int] = set()
    long_: set[int] = set()
    for cyc in sys.orbits().cycles:
        (short if cyc.length <= N else long_).update(cyc.order)
    return InvariantSplit(N=int(N), y_part=frozenset(short), complement=frozenset(long_))


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
    """Disjoint union of cycles with circular graph metric inside each cycle.

    Cross-cycle distances are the large constant ``CROSS_CYCLE_FACTOR * max(1,
    max intra-cycle distance)``, so metric balls never straddle cycles.
    """
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
        for j, lab in enumerate(labs):
            forward[lab] = labs[(j + 1) % L]
    n = len(points)
    cross = CROSS_CYCLE_FACTOR * max(1, max(L // 2 for L in lengths))
    metric = np.full((n, n), cross, dtype=float)
    offset = 0
    for L in lengths:
        j = np.arange(L)
        diff = np.abs(j[:, None] - j[None, :])
        metric[offset : offset + L, offset : offset + L] = np.minimum(diff, L - diff)
        offset += L
    return FiniteDynamicalSystem(points, forward, metric, d, _skip_metric_audit=True)


def make_rotation_system(q: int, p: int, d: int = 1) -> FiniteDynamicalSystem:
    """q equispaced circle points rotated by p steps, with arc-length metric."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    pw = len(str(q - 1))
    points = [f"t{j:0{pw}d}" for j in range(q)]
    forward = {points[j]: points[(j + p) % q] for j in range(q)}
    j = np.arange(q)
    diff = np.abs(j[:, None] - j[None, :])
    metric = (2.0 * math.pi / q) * np.minimum(diff, q - diff)
    return FiniteDynamicalSystem(points, forward, metric, d, _skip_metric_audit=True)


_SCHEMA_KEYS = {"points", "map", "metric", "dimension"}


def load_system(document: str) -> FiniteDynamicalSystem:
    """Parse and validate a JSON system description.

    Schema: ``points`` (array of strings), ``map`` (object point -> point),
    optional ``metric`` (array of [p, q, distance] triples covering every
    unordered pair), optional ``dimension`` (nonnegative integer).  Unknown
    fields are rejected; all invariants are checked eagerly.
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

    metric = None
    if "metric" in doc:
        metric = _metric_from_triples(doc["metric"], points)
    dim = doc.get("dimension", 0)
    return FiniteDynamicalSystem(points, fwd, metric, dim)


def _metric_from_triples(triples, points: Sequence[str]) -> np.ndarray:
    if not isinstance(triples, list):
        raise SystemFormatError("'metric' must be an array of [p, q, distance] triples")
    n = len(points)
    index = {lab: i for i, lab in enumerate(points)}
    metric = np.full((n, n), np.nan)
    np.fill_diagonal(metric, 0.0)
    for entry in triples:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SystemFormatError(f"bad metric entry {entry!r}")
        p, q, dist = entry
        if p not in index or q not in index:
            raise SystemFormatError(f"metric entry references unknown point in {entry!r}")
        if not isinstance(dist, (int, float)) or dist < 0:
            raise MetricError(f"distance must be a nonnegative number in {entry!r}")
        i, j = index[p], index[q]
        if i == j:
            if dist != 0:
                raise MetricError(f"nonzero self-distance for {p!r}")
            continue
        for a, b in ((i, j), (j, i)):
            if not np.isnan(metric[a, b]) and metric[a, b] != dist:
                raise MetricError(f"conflicting distances for pair ({p!r}, {q!r})")
            metric[a, b] = dist
    if np.isnan(metric).any():
        r, c = np.argwhere(np.isnan(metric))[0]
        raise MetricError(f"missing distance for pair ({points[r]!r}, {points[c]!r})")
    return metric
