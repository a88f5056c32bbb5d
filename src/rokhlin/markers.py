"""Marker sets for bijections without short orbits.

Two construction routes are provided and cross-validated:

* ``greedy_markers`` places markers arithmetically on each cycle (base gap
  ``2m+1``, remainder spread one unit per gap), which is the direct route for
  integer actions.
* ``local_marker`` covers a compact set by pointwise-free singletons and folds
  ``cover_extension_step`` over them.  The step takes a disjoint set U and a
  target V and returns W containing U whose window translates absorb V, while
  staying (F,1)-disjoint.  It works for any group given composition/inverse
  oracles and never assumes commutativity.

Both routes emit certificates whose two conditions are checked exhaustively:
(a) the translates of the marker set over [-m, m] are pairwise disjoint, and
(b) the forward translates over the derived window cover the compact set.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .dynsys import FiniteDynamicalSystem, MetricError

__all__ = [
    "GroupWindow",
    "MarkerCertificate",
    "MarkerError",
    "integer_action",
    "is_disjoint_family",
    "free_locus",
    "greedy_markers",
    "marker_certificate",
    "disjointness_margin",
    "finite_boundary",
    "cover_extension_step",
    "CoverExtension",
    "local_marker",
    "LocalMarkerResult",
]


class MarkerError(ValueError):
    """A marker precondition or postcondition failed."""


# ---------------------------------------------------------------------------
# group windows


@dataclass(frozen=True)
class GroupWindow:
    """A window F in a group plus translates g_0..g_d with disjoint difference windows.

    ``M`` is the union of the translated difference windows g_l * F^{-1}F.
    Elements are opaque hashables; ``compose``/``inverse``/``identity`` are the
    group oracles (integers with addition by default).
    """

    F: tuple[Hashable, ...]
    translates: tuple[Hashable, ...]
    compose: Callable = operator.add
    inverse: Callable = operator.neg
    identity: Hashable = 0

    def __post_init__(self):
        if not self.F or not self.translates:
            raise MarkerError("window F and translates must be nonempty")
        diff = self.difference_window()
        if self.identity not in diff:
            raise MarkerError("identity element missing from F^{-1}F")
        windows = [self._translate_window(g, diff) for g in self.translates]
        for (i, wi), (j, wj) in itertools.combinations(enumerate(windows), 2):
            if wi & wj:
                raise MarkerError(f"translated windows {i} and {j} overlap on {sorted(wi & wj)}")

    def _translate_window(self, g, diff) -> frozenset:
        return frozenset(self.compose(g, x) for x in diff)

    def difference_window(self) -> frozenset:
        return frozenset(self.compose(self.inverse(a), b) for a in self.F for b in self.F)

    @property
    def d(self) -> int:
        return len(self.translates) - 1

    def M(self) -> frozenset:
        diff = self.difference_window()
        out: set = set()
        for g in self.translates:
            out |= self._translate_window(g, diff)
        return frozenset(out)

    def M_inverse(self) -> frozenset:
        return frozenset(self.inverse(g) for g in self.M())

    @classmethod
    def integers(cls, m: int, d: int) -> "GroupWindow":
        """Integer window F = [-m, m] with translates (2m+1) + l(4m+1), l = 0..d.

        The derived M is exactly the interval [1, (d+1)(4m+1)].
        """
        if m < 1:
            raise MarkerError(f"m must be >= 1, got {m}")
        F = tuple(range(-m, m + 1))
        translates = tuple((2 * m + 1) + l * (4 * m + 1) for l in range(d + 1))
        return cls(F=F, translates=translates)


def integer_action(sys: FiniteDynamicalSystem) -> Callable[[int], np.ndarray]:
    """Action oracle for integer group elements: g maps to the g-th forward iterate."""
    return sys.power_perm


def _resolve_shift(sys: FiniteDynamicalSystem, shift) -> np.ndarray:
    if isinstance(shift, (int, np.integer)):
        return sys.power_perm(int(shift))
    return np.asarray(shift)


# ---------------------------------------------------------------------------
# disjointness predicates


def is_disjoint_family(
    sys: FiniteDynamicalSystem, E: Iterable[int], shifts: Sequence, k: int
) -> bool:
    """True iff every (k+1)-subset of shift images of E has empty intersection.

    Equivalent to: no point lies in more than k of the images.  Shifts may be
    integers (forward powers) or explicit permutation arrays, and must be
    distinct as maps.
    """
    perms = [_resolve_shift(sys, s) for s in shifts]
    for a, b in itertools.combinations(range(len(perms)), 2):
        if np.array_equal(perms[a], perms[b]):
            raise MarkerError(f"shifts {a} and {b} coincide")
    pts = list(E)
    if not pts or len(perms) <= k:
        return True
    counts = np.zeros(sys.n, dtype=np.int64)
    for p in perms:
        counts[np.unique(p[pts])] += 1
    return int(counts.max(initial=0)) <= k


def free_locus(sys: FiniteDynamicalSystem, M: Iterable[int]) -> frozenset[int]:
    """Points whose M-translates are pairwise distinct, as a union of whole cycles.

    For an integer action, freeness at a point depends only on its cycle
    length L: the translates are distinct iff the elements of M are distinct
    mod L.
    """
    M = sorted(set(int(g) for g in M))
    out: set[int] = set()
    for cyc in sys.orbits().cycles:
        residues = {g % cyc.length for g in M}
        if len(residues) == len(M):
            out.update(cyc.order)
    return frozenset(out)


# ---------------------------------------------------------------------------
# greedy per-cycle markers


@dataclass(frozen=True)
class MarkerCertificate:
    """Marker set with exhaustively verified disjointness and covering flags.

    ``flag_disjoint`` certifies that the translates of ``markers`` over
    [-m, m] are pairwise disjoint; ``flag_cover`` certifies that the forward
    translates over [1, (d+1)(4m+1)] cover ``K``.  On failure the witness
    records the offending shifts/point.
    """

    markers: frozenset[int]
    m: int
    d: int
    K: frozenset[int]
    flag_disjoint: bool
    flag_cover: bool
    witness_disjoint: tuple | None = None
    witness_cover: int | None = None

    @property
    def window_length(self) -> int:
        return (self.d + 1) * (4 * self.m + 1)

    def ok(self) -> bool:
        return self.flag_disjoint and self.flag_cover


def marker_certificate(
    sys: FiniteDynamicalSystem, markers: Iterable[int], m: int, K: Iterable[int], d: int | None = None
) -> MarkerCertificate:
    """Check conditions (a) and (b) for an arbitrary candidate marker set."""
    if d is None:
        d = sys.declared_dim
    Z = frozenset(markers)
    K = frozenset(K)
    N = (d + 1) * (4 * m + 1)

    flag_a, wit_a = True, None
    counts = sys.translate_counts(Z, -m, m)
    if counts.max(initial=0) > 1:
        bad = int(np.argmax(counts))
        hits = [i for i in range(-m, m + 1) if bad in sys.apply(i, Z)]
        flag_a, wit_a = False, (sys.labels[bad], tuple(hits))

    covered = sys.translate_counts(Z, 1, N) > 0
    missing = [x for x in sorted(K) if not covered[x]]
    flag_b, wit_b = (False, missing[0]) if missing else (True, None)

    return MarkerCertificate(
        markers=Z, m=m, d=d, K=K, flag_disjoint=flag_a, flag_cover=flag_b,
        witness_disjoint=wit_a, witness_cover=wit_b,
    )


def greedy_markers(
    sys: FiniteDynamicalSystem, m: int, K: Iterable[int], d: int | None = None
) -> MarkerCertificate:
    """Arithmetic marker placement on every cycle meeting K.

    Each cycle of length L receives q = floor(L / (2m+1)) markers anchored at
    the cycle's least label, with gaps starting at 2m+1 and the remainder
    L - q(2m+1) distributed one unit per gap until exhausted.  Requires
    L > (d+1)(4m+1) on every cycle meeting K, which pins all gaps inside
    [2m+1, 4m+1].
    """
    if m < 1:
        raise MarkerError(f"m must be >= 1, got {m}")
    if d is None:
        d = sys.declared_dim
    K = frozenset(K)
    N = (d + 1) * (4 * m + 1)
    orbs = sys.orbits()
    markers: set[int] = set()
    for cyc in orbs.cycles:
        if not K.intersection(cyc.order):
            continue
        if cyc.length <= N:
            raise MarkerError(
                f"cycle at {sys.labels[cyc.base]!r} has length {cyc.length}; "
                f"markers need length > (d+1)(4m+1) = {N}"
            )
        q, r = divmod(cyc.length, 2 * m + 1)
        gaps = [2 * m + 1] * q
        for t in range(r):
            gaps[t % q] += 1
        pos = 0
        for g in gaps:
            markers.add(cyc.order[pos])
            pos += g
    return marker_certificate(sys, markers, m, K, d)


# ---------------------------------------------------------------------------
# metric machinery: margin, boundary, ball covers


def _ball(sys: FiniteDynamicalSystem, center_dist: np.ndarray, rho: float) -> list[int]:
    return np.nonzero(center_dist <= rho)[0].tolist()


def _set_ball(sys: FiniteDynamicalSystem, E: Sequence[int], rho: float) -> list[int]:
    if not E:
        return []
    dmin = sys.metric[list(E)].min(axis=0)
    return np.nonzero(dmin <= rho)[0].tolist()


def _half_distances(sys: FiniteDynamicalSystem) -> np.ndarray:
    off = sys.metric[~np.eye(sys.n, dtype=bool)]
    return np.unique(off) / 2.0


def disjointness_margin(
    sys: FiniteDynamicalSystem, E: Iterable[int], shifts: Sequence, k: int
) -> float:
    """Largest half-distance rho keeping the closed rho-ball around E (shifts, k)-disjoint.

    Candidates are halves of the pairwise distances occurring in the system;
    0 is returned only if no positive candidate works.  E itself must already
    be disjoint.
    """
    if sys.metric is None:
        raise MetricError("disjointness_margin requires a metric")
    E = sorted(set(E))
    perms = [_resolve_shift(sys, s) for s in shifts]
    cands = _half_distances(sys)
    if not E:
        return float(cands[-1]) if cands.size else 0.0
    if not is_disjoint_family(sys, E, perms, k):
        raise MarkerError("E is not disjoint to begin with")
    # disjointness is antitone in rho: binary search over the candidate scale
    lo, hi = -1, len(cands) - 1  # cands[lo] admissible (lo = -1 means rho = 0)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        ball = _set_ball(sys, E, float(cands[mid]))
        if is_disjoint_family(sys, ball, perms, k):
            lo = mid
        else:
            hi = mid - 1
    return float(cands[lo]) if lo >= 0 else 0.0


def finite_boundary(sys: FiniteDynamicalSystem, A: Iterable[int]) -> frozenset[int]:
    """Finite-scale boundary: points of A at the minimal positive inter-point
    distance from the complement.  Empty for the empty set and the full set."""
    if sys.metric is None:
        raise MetricError("finite_boundary requires a metric")
    A = sorted(set(A))
    comp = sorted(set(range(sys.n)) - set(A))
    if not A or not comp:
        return frozenset()
    dmin = sys.metric[np.ix_(A, comp)].min(axis=1)
    eps = sys.min_distance()
    return frozenset(int(a) for a, dv in zip(A, dmin) if dv <= eps)


# ---------------------------------------------------------------------------
# cover extension (one absorption step) and the local marker fold


@dataclass(frozen=True)
class CoverExtension:
    """Result of one absorption step, with the diagnostics used to build it."""

    W: frozenset[int]
    rho: float
    delta: float
    centers: tuple[int, ...]
    colors: tuple[int, ...]
    boundary_disjoint: bool


def _min_dist_to_sets(sys, points: Sequence[int], sets: Sequence[Sequence[int]]) -> np.ndarray:
    """mdist[z, g] = min distance from points[z] to sets[g] (inf when empty)."""
    out = np.full((len(points), len(sets)), np.inf)
    for gi, S in enumerate(sets):
        if len(S):
            out[:, gi] = sys.metric[np.ix_(points, list(S))].min(axis=1)
    return out


def cover_extension_step(
    sys: FiniteDynamicalSystem,
    U: Iterable[int],
    V: Iterable[int],
    window: GroupWindow,
    action: Callable | None = None,
) -> CoverExtension:
    """Extend U to W so that the M-translates of W absorb V, keeping W (F,1)-disjoint.

    The uncovered remainder R of V is covered by metric balls of radius delta,
    each ball is pulled back through a translate whose difference window the
    ball avoids, and the union with U is returned.  delta is the largest
    half-distance, capped at the disjointness margin of R, such that every
    ball around a point of R meets the U-translates for at most d window
    elements; delta = 0 (singleton balls) always qualifies because R avoids
    every M-translate of U by construction.

    The finite-scale boundary of U being (M, d)-disjoint is the continuum
    hypothesis behind the delta search; it is recorded as a diagnostic and a
    failure only surfaces if no ball coloring exists.
    """
    if sys.metric is None:
        raise MetricError("cover_extension_step requires a metric")
    if action is None:
        action = integer_action(sys)
    U = frozenset(U)
    V = frozenset(V)
    F_perms = [action(g) for g in window.F]
    M_elems = sorted(window.M(), key=repr)  # deterministic order for opaque labels
    Minv_perms = [action(window.inverse(g)) for g in M_elems]
    d = window.d

    if not is_disjoint_family(sys, U, F_perms, 1):
        raise MarkerError("U is not (F,1)-disjoint")
    if not is_disjoint_family(sys, V, Minv_perms, 1):
        raise MarkerError("V is not (M^{-1},1)-disjoint")
    M_perms = [action(g) for g in M_elems]
    boundary_ok = is_disjoint_family(sys, finite_boundary(sys, U), M_perms, d)

    translated_U = [sorted({int(p[x]) for x in U}) for p in M_perms]
    covered_by_U: set[int] = set().union(*map(set, translated_U)) if U else set()
    R = sorted(V - covered_by_U)
    if not R:
        return CoverExtension(W=U, rho=0.0, delta=0.0, centers=(), colors=(),
                              boundary_disjoint=boundary_ok)

    rho = disjointness_margin(sys, R, Minv_perms, 1)
    mdist = _min_dist_to_sets(sys, R, translated_U)

    # largest admissible delta: every ball may meet at most d of the U-translates,
    # so delta must stay below the (d+1)-th smallest translate distance of each z
    kth = np.sort(mdist, axis=1)[:, d] if mdist.shape[1] > d else np.full(len(R), np.inf)
    limit = float(kth.min(initial=np.inf))
    cands = _half_distances(sys)
    ok = cands[(cands <= rho) & (cands < limit)]
    delta = float(ok[-1]) if ok.size else 0.0
    if delta == 0.0 and limit <= 0.0:
        bad = sys.labels[R[int(np.argmin(kth))]]
        raise MarkerError(f"no admissible ball radius: point {bad!r} meets more than "
                          f"{d} translated copies of U at radius 0")

    diff = window.difference_window()
    window_members = [
        [gi for gi, g in enumerate(M_elems) if g in window._translate_window(t, diff)]
        for t in window.translates
    ]

    centers: list[int] = []
    colors: list[int] = []
    pieces: list[frozenset[int]] = []
    uncovered = set(R)
    for z in sorted(R, key=lambda x: sys.labels[x]):
        if z not in uncovered:
            continue
        zi = R.index(z)
        ball = _ball(sys, sys.metric[z], delta)
        uncovered -= set(ball)
        color = next(
            (l for l, members in enumerate(window_members)
             if all(mdist[zi, gi] > delta for gi in members)),
            None,
        )
        if color is None:
            raise MarkerError(
                f"no admissible color for the ball at {sys.labels[z]!r}: "
                f"the boundary of U is not (M,{d})-disjoint enough"
            )
        centers.append(z)
        colors.append(color)
        g_inv = action(window.inverse(window.translates[color]))
        pieces.append(frozenset(int(g_inv[x]) for x in ball))

    W = U.union(*pieces) if pieces else U
    _verify_extension(sys, U, V, W, window, action)
    return CoverExtension(W=W, rho=rho, delta=delta, centers=tuple(centers),
                          colors=tuple(colors), boundary_disjoint=boundary_ok)


def _verify_extension(sys, U, V, W, window, action) -> None:
    if not U <= W:
        raise MarkerError("postcondition failed: U not contained in W")
    covered = {int(p[x]) for p in map(action, window.M()) for x in W}
    if not V <= covered:
        missing = sorted(V - covered)[0]
        raise MarkerError(f"postcondition failed: {sys.labels[missing]!r} not absorbed")
    if not is_disjoint_family(sys, W, [action(g) for g in window.F], 1):
        raise MarkerError("postcondition failed: W is not (F,1)-disjoint")


@dataclass(frozen=True)
class LocalMarkerResult:
    """Marker set from the singleton-cover fold, with verified flags."""

    markers: frozenset[int]
    window: GroupWindow
    flag_disjoint: bool
    flag_cover: bool
    steps: int


def local_marker(
    sys: FiniteDynamicalSystem,
    K: Iterable[int],
    window: GroupWindow,
    action: Callable | None = None,
) -> LocalMarkerResult:
    """Cover K by singleton neighborhoods and fold the absorption step over them.

    Requires every point of K to be free for the inverse window (singletons
    are then automatically (M^{-1},1)-disjoint).  Returns Z with K inside the
    union of M-translates of Z, and the F-translates of Z pairwise disjoint;
    both conditions re-checked exhaustively.
    """
    if action is None:
        action = integer_action(sys)
    K = frozenset(K)
    Minv_perms = [action(g) for g in sorted(window.M_inverse(), key=repr)]
    for x in sorted(K):
        images = {int(p[x]) for p in Minv_perms}
        if len(images) != len(Minv_perms):
            raise MarkerError(f"point {sys.labels[x]!r} is not free for the inverse window")

    W: frozenset[int] = frozenset()
    steps = 0
    for x in sorted(K, key=lambda p: sys.labels[p]):
        W = cover_extension_step(sys, W, frozenset({x}), window, action).W
        steps += 1

    covered = {int(p[x]) for p in map(action, window.M()) for x in W}
    flag_cover = K <= covered
    flag_disjoint = is_disjoint_family(sys, W, [action(g) for g in window.F], 1)
    return LocalMarkerResult(markers=W, window=window, flag_disjoint=flag_disjoint,
                             flag_cover=flag_cover, steps=steps)
