"""Marker sets for bijections without short orbits.

``greedy_markers`` places markers arithmetically on each cycle (base gap
``2m+1``, remainder spread one unit per gap).  ``marker_certificate`` checks
any candidate marker set exhaustively for the two conditions the towers need:
(a) the translates of the marker set over [-m, m] are pairwise disjoint, and
(b) the forward translates over [1, (d+1)(4m+1)] cover the compact set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .dynsys import FiniteDynamicalSystem

__all__ = [
    "MarkerCertificate",
    "MarkerError",
    "check_cycle_lengths",
    "greedy_markers",
    "marker_certificate",
]


class MarkerError(ValueError):
    """A marker precondition or postcondition failed."""


@dataclass(frozen=True)
class MarkerCertificate:
    """Marker set with exhaustively verified disjointness and covering flags.

    ``markers`` is a sorted index array and ``K`` a boolean mask over the
    points.  ``flag_disjoint`` certifies that the translates of ``markers``
    over [-m, m] are pairwise disjoint; ``flag_cover`` certifies that the
    forward translates over [1, (d+1)(4m+1)] cover ``K``.  On failure the
    witness records the offending shifts/point.
    """

    markers: np.ndarray
    m: int
    d: int
    K: np.ndarray
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
    sys: FiniteDynamicalSystem, markers: ArrayLike, m: int, K: ArrayLike, d: int | None = None
) -> MarkerCertificate:
    """Check conditions (a) and (b) for an arbitrary candidate marker set
    (point indices; repeats count once)."""
    if d is None:
        d = sys.declared_dim
    Z = np.unique(np.asarray(markers, np.int64))
    in_K = sys.mask(K)
    N = (d + 1) * (4 * m + 1)

    flag_a, wit_a = True, None
    counts = sys.translate_counts(Z, -m, m)
    if counts.max(initial=0) > 1:
        bad = int(np.argmax(counts))
        shifts = np.arange(-m, m + 1)
        # bad lies in alpha_i(Z) exactly when alpha_{-i}(bad) lies in Z
        hits = shifts[np.isin(sys.orbits().iterate(-shifts, bad), Z)]
        flag_a, wit_a = False, (sys.labels[bad], tuple(hits.tolist()))

    missing = np.flatnonzero(in_K & (sys.translate_counts(Z, 1, N) == 0))
    flag_b, wit_b = (False, int(missing[0])) if missing.size else (True, None)

    return MarkerCertificate(
        markers=Z, m=m, d=d, K=in_K, flag_disjoint=flag_a, flag_cover=flag_b,
        witness_disjoint=wit_a, witness_cover=wit_b,
    )


def check_cycle_lengths(sys: FiniteDynamicalSystem, m: int, K: ArrayLike, d: int) -> None:
    """Refuse, with a ``MarkerError``, an m < 1 or a cycle meeting K (point
    indices) of length at most (d+1)(4m+1): greedy placement needs every gap
    inside [2m+1, 4m+1]."""
    if m < 1:
        raise MarkerError(f"m must be >= 1, got {m}")
    orbs = sys.orbits()
    N = (d + 1) * (4 * m + 1)
    K = np.asarray(K, np.int64)
    short = orbs.start[K[orbs.length[K] <= N]]
    if short.size:
        # the first short cycle in cycle order
        base = int(orbs.order[short.min()])
        raise MarkerError(
            f"cycle at {sys.labels[base]!r} has length {int(orbs.length[base])}; "
            f"markers need length > (d+1)(4m+1) = {N}"
        )


def greedy_markers(
    sys: FiniteDynamicalSystem, m: int, K: ArrayLike, d: int | None = None
) -> MarkerCertificate:
    """Arithmetic marker placement on every cycle meeting K (point indices).

    Each cycle of length L receives q = floor(L / (2m+1)) markers anchored at
    the cycle's least label, with gaps starting at 2m+1 and the remainder
    L - q(2m+1) distributed one unit per gap until exhausted.  Requires
    L > (d+1)(4m+1) on every cycle meeting K, which pins all gaps inside
    [2m+1, 4m+1].
    """
    if d is None:
        d = sys.declared_dim
    K = np.asarray(K, np.int64)
    check_cycle_lengths(sys, m, K, d)
    orbs = sys.orbits()
    markers = [np.empty(0, dtype=np.int64)]
    # each cycle meeting K once, by its offset in the cycle order
    for a in np.unique(orbs.start[K]).tolist():
        L = int(orbs.length[orbs.order[a]])
        q, r = divmod(L, 2 * m + 1)
        gaps = 2 * m + 1 + r // q + (np.arange(q) < r % q)
        markers.append(orbs.order[a + np.cumsum(gaps) - gaps])
    return marker_certificate(sys, np.concatenate(markers), m, K, d)
