"""Decaying Rokhlin towers from marker sets.

The pipeline is one pass: ``tower_supports`` shifts a certified marker set
into 2d+3 staggered supports and returns their tower points,
``build_partition`` splits each point of K' equally among the translates
covering it, and ``build_tower_family`` averages that partition over the
window [-k', k'] to gain approximate equivariance.

Every function of level l lives on the [-m, m] translates of support l, and
those translates are pairwise disjoint, so a level is stored in tower
coordinates: ``points[l, s, j + m]`` is the j-th forward image of anchor s
(the sorted support points, so ``points[:, :, m]`` are the anchors) and
``num[l, s, j + m]`` the value there, an int64 numerator over one common
denominator D = lcm(cover counts) * (2k'+1).  The points are computed once,
by ``tower_supports``; the average is then a moving-window sum along j,
conservation is checked exactly, and the step is an exact difference of
numerators.  A family with
D >= 2^53 or (2m+1) D >= 2^63 is refused with a ``TowerError``: below those
limits the reported floats num / D are correctly rounded and no int64 sum
overflows.  Sup norms are the only floating-point quantities.

The smoothing width k' and the enlarged compact set K' are always derived
inside the pipeline from (k, epsilon, K); supplying them independently is the
classic way to get an inconsistent parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
from numpy.typing import ArrayLike

from .dynsys import Check, FiniteDynamicalSystem
from .markers import MarkerCertificate, check_cycle_lengths, greedy_markers, marker_certificate

__all__ = [
    "TowerError",
    "TowerFamily",
    "TowerReport",
    "as_fraction",
    "tower_supports",
    "build_partition",
    "build_tower_family",
    "verify_tower",
    "rung_step",
]


class TowerError(ValueError):
    """Tower parameters or invariants are violated."""


def as_fraction(x) -> Fraction:
    """Exact rational from int/str/Fraction; floats go through their shortest repr."""
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


def min_window_length(d: int, k: int) -> int:
    """Smallest admissible tower half-length m for tolerance window k: the
    staggered supports tile only when 2m >= 2(2d+3)k - d - 2."""
    return -(-(2 * (2 * d + 3) * k - d - 2) // 2)


def _check_window(d: int, k: int, m: int) -> None:
    """Refuse an m below min_window_length(d, k) with a ``TowerError``."""
    need = min_window_length(d, k)
    if m < need:
        raise TowerError(
            f"m = {m} too small for (d, k) = ({d}, {k}); need m >= ceil((2d+3)k - d/2 - 1) = {need}"
        )


def _tower_points(sys: FiniteDynamicalSystem, anchors: np.ndarray, m: int) -> np.ndarray:
    """points[l, s, j + m] = alpha_j(anchors[l, s]), |j| <= m."""
    return sys.orbits().iterate(np.arange(-m, m + 1), anchors[..., None])


def _overlapping_level(points: np.ndarray, n: int) -> int | None:
    """First level whose translates share a point, or None when all are
    disjoint; ``points`` index a system of n points."""
    for l, level in enumerate(points):
        if np.bincount(level.ravel(), minlength=n).max(initial=0) > 1:
            return l
    return None


def rung_step(values: np.ndarray, k: int):
    """max |values[..., j] - values[..., j - i]| over 1 <= i <= k and all j,
    rungs outside the array reading zero.

    For functions f_j stored in tower coordinates this is the sup over |i| <= k
    of |f_j o alpha_i - f_{j-i}|: both sides live on alpha_{j-i} of the anchors.
    """
    padded = np.pad(values, [(0, 0)] * (values.ndim - 1) + [(k, k)])
    return max(
        (np.abs(padded[..., i:] - padded[..., :-i]).max(initial=0) for i in range(1, k + 1)),
        default=0,
    )


def _common_denominator(cover_counts: Iterable[int], k_prime: int, m: int) -> int:
    """D = lcm(cover counts) * (2k'+1), refused unless D < 2^53 and (2m+1) D < 2^63."""
    D = math.lcm(*cover_counts) * (2 * k_prime + 1)
    if D >= 2**53 or (2 * m + 1) * D >= 2**63:
        raise TowerError(
            f"common denominator D = {D} is too large for exact int64 towers "
            f"(need D < 2^53 and (2m+1) D < 2^63 with m = {m})"
        )
    return D


def tower_supports(sys: FiniteDynamicalSystem, cert: MarkerCertificate, k: int) -> np.ndarray:
    """Shift a certified marker set into 2d+3 staggered supports and return
    their tower points, shape (levels, anchors, 2m+1), with d and m read from
    the certificate: ``points[l, s, j + m]`` is the j-th forward image of
    anchor s of support l, so ``points[:, :, m]`` are each support's points
    in sorted order.

    Support l is the ((2(m-k)+1) l + (m-k) + 1)-th forward image of the
    markers.  Refuses a window too small for (d, k) or a failed certificate,
    and verifies exhaustively that the [-m, m] translates of each support
    stay pairwise disjoint.  That the translates cover the certificate's
    compact set is checked by ``build_partition``.
    """
    d, m = cert.d, cert.m
    _check_window(d, k, m)
    if not cert.ok():
        cover = None if cert.witness_cover is None else sys.labels[cert.witness_cover]
        where = {"translate_disjointness_violations": cert.witness_disjoint, "covering_violations": cover}
        failed = "; ".join(f"{c.name} at {where[c.name]!r}" for c in cert.checks if not c.passed)
        raise TowerError(f"marker certificate failed: {failed}")
    shifts = (2 * (m - k) + 1) * np.arange(2 * d + 3) + (m - k) + 1
    anchors = np.sort(sys.orbits().iterate(shifts[:, None], cert.markers), axis=1)
    points = _tower_points(sys, anchors, m)
    overlap = _overlapping_level(points, sys.n)
    if overlap is not None:
        raise TowerError(f"translates of support {overlap} are not pairwise disjoint")
    return points


def build_partition(
    sys: FiniteDynamicalSystem, points: np.ndarray, k_prime: int, K_prime: ArrayLike
) -> tuple[np.ndarray, int]:
    """Divide each point of K' (point indices) equally among the (l, j)
    translates of the supports with the given tower points covering it.

    Returns ``(num, den)``: ``num[l, s, j + m] / den`` is p[l][j] at
    ``points[l, s, j + m]``, and p[l][j] vanishes everywhere else, so the
    values at a point sum to one on K' and to zero off it (the deficit p_inf
    is one there), exactly.  Only indices |j| <= m - k' participate.  A point
    of K' covered by no pair is a certificate failure and is reported.  The
    denominator is lcm(cover counts), so that averaging over 2k'+1 rungs
    lands on the common denominator D, which is checked here before any value
    is formed.
    """
    width = points.shape[-1]
    in_K = sys.mask(K_prime)
    cover = np.zeros(points.shape, dtype=bool)
    cover[..., k_prime : width - k_prime] = True
    cover &= in_K[points]
    counts = np.bincount(points[cover], minlength=sys.n)
    missing = np.flatnonzero(in_K & (counts == 0))
    if missing.size:
        raise TowerError(
            f"point {sys.labels[missing[0]]!r} of K' is covered by no support translate "
            "(invalid marker certificate)"
        )
    den = _common_denominator(np.unique(counts[in_K]).tolist(), k_prime, width // 2) // (2 * k_prime + 1)
    num = np.zeros(points.shape, dtype=np.int64)
    num[cover] = den // counts[points[cover]]
    return num, den


def _window_sum(num: np.ndarray, k_prime: int) -> np.ndarray:
    """Sum of num over the rungs [j - k', j + k'] at every rung j, rungs
    outside the array reading zero: one cumulative sum and one difference."""
    width = num.shape[-1]
    acc = np.concatenate([np.zeros(num.shape[:-1] + (1,), dtype=num.dtype), num.cumsum(axis=-1)], axis=-1)
    rungs = np.arange(width)
    return acc[..., np.minimum(rungs + k_prime + 1, width)] - acc[..., np.maximum(rungs - k_prime, 0)]


@dataclass(frozen=True)
class TowerFamily:
    """Averaged tower functions with their construction parameters.

    ``num[l, s, j + m] / den`` is mu[l][j] at ``points[l, s, j + m]``, the
    j-th forward image of anchor s of support l; mu[l][j] vanishes at every
    other point and for |j| > m.  ``K`` is the compact set and ``K_prime``
    its enlargement K', both as boolean masks over the points.  By construction
    mu[l][j] = (2k'+1)^{-1} sum_{|i| <= k'} p[l][j+i] o alpha_i.

    Invariants (checked by ``verify_tower``): values in [0, 1], points equal
    to the translates of the anchors ``points[:, :, m]``, which stay pairwise
    disjoint, exact conservation on K, and the averaged-step bound
    2k / (2k' + 1).
    """

    sys: FiniteDynamicalSystem
    d: int
    k: int
    m: int
    eps: Fraction
    K: np.ndarray
    k_prime: int
    K_prime: np.ndarray
    points: np.ndarray
    num: np.ndarray
    den: int

    @property
    def levels(self) -> int:
        return len(self.points)

    def mu_array(self, l: int, j: int) -> np.ndarray:
        out = np.zeros(self.sys.n)
        if abs(j) <= self.m:
            out[self.points[l, :, j + self.m]] = self.num[l, :, j + self.m] / self.den
        return out

    def step_bound(self) -> Fraction:
        return Fraction(2 * self.k, 2 * self.k_prime + 1)

    def end_sup(self, l: int) -> float:
        return int(self.num[l][:, [0, -1]].max(initial=0)) / self.den


def build_tower_family(
    sys: FiniteDynamicalSystem,
    d: int,
    k: int,
    m: int,
    eps,
    K: ArrayLike,
    markers: ArrayLike | None = None,
) -> TowerFamily:
    """Run the full tower pipeline: markers -> supports -> partition -> averaging.

    k' = k * ceil(1/eps) and K' = union of the [-k', k'] translates of K are
    derived here; K and the markers are point indices.  The marker set
    defaults to the greedy placement for (m, K'); a custom set may be supplied
    and is certified before use.  The greedy placement's cycle lengths (the
    cycles meeting K' are those meeting K) and m against k' are checked
    before K' is formed, so a k' or m too large for int64 translates is
    refused with a ``MarkerError`` or ``TowerError``.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise TowerError("eps must be positive")
    in_K = sys.mask(K)
    inside = np.flatnonzero(in_K)
    k_prime = k * math.ceil(1 / eps)
    if markers is None:
        check_cycle_lengths(sys, m, inside, d)
    _check_window(d, k_prime, m)
    K_prime = sys.translate_counts(inside, -k_prime, k_prime) > 0
    enlarged = np.flatnonzero(K_prime)
    if markers is None:
        cert = greedy_markers(sys, m, enlarged, d)
    else:
        cert = marker_certificate(sys, markers, m, enlarged, d)
    points = tower_supports(sys, cert, k_prime)
    num, den = build_partition(sys, points, k_prime, enlarged)
    return TowerFamily(
        sys=sys, d=d, k=k, m=m, eps=eps, K=in_K, k_prime=k_prime, K_prime=K_prime,
        points=points, num=_window_sum(num, k_prime), den=den * (2 * k_prime + 1),
    )


@dataclass(frozen=True)
class TowerReport:
    """Verification record for a tower family, whose ``checks`` are its rows:
    conservation is exact and the step bound strictly below eps."""

    conservation_exact: bool
    conservation_error: float
    step_measured: float
    step_bound: float
    eps: float
    step_below_eps: bool
    supports_disjoint: bool
    supports_contain: bool
    vanishes_outside: bool
    values_in_unit_interval: bool

    @property
    def checks(self) -> tuple[Check, ...]:
        return (
            Check("conservation_error", self.conservation_error, 1e-12, self.conservation_exact),
            Check.at_most("step_measured", self.step_measured, self.step_bound),
            Check("step_bound_vs_epsilon", self.step_bound, self.eps, self.step_below_eps),
            Check.at_most("support_disjointness_violations", int(not self.supports_disjoint), 0),
            Check.at_most("supports_contain_violations", int(not self.supports_contain), 0),
            Check.at_most("vanishes_outside_violations", int(not self.vanishes_outside), 0),
            Check.at_most("values_in_unit_interval_violations", int(not self.values_in_unit_interval), 0),
        )

    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_tower(family: TowerFamily) -> TowerReport:
    """Exhaustively check the tower family invariants.

    Conservation is exact: the numerators at each point of K must sum to the
    common denominator.  The step supremum over levels, |i| <= k and all j is
    an exact numerator difference, compared with 2k/(2k'+1), which is
    strictly below eps.
    """
    points, num, den = family.points, family.num, family.den
    totals = np.zeros(family.sys.n, dtype=np.int64)
    np.add.at(totals, points.ravel(), num.ravel())
    cons_err = int(np.abs(totals[family.K] - den).max(initial=0))
    bound = family.step_bound()
    return TowerReport(
        conservation_exact=(cons_err == 0),
        conservation_error=cons_err / den,
        step_measured=int(rung_step(num, family.k)) / den,
        step_bound=float(bound),
        eps=float(family.eps),
        step_below_eps=(bound < family.eps),
        supports_disjoint=_overlapping_level(points, family.sys.n) is None,
        supports_contain=np.array_equal(points, _tower_points(family.sys, points[:, :, family.m], family.m)),
        vanishes_outside=num.shape[-1] == 2 * family.m + 1,
        values_in_unit_interval=bool(((num >= 0) & (num <= den)).all()),
    )

