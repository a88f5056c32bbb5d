"""Completely positive approximation of the crossed product through
finite-dimensional pieces, with every error bound measured.

Given a finite family F of contractions with bounded Laurent support and a
target tolerance eps, the pipeline

1. derives the window parameters (k, eps', m, N) and splits the system into
   short orbits (quotient side) and long orbits (ideal side), held with F,
   eps and the norm tolerance in ``ApproxParams``, the input of every stage;
2. picks a quasicentral cutoff e supported on the long-orbit part -- the
   default is the indicator of that part, which is an exactly central
   projection because the part is an invariant clopen union of cycles;
3. approximates the quotient side by sampling orbit fibers at hat-function
   nodes on the circle (two order-zero colors by arc parity).  Only the node
   counts are kept: an entry of a fiber that does not wrap around its cycle
   is constant on the circle, so interp(sample(b)) - b lives on the seam
   corner of at most 2k x 2k entries and is measured there, straight from b's
   coefficients, by ``cstar.fiber_sup_norm`` -- in closed form where no entry
   wraps more than once and the form is at most the norm tolerance wide;
4. approximates the ideal side through matrix algebras over the tower
   supports, compressing by the coordinate window and the tower functions;
   ``ideal_approx`` builds the tower family from the parameters on the
   support of e, so the family cannot disagree with either.
   The summing map is kept in one form, band arrays in tower coordinates
   (``IdealSide.summing``), which ``IdealSide.composite`` returns straight
   to the crossed product;
5. measures, in one pass per element b, the quotient corner, the ideal corner
   and the final defect ||phi(psi(b)) - b|| against their stated multiples of
   eps: b's seam corners are built and its e-corner composed once, and each
   fiber field is measured once.  For a central projection e the algebra
   splits as a direct sum, so the final defect is read off orbit by orbit as
   the larger corner defect; the dimension ledger is emitted alongside.

Norms are certified through :mod:`rokhlin.cstar`; every assertion carries the
norm tolerance on its right-hand side so floating-point slack cannot produce
a false failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .cstar import CornerFiber, CrossedElement, ElementOrbitFiber, fiber_sup_norm, norm
from .dynsys import Check, Cycle, FiniteDynamicalSystem, InvariantSplit, invariant_split
from .markers import window_length
from .towers import TowerFamily, as_fraction, build_tower_family, rung_step, verify_tower

__all__ = [
    "ApproxError",
    "ApproxParams",
    "QuasicentralReport",
    "QuotientSide",
    "IdealSide",
    "ClaimReport",
    "DimensionLedger",
    "CPFactorization",
    "ApproximationRun",
    "derive_params",
    "quasicentral_unit",
    "quotient_approx",
    "ideal_approx",
    "assemble_and_verify",
    "make_ledger",
    "run_approximation",
    "window_parameters",
]


class ApproxError(ValueError):
    """Approximation parameters or preconditions are violated."""


def window_parameters(d: int, k: int, eps_prime) -> tuple[int, int]:
    """Window half-length m = (2d+3) k ceil(1/eps') and split threshold N = (d+1)(4m+1)."""
    eps_prime = as_fraction(eps_prime)
    if eps_prime <= 0:
        raise ApproxError("eps' must be positive")
    m = (2 * d + 3) * k * math.ceil(1 / eps_prime)
    return m, window_length(d, m)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ApproxParams:
    """The one input record of an approximation run, read by every stage.

    eps' is the square-root modulus: |s - t| < eps' forces
    |sqrt(s) - sqrt(t)| < eps/(2k+1) on [0, 1], realized by the closed form
    eps' = (eps/(2k+1))^2.  m = (2d+3) k ceil(1/eps') and N = (d+1)(4m+1).
    ``norm_tol`` is the slack of every certified norm and of every claim.
    """

    F: tuple[CrossedElement, ...]
    eps: Fraction
    d: int
    k: int
    eps_prime: Fraction
    m: int
    N: int
    split: InvariantSplit
    norm_tol: float

    @property
    def sys(self) -> FiniteDynamicalSystem:
        return self.F[0].sys

    @property
    def quotient_only(self) -> bool:
        return not self.split.long.any()


def derive_params(
    F: Sequence[CrossedElement],
    eps,
    sys: FiniteDynamicalSystem,
    N_override: int | None = None,
    norm_tol: float = 1e-3,
) -> ApproxParams:
    """Derive (k, eps', m, N) from F and eps and split the system accordingly.

    Every member of F must be a contraction up to the norm tolerance (checked
    by the coefficient bound first, then by a certified norm).  Cycles left on
    the ideal side must be longer than (d+1)(4m+1) so markers exist there; if
    an override N cuts below that, the smallest admissible value is suggested.
    """
    if not F:
        raise ApproxError("F must be nonempty")
    for idx, b in enumerate(F):
        if b.sys is not sys:
            raise ApproxError(f"element {idx} lives over a different system")
        if b.coefficient_bound() > 1 + norm_tol and norm(b, norm_tol).value > 1 + norm_tol:
            raise ApproxError(f"element {idx} has norm above one")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ApproxError("eps must be positive")
    d = sys.declared_dim
    k = max(1, max(b.support_radius() for b in F))
    eps_prime = (eps / (2 * k + 1)) ** 2
    m, N = window_parameters(d, k, eps_prime)
    split = invariant_split(sys, N_override if N_override is not None else N)
    short_comp = [c for c in sys.orbits().cycles if split.long[c.base] and c.length <= N]
    if short_comp:
        raise ApproxError(
            f"cycle at {sys.labels[short_comp[0].base]!r} (length {short_comp[0].length}) "
            f"is on the ideal side but markers need length > {N}; smallest admissible "
            f"split parameter is {N}"
        )
    return ApproxParams(
        F=tuple(F), eps=eps, d=d, k=k, eps_prime=eps_prime, m=m, N=N, split=split, norm_tol=norm_tol
    )


# ---------------------------------------------------------------------------
# quasicentral cutoff


@dataclass(frozen=True)
class QuasicentralReport:
    """Cutoff function e with its corner-splitting errors.

    Every e, the default or a supplied one, is [0, 1]-valued and supported on
    the long-orbit part, so its commutator with the lifted quotient maps vanishes: those maps
    vanish on the long-orbit part, where e lives.  ``corner_errors`` holds
    the corner-splitting error of each element of F, measured on first read:
    no report row, check or verdict reads it.  With a central projection e
    (the default, the indicator of the invariant clopen long-orbit part) it
    vanishes exactly.  The compressed-approximation error is the quotient
    corner claim, measured by ``assemble_and_verify``.
    ``is_central_projection`` holds when e is 0/1-valued and invariant under
    the map.  F and the norm tolerance are read from ``params``.
    """

    e: np.ndarray
    is_central_projection: bool
    params: ApproxParams

    def sqrt(self) -> np.ndarray:
        return np.sqrt(self.e)

    def cosqrt(self) -> np.ndarray:
        return np.sqrt(1.0 - self.e)

    @cached_property
    def corner_errors(self) -> tuple[float, ...]:
        """||e^1/2 b e^1/2 + (1-e)^1/2 b (1-e)^1/2 - b|| for each b in F."""
        if self.is_central_projection:
            # e is 0/1-valued and invariant, so both compressions keep each
            # coefficient whole or zero and the defect is exactly zero
            return tuple(0.0 for _ in self.params.F)
        root, coroot, tol = self.sqrt(), self.cosqrt(), self.params.norm_tol
        return tuple(norm(b.compressed(root) + b.compressed(coroot) - b, tol).value for b in self.params.F)


def quasicentral_unit(params: ApproxParams, e_values: np.ndarray | None = None) -> QuasicentralReport:
    sys, long = params.sys, params.split.long
    if e_values is None:
        # indicator of the invariant clopen long-orbit part: a central
        # projection, so the corner-splitting defects vanish exactly and the
        # compressed condition reduces to the quotient error
        return QuasicentralReport(long.astype(float), True, params)
    e = np.asarray(e_values, dtype=float)
    if e.shape != (sys.n,):
        raise ApproxError(f"e must have one value per point, got shape {e.shape}")
    if not np.all((e >= 0) & (e <= 1)):  # NaN fails both comparisons
        raise ApproxError("e must take values in [0, 1]")
    outside = np.flatnonzero((e != 0) & ~long)
    if outside.size:
        raise ApproxError(f"e is supported outside the long-orbit part at {sys.labels[outside[0]]!r}")
    central = bool(np.all((e == 0) | (e == 1)) and np.array_equal(e[sys.perm], e))
    return QuasicentralReport(e, central, params)


# ---------------------------------------------------------------------------
# quotient side


@dataclass
class QuotientSide:
    """Hat-node approximation of the short-orbit fibers with a two-color pullback.

    For each short cycle of length L the circle is divided into an even
    number s >= 2 pi L k / eps of arcs (``node_count``); the summing map
    evaluates fibers at the arc endpoints, and the return map blends the
    node matrices with the subordinate hat functions (piecewise-linear
    interpolation).  Arc parity splits the hats into two families with
    disjoint supports, giving two order-zero summands.  Only the node counts
    are stored: the node matrices of b on a cycle, b's fiber at the
    ``node_count`` roots of unity, are never formed, and interp(sample(b)) -
    b is measured on its seam corner (``corner_fibers``) straight from b's
    coefficients.  Where no entry of a corner wraps more than once (every
    band of b has |i| <= L) the corner is g(lam) W+ + conj(g(lam)) W-, and
    ``cstar.fiber_sup_norm`` reads its sup in closed form where that is at
    most the norm tolerance wide: the arc's sagitta 2 sin^2(pi / 2s) times
    the top singular value of W+ + phi W- over the midpoint phases phi.
    The system, k and eps are read from ``params``.
    """

    params: ApproxParams
    cycles: tuple[Cycle, ...]
    node_count: dict[int, int]

    @property
    def order_zero_colors(self) -> int:
        return 2 if self.cycles else 0

    def corner_fibers(self, b: CrossedElement) -> list[CornerFiber]:
        """interp(sample(b)) - b on the seam corner of each short cycle where
        it can be nonzero (b has a band other than u^0 there)."""
        fibers = (CornerFiber(b, cyc, self.node_count[cyc.base]) for cyc in self.cycles)
        return [fib for fib in fibers if fib.L]


def quotient_approx(params: ApproxParams) -> QuotientSide:
    """Build the hat-node approximation of the short-orbit quotient."""
    cycles = tuple(c for c in params.sys.orbits().cycles if not params.split.long[c.base])
    node_count: dict[int, int] = {}
    for cyc in cycles:
        s = math.ceil(2 * math.pi * cyc.length * params.k / float(params.eps))
        s += s % 2  # arc parity needs an even arc count for two colors
        node_count[cyc.base] = max(s, 2)
    return QuotientSide(params=params, cycles=cycles, node_count=node_count)


# ---------------------------------------------------------------------------
# ideal side


@dataclass
class IdealSide:
    """Tower-windowed approximation through matrix algebras over the supports.

    For each level l the summing map compresses an element to the coordinate
    window [-m, m], weighted by the square roots of the tower functions, into
    one (2m+1) x (2m+1) matrix per anchor of the level's support; the return
    map sends a windowed matrix unit f (x) E_{j j'} to the element
    (f o alpha_{-j}) u^{j - j'} and is an exact *-homomorphism thanks to the
    disjointness of the support translates.  ``root`` holds sqrt(mu) in the
    family's tower coordinates.  ``summing`` yields the compression band by
    band as arrays over (anchor, rung); ``composite`` applies the return map
    to them directly.
    """

    params: ApproxParams
    family: TowerFamily
    root: np.ndarray

    @property
    def levels(self) -> int:
        return len(self.root)

    def summing(self, l: int, b: CrossedElement):
        """Windowed compression of b at level l, per band i of b that fits the
        window: (i, cols, vals) with vals[s, c] = sqrt(mu_j) f_i
        (sqrt(mu_{j-i}) o alpha_{-i}) at alpha_j of anchor s, the entry of
        block (j, j - i) at anchor s for the rung j = cols[c] - m."""
        m = self.params.m
        points, root = self.family.points[l], self.root[l]
        for i, f in b.coeffs.items():
            if abs(i) > 2 * m:
                continue
            cols = np.arange(max(0, i), min(2 * m, 2 * m + i) + 1)
            yield i, cols, f[points[:, cols]] * root[:, cols] * root[:, cols - i]

    def composite(self, b: CrossedElement) -> CrossedElement:
        """Sum over levels of (return o summing)(b), straight from tower
        coordinates: block (j, j - i) at anchor s returns to power i at
        alpha_j(s) = points[l, s, j + m], and the translates of a level are
        disjoint, so no point repeats within a band.  Every level is scattered
        into one band table, in level order."""
        sys = self.params.sys
        coeffs: dict[int, np.ndarray] = {}
        for l in range(self.levels):
            for i, cols, vals in self.summing(l, b):
                band = coeffs.setdefault(i, np.zeros(sys.n, dtype=np.complex128))
                band[self.family.points[l][:, cols]] += vals
        return CrossedElement(sys, coeffs)

    def sqrt_step_sup(self) -> float:
        """sup over levels, |i| <= k and j of |sqrt(mu_{j-i}) o alpha_{-i} - sqrt(mu_j)|."""
        return float(rung_step(self.root, self.params.k))


def ideal_approx(params: ApproxParams, e: np.ndarray) -> IdealSide:
    """Assemble the windowed tower approximation for the long-orbit part over
    the tower family that params determine on the support of e."""
    family = build_tower_family(params.sys, params.d, params.k, params.m, params.eps_prime, np.flatnonzero(e))
    return IdealSide(params=params, family=family, root=np.sqrt(family.num / family.den))


# ---------------------------------------------------------------------------
# claims and assembly


@dataclass(frozen=True)
class ClaimReport:
    """One measured bound: per-element values against bound + norm tolerance."""

    name: str
    bound: float
    norm_tol: float
    measured: tuple[float, ...]

    @property
    def max_measured(self) -> float:
        return max(self.measured, default=0.0)

    @property
    def checks(self) -> tuple[Check, ...]:
        return (Check.at_most(self.name, self.max_measured, self.bound + self.norm_tol),)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class DimensionLedger:
    """Bookkeeping of order-zero colors against the closed-form bound.

    The declared route charges d+2 colors to the quotient side and
    (d+1)(2d+3) to the ideal side, totalling 2d^2+6d+5 = (closed-form bound)+1 in
    the +1 convention.  The finite-scale route observes 2 quotient colors and
    ideal factor 1(2d+3) because every support is zero-dimensional here.  The
    additive route records d1 + d2 + 1 with d1 = d+1 and d2 = 2d+2.
    """

    d: int
    quotient_colors_declared: int
    quotient_colors_actual: int
    ideal_colors: int
    ideal_term_declared: int
    ideal_term_actual: int
    total_declared: int
    total_actual: int
    closed_form_bound: int
    additive_bound: int

    def identities_hold(self) -> bool:
        d = self.d
        return (
            self.quotient_colors_declared + self.ideal_term_declared == 2 * d * d + 6 * d + 5
            and self.total_declared == self.closed_form_bound + 1
            and self.quotient_colors_declared == d + 2
            and self.ideal_colors == 2 * d + 3
            and self.additive_bound == (d + 1) + (2 * d + 2) + 1
        )


def make_ledger(d: int) -> DimensionLedger:
    return DimensionLedger(
        d=d,
        quotient_colors_declared=d + 2,
        quotient_colors_actual=2,
        ideal_colors=2 * d + 3,
        ideal_term_declared=(d + 1) * (2 * d + 3),
        ideal_term_actual=2 * d + 3,
        total_declared=2 * d * d + 6 * d + 5,
        total_actual=2 + (2 * d + 3),
        closed_form_bound=2 * d * d + 6 * d + 4,
        additive_bound=3 * d + 4,
    )


@dataclass(frozen=True)
class CPFactorization:
    """The assembled approximation with all measured errors and counts.

    ``sqrt_step`` is the square-root step row: the measured step against its
    bound eps/(2k+1), passing only strictly below it.  The declared summand
    count is an upper bound on the order-zero colours, so the count passes
    when the actual count stays at or below it (``summand_excess`` is 0).
    """

    final: ClaimReport
    quotient_corner: ClaimReport
    ideal_corner: ClaimReport | None
    sqrt_step: Check | None
    summands_actual: int
    summands_declared: int
    ledger: DimensionLedger

    @property
    def summand_excess(self) -> int:
        """How far the actual summand count exceeds the declared one, or 0."""
        return max(0, self.summands_actual - self.summands_declared)

    @property
    def checks(self) -> tuple[Check, ...]:
        claims = (self.quotient_corner, self.ideal_corner, self.final)
        rows = [row for claim in claims if claim is not None for row in claim.checks]
        rows += [self.sqrt_step] if self.sqrt_step is not None else []
        rows.append(Check.at_most("summand_count_defect", self.summand_excess, 0))
        rows.append(Check.at_most("ledger_identity_violations", int(not self.ledger.identities_hold()), 0))
        return tuple(rows)

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _long_fields(params: ApproxParams, a: CrossedElement) -> list[ElementOrbitFiber]:
    """Nonzero fiber fields of a over the long-orbit cycles."""
    fibers = (ElementOrbitFiber(a, cyc) for cyc in params.sys.orbits().cycles if params.split.long[cyc.base])
    return [fib for fib in fibers if fib.bands]


def assemble_and_verify(
    params: ApproxParams,
    quotient: QuotientSide,
    ideal: IdealSide | None,
    equnit: QuasicentralReport,
) -> CPFactorization:
    """Measure the three claims for the assembled two-sided approximation in
    one pass per element b.

    The summing map sends b to the quotient samples of the (1-e)-corner plus
    the windowed compressions of the e-corner; the return map interpolates
    the samples and maps the windowed blocks back.  Each fiber field is
    measured once:

    - short cycles: interp(sample(b)) - b on its seam corner, read by the
      quotient corner and the final claim (e vanishes there);
    - long cycles: (1-e)^{1/2} b (1-e)^{1/2}, the rest of the quotient corner
      (no fields for the default e);
    - long cycles: composite(corner) - corner with corner = e^{1/2} b e^{1/2},
      the ideal corner.

    ``ideal`` is None only when there are no long cycles.  When e is a
    central projection the algebra splits as a direct sum: on each long cycle
    either e = 1, where corner = b and the final field is the ideal field, or
    e = 0, where the final field is -b, the quotient field.  The final defect
    is then the larger corner defect.  Otherwise the long-cycle fields of
    composite(corner) - b are measured for the final claim.

    Each field set is read by one ``cstar.fiber_sup_norm`` call, which picks
    every fiber's solver: a seam corner takes its closed form where that is
    at most the norm tolerance wide, and its grid otherwise (an entry that
    wraps more than once, as u^5 on a 3-cycle, or a ``slack`` above it).

    Bounds: quotient corner (d+3) eps, ideal corner (2d+3) eps, final
    (3d+7) eps, with order-zero colors 2 + (2d+3) observed and
    (d+2) + (2d+3) = 3d+5 declared.  The square-root step must stay strictly
    below eps/(2k+1).
    """
    sys, d, eps, norm_tol = params.sys, params.d, params.eps, params.norm_tol
    root, coroot = equnit.sqrt(), equnit.cosqrt()
    quotient_measured, ideal_measured, final_measured = [], [], []
    for b in params.F:
        short = fiber_sup_norm(sys, quotient.corner_fibers(b), norm_tol).value
        quotient_err = max(short, fiber_sup_norm(sys, _long_fields(params, b.compressed(coroot)), norm_tol).value)
        final = quotient_err if equnit.is_central_projection else short
        if ideal is not None:
            corner = b.compressed(root)
            composite = ideal.composite(corner)
            ideal_err = fiber_sup_norm(sys, _long_fields(params, composite - corner), norm_tol).value
            ideal_measured.append(ideal_err)
            if not equnit.is_central_projection:
                ideal_err = fiber_sup_norm(sys, _long_fields(params, composite - b), norm_tol).value
            final = max(final, ideal_err)
        quotient_measured.append(quotient_err)
        final_measured.append(final)

    step_row = ideal_report = None
    if ideal is not None:
        step, bound = ideal.sqrt_step_sup(), float(eps) / (2 * params.k + 1)
        step_row = Check("sqrt_step", step, bound, step < bound)
        ideal_report = ClaimReport("ideal_corner", float((2 * d + 3) * eps), norm_tol, tuple(ideal_measured))
    return CPFactorization(
        final=ClaimReport("final_assembly", float((3 * d + 7) * eps), norm_tol, tuple(final_measured)),
        quotient_corner=ClaimReport("quotient_corner", float((d + 3) * eps), norm_tol, tuple(quotient_measured)),
        ideal_corner=ideal_report,
        sqrt_step=step_row,
        summands_actual=quotient.order_zero_colors + (ideal.levels if ideal is not None else 0),
        summands_declared=3 * d + 5,
        ledger=make_ledger(d),
    )


@dataclass(frozen=True)
class ApproximationRun:
    """Everything produced by one full pipeline run."""

    params: ApproxParams
    equnit: QuasicentralReport
    quotient: QuotientSide
    ideal: IdealSide | None
    tower_ok: bool
    factorization: CPFactorization

    @property
    def checks(self) -> tuple[Check, ...]:
        return self.factorization.checks + (Check.at_most("tower_violations", int(not self.tower_ok), 0),)

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_approximation(
    sys: FiniteDynamicalSystem,
    F: Sequence[CrossedElement],
    eps,
    N_override: int | None = None,
    e_values: np.ndarray | None = None,
    norm_tol: float = 1e-3,
) -> ApproximationRun:
    """Run the whole pipeline: parameters, cutoff, towers, both sides, assembly."""
    params = derive_params(F, eps, sys, N_override=N_override, norm_tol=norm_tol)
    quotient = quotient_approx(params)
    equnit = quasicentral_unit(params, e_values)
    ideal = None
    tower_ok = True
    if not params.quotient_only:
        ideal = ideal_approx(params, equnit.e)
        tower_ok = verify_tower(ideal.family).ok()
    factorization = assemble_and_verify(params, quotient, ideal, equnit)
    return ApproximationRun(
        params=params, equnit=equnit, quotient=quotient, ideal=ideal,
        tower_ok=tower_ok, factorization=factorization,
    )
