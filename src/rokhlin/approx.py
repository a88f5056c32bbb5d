"""Completely positive approximation of the crossed product through
finite-dimensional pieces, with every error bound measured.

Given a finite family F of contractions with bounded Laurent support and a
target tolerance eps, the pipeline

1. derives the window parameters (k, eps', m, N) and splits the system into
   short orbits (quotient side) and long orbits (ideal side);
2. picks a quasicentral cutoff e supported on the long-orbit part -- the
   default is the indicator of that part, which is an exactly central
   projection because the part is an invariant clopen union of cycles;
3. approximates the quotient side by sampling orbit fibers at hat-function
   nodes on the circle (two order-zero colors by arc parity).  Only the node
   counts are kept: an entry of a fiber that does not wrap around its cycle
   is constant on the circle, so interp(sample(b)) - b lives on the seam
   corner of at most 2k x 2k entries and is measured there, straight from b's
   coefficients;
4. approximates the ideal side through matrix algebras over the tower
   supports, compressing by the coordinate window and the tower functions;
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
from typing import Sequence

import numpy as np

from .cstar import CornerFiber, CrossedElement, ElementOrbitFiber, fiber_sup_norm, norm
from .dynsys import Cycle, FiniteDynamicalSystem, InvariantSplit, invariant_split
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
    return m, (d + 1) * (4 * m + 1)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ApproxParams:
    """Window parameters for one approximation run.

    eps' is the square-root modulus: |s - t| < eps' forces
    |sqrt(s) - sqrt(t)| < eps/(2k+1) on [0, 1], realized by the closed form
    eps' = (eps/(2k+1))^2.  m = (2d+3) k ceil(1/eps') and N = (d+1)(4m+1).
    """

    F: tuple[CrossedElement, ...]
    eps: Fraction
    d: int
    k: int
    eps_prime: Fraction
    m: int
    N: int
    split: InvariantSplit
    quotient_only: bool

    @property
    def sys(self) -> FiniteDynamicalSystem:
        return self.F[0].sys


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
    short_comp = [
        c for c in sys.orbits().cycles
        if c.base in split.complement and c.length <= N
    ]
    if short_comp:
        raise ApproxError(
            f"cycle at {sys.labels[short_comp[0].base]!r} (length {short_comp[0].length}) "
            f"is on the ideal side but markers need length > {N}; smallest admissible "
            f"split parameter is {N}"
        )
    return ApproxParams(
        F=tuple(F), eps=eps, d=d, k=k, eps_prime=eps_prime, m=m, N=N,
        split=split, quotient_only=not split.complement,
    )


# ---------------------------------------------------------------------------
# quasicentral cutoff


@dataclass(frozen=True)
class QuasicentralReport:
    """Cutoff function e with the three measured compatibility conditions.

    With the default e (indicator of the invariant clopen long-orbit part)
    all three vanish exactly.  A supplied e must be [0, 1]-valued and
    supported on the long-orbit part; the commutator with the lifted quotient
    maps still vanishes structurally, while the corner-splitting error is
    measured per element.  The compressed-approximation error is the quotient
    corner claim, measured by ``assemble_and_verify``.  ``is_central_projection``
    holds when e is 0/1-valued and invariant under the map.
    """

    e: np.ndarray
    is_central_projection: bool
    commutator_error: float
    corner_errors: tuple[float, ...]

    def sqrt(self) -> np.ndarray:
        return np.sqrt(self.e)

    def cosqrt(self) -> np.ndarray:
        return np.sqrt(1.0 - self.e)


def quasicentral_unit(
    sys: FiniteDynamicalSystem,
    split: InvariantSplit,
    F: Sequence[CrossedElement],
    e_values: np.ndarray | None = None,
    norm_tol: float = 1e-3,
) -> QuasicentralReport:
    comp = sorted(split.complement)
    if e_values is None:
        # indicator of the invariant clopen long-orbit part: a central
        # projection, so the commutator and corner-splitting defects vanish
        # exactly and the compressed condition reduces to the quotient error
        e = np.zeros(sys.n)
        e[comp] = 1.0
        return QuasicentralReport(
            e=e, is_central_projection=True, commutator_error=0.0,
            corner_errors=tuple(0.0 for _ in F),
        )
    e = np.asarray(e_values, dtype=float)
    if e.shape != (sys.n,):
        raise ApproxError(f"e must have one value per point, got shape {e.shape}")
    if not np.all((e >= 0) & (e <= 1)):  # NaN fails both comparisons
        raise ApproxError("e must take values in [0, 1]")
    outside = [x for x in range(sys.n) if e[x] != 0 and x not in split.complement]
    if outside:
        raise ApproxError(f"e is supported outside the long-orbit part at {sys.labels[outside[0]]!r}")

    root, coroot = np.sqrt(e), np.sqrt(1.0 - e)
    corner = []
    for b in F:
        defect = b.compressed(root) + b.compressed(coroot) - b
        corner.append(norm(defect, norm_tol).value)
    # the lifted quotient maps vanish on the long-orbit part, where e lives,
    # so the commutator is zero without any perturbation step
    central = bool(np.all((e == 0) | (e == 1)) and np.array_equal(e[sys.perm], e))
    return QuasicentralReport(
        e=e, is_central_projection=central, commutator_error=0.0, corner_errors=tuple(corner),
    )


# ---------------------------------------------------------------------------
# quotient side


# node matrices of the CP checks are built this many bytes at a time
_NODE_CHUNK_BYTES = 2**24


@dataclass
class QuotientSide:
    """Hat-node approximation of the short-orbit fibers with a two-color pullback.

    For each short cycle of length L the circle is divided into an even
    number s >= 2 pi L k / eps of arcs (``node_count``); the summing map
    evaluates fibers at the arc endpoints, and the return map blends the
    node matrices with the subordinate hat functions (piecewise-linear
    interpolation).  Arc parity splits the hats into two families with
    disjoint supports, giving two order-zero summands.  Only the node counts
    are stored: interp(sample(b)) - b is measured on its seam corner
    (``corner_fibers``), and the CP-property checks build node matrices on
    demand, a chunk of at most _NODE_CHUNK_BYTES at a time.
    """

    sys: FiniteDynamicalSystem
    split: InvariantSplit
    eps: Fraction
    k: int
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

    def _node_matrices(self, b: CrossedElement):
        """b's fiber at the nodes of each short cycle, streamed in chunks."""
        for cyc in self.cycles:
            s, fib = self.node_count[cyc.base], ElementOrbitFiber(b, cyc)
            step = max(1, _NODE_CHUNK_BYTES // (16 * cyc.length**2))
            for lo in range(0, s, step):
                yield fib.matrices(np.exp(2j * np.pi * np.arange(lo, min(lo + step, s)) / s))

    def positivity_defect(self, b: CrossedElement) -> float:
        """Most negative eigenvalue of the summing map applied to b* b (>= 0 ideally)."""
        return min(
            (float(np.linalg.eigvalsh(mats).min()) for mats in self._node_matrices(b.adjoint() * b)),
            default=0.0,
        )

    def summing_norm(self, b: CrossedElement) -> float:
        """Largest norm of a node matrix of b."""
        return max(
            (float(np.linalg.svd(mats, compute_uv=False)[:, 0].max()) for mats in self._node_matrices(b)),
            default=0.0,
        )


def quotient_approx(
    split: InvariantSplit,
    F: Sequence[CrossedElement],
    eps,
    sys: FiniteDynamicalSystem,
) -> QuotientSide:
    """Build the hat-node approximation of the short-orbit quotient."""
    eps = as_fraction(eps)
    k = max(1, max((b.support_radius() for b in F), default=1))
    cycles = tuple(c for c in sys.orbits().cycles if c.base in split.y_part)
    node_count: dict[int, int] = {}
    for cyc in cycles:
        s = math.ceil(2 * math.pi * cyc.length * k / float(eps))
        s += s % 2  # arc parity needs an even arc count for two colors
        node_count[cyc.base] = max(s, 2)
    return QuotientSide(sys=sys, split=split, eps=eps, k=k, cycles=cycles, node_count=node_count)


# ---------------------------------------------------------------------------
# ideal side


@dataclass
class IdealSide:
    """Tower-windowed approximation through matrix algebras over the supports.

    For each level l the summing map compresses an element to the coordinate
    window [-m, m], weighted by the square roots of the tower functions; the
    return map sends a windowed matrix unit f (x) E_{j j'} to the element
    (f o alpha_{-j}) u^{j - j'} and is an exact *-homomorphism thanks to the
    disjointness of the support translates.  ``root`` holds sqrt(mu) in the
    family's tower coordinates; a block function maps anchor points (the
    support) to complex values.
    """

    params: ApproxParams
    family: TowerFamily
    e: np.ndarray
    root: np.ndarray

    @property
    def levels(self) -> int:
        return len(self.root)

    @property
    def window_dim(self) -> int:
        return 2 * self.params.m + 1

    def _windowed(self, l: int, b: CrossedElement):
        """Per band i of b that fits the window: (i, cols, vals) with vals[s, c]
        = sqrt(mu_j) f_i (sqrt(mu_{j-i}) o alpha_{-i}) at alpha_j of anchor s,
        for the rungs j = cols[c] - m."""
        m = self.params.m
        points, root = self.family.points[l], self.root[l]
        for i, f in b.coeffs.items():
            if abs(i) > 2 * m:
                continue
            cols = np.arange(max(0, i), min(2 * m, 2 * m + i) + 1)
            yield i, cols, f[points[:, cols]] * root[:, cols] * root[:, cols - i]

    def summing(self, l: int, b: CrossedElement) -> dict[tuple[int, int], dict[int, complex]]:
        """Windowed compression of b at level l, as sparse block functions.

        Block (j, j - i) holds sqrt(mu_j) f_i (sqrt(mu_{j-i}) o alpha_{-i}) at
        alpha_j of each anchor, pulled back to the anchor.
        """
        m = self.params.m
        anchors = self.family.points[l, :, m]
        blocks: dict[tuple[int, int], dict[int, complex]] = {}
        for i, cols, vals in self._windowed(l, b):
            for col, column in zip(cols.tolist(), vals.T):
                nz = np.flatnonzero(column)
                if nz.size:
                    blocks[(col - m, col - m - i)] = dict(zip(anchors[nz].tolist(), column[nz]))
        return blocks

    def returning(self, blocks: dict[tuple[int, int], dict[int, complex]]) -> CrossedElement:
        """Return map: f (x) E_{j j'} -> (f o alpha_{-j}) u^{j-j'}."""
        sys = self.params.sys
        coeffs: dict[int, np.ndarray] = {}
        for (j, jp), fn in blocks.items():
            power = j - jp
            arr = coeffs.setdefault(power, np.zeros(sys.n, dtype=np.complex128))
            # (f o alpha_{-j}) at alpha_j(x); alpha_j is a permutation, so no
            # index repeats within a block
            at = sys.orbits().iterate(j, np.fromiter(fn, dtype=np.int64, count=len(fn)))
            arr[at] += np.fromiter(fn.values(), dtype=np.complex128, count=len(fn))
        return CrossedElement(sys, coeffs)

    def composite(self, b: CrossedElement) -> CrossedElement:
        """Sum over levels of (return o summing)(b), straight from tower
        coordinates: block (j, j - i) at anchor s returns to power i at
        alpha_j(s) = points[l, s, j + m], and the translates of a level are
        disjoint, so no point repeats within a band."""
        sys = self.params.sys
        out = CrossedElement.zero(sys)
        for l in range(self.levels):
            coeffs: dict[int, np.ndarray] = {}
            for i, cols, vals in self._windowed(l, b):
                coeffs[i] = np.zeros(sys.n, dtype=np.complex128)
                coeffs[i][self.family.points[l][:, cols]] += vals
            out = out + CrossedElement(sys, coeffs)
        return out

    def sqrt_step_sup(self) -> float:
        """sup over levels, |i| <= k and j of |sqrt(mu_{j-i}) o alpha_{-i} - sqrt(mu_j)|."""
        return float(rung_step(self.root, self.params.k))

    def block_matrix_at(self, blocks: dict[tuple[int, int], dict[int, complex]], x: int) -> np.ndarray:
        """Dense principal submatrix of a windowed block family at one point."""
        idx = sorted({j for pair in blocks for j in pair})
        pos = {j: r for r, j in enumerate(idx)}
        mat = np.zeros((len(idx), len(idx)), dtype=np.complex128)
        for (j, jp), fn in blocks.items():
            if x in fn:
                mat[pos[j], pos[jp]] = fn[x]
        return mat

    def positivity_defect(self, b: CrossedElement) -> float:
        """Most negative pointwise eigenvalue of the summed compression of b* b."""
        worst = 0.0
        bb = b.adjoint() * b
        for l in range(self.levels):
            blocks = self.summing(l, bb)
            pts = sorted({x for fn in blocks.values() for x in fn})
            for x in pts:
                mat = self.block_matrix_at(blocks, x)
                worst = min(worst, float(np.linalg.eigvalsh(mat).min()))
        return worst

    def summing_norm(self, l: int, b: CrossedElement) -> float:
        blocks = self.summing(l, b)
        pts = sorted({x for fn in blocks.values() for x in fn})
        return max(
            (float(np.linalg.svd(self.block_matrix_at(blocks, x), compute_uv=False)[0]) for x in pts),
            default=0.0,
        )

    def multiplicativity_residual(self, rng: np.random.Generator, trials: int = 12) -> float:
        """Return-map homomorphism defect on random windowed matrix units."""
        sys = self.params.sys
        m = self.params.m
        worst = 0.0
        for _ in range(trials):
            l = int(rng.integers(self.levels))
            sup = sorted(self.family.supports[l])
            if not sup:
                continue
            i1, j1, i2, j2 = (int(v) for v in rng.integers(-m, m + 1, size=4))
            if rng.random() < 0.5:
                i2 = j1  # exercise the nonvanishing branch half the time
            f1 = {x: complex(rng.standard_normal(), rng.standard_normal()) for x in sup}
            f2 = {x: complex(rng.standard_normal(), rng.standard_normal()) for x in sup}
            x = {(i1, j1): f1}
            y = {(i2, j2): f2}
            prod: dict[tuple[int, int], dict[int, complex]] = {}
            if j1 == i2:
                prod[(i1, j2)] = {p: f1[p] * f2[p] for p in f1 if p in f2}
            lhs = self.returning(x) * self.returning(y)
            rhs = self.returning(prod)
            worst = max(worst, (lhs - rhs).coefficient_bound())
            adj = self.returning({(j1, i1): {p: np.conj(v) for p, v in f1.items()}})
            worst = max(worst, (self.returning(x).adjoint() - adj).coefficient_bound())
        return worst


def ideal_approx(params: ApproxParams, family: TowerFamily, e: np.ndarray) -> IdealSide:
    """Assemble the windowed tower approximation for the long-orbit part."""
    if family.m != params.m or family.d != params.d or family.k != params.k:
        raise ApproxError(
            f"tower family (d={family.d}, k={family.k}, m={family.m}) does not match "
            f"params (d={params.d}, k={params.k}, m={params.m})"
        )
    support_e = {x for x in range(params.sys.n) if e[x] != 0}
    if not support_e <= family.K:
        raise ApproxError("tower family was not built on the support of e")
    return IdealSide(
        params=params, family=family, e=np.asarray(e, dtype=float),
        root=np.sqrt(family.num / family.den),
    )


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
    def passed(self) -> bool:
        return self.max_measured <= self.bound + self.norm_tol


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
    ledger = DimensionLedger(
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
    if not ledger.identities_hold():
        raise ApproxError(f"ledger identities fail for d = {d}")
    return ledger


@dataclass(frozen=True)
class CPFactorization:
    """The assembled approximation with all measured errors and counts.

    ``sqrt_step`` holds the measured square-root step, its bound eps/(2k+1)
    and ``strict``, the one pass rule for it: the step must stay strictly
    below the bound.
    """

    params: ApproxParams
    final: ClaimReport
    quotient_corner: ClaimReport
    ideal_corner: ClaimReport | None
    sqrt_step: dict | None
    summands_actual: int
    summands_declared: int
    ledger: DimensionLedger

    def passed(self) -> bool:
        claims = [self.final, self.quotient_corner] + ([self.ideal_corner] if self.ideal_corner else [])
        ok = all(c.passed for c in claims)
        if self.sqrt_step is not None:
            ok = ok and self.sqrt_step["strict"]
        return ok and self.ledger.identities_hold()


def _sup(sys: FiniteDynamicalSystem, fibers: list, norm_tol: float) -> float:
    """Certified sup norm over fiber fields; zero when there are none."""
    return fiber_sup_norm(sys, fibers, norm_tol).value if fibers else 0.0


def _long_fields(params: ApproxParams, a: CrossedElement) -> list[ElementOrbitFiber]:
    """Nonzero fiber fields of a over the long-orbit cycles."""
    fibers = (
        ElementOrbitFiber(a, cyc) for cyc in params.sys.orbits().cycles
        if cyc.base in params.split.complement
    )
    return [fib for fib in fibers if fib.bands]


def assemble_and_verify(
    params: ApproxParams,
    quotient: QuotientSide,
    ideal: IdealSide | None,
    equnit: QuasicentralReport,
    norm_tol: float = 1e-3,
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

    Bounds: quotient corner (d+3) eps, ideal corner (2d+3) eps, final
    (3d+7) eps, with order-zero colors 2 + (2d+3) observed and
    (d+2) + (2d+3) = 3d+5 declared.  The square-root step must stay strictly
    below eps/(2k+1).
    """
    sys = params.sys
    d = params.d
    root, coroot = equnit.sqrt(), equnit.cosqrt()
    quotient_measured, ideal_measured, final_measured = [], [], []
    for b in params.F:
        short = _sup(sys, quotient.corner_fibers(b), norm_tol)
        quotient_err = max(short, _sup(sys, _long_fields(params, b.compressed(coroot)), norm_tol))
        final = quotient_err if equnit.is_central_projection else short
        if ideal is not None:
            corner = b.compressed(root)
            composite = ideal.composite(corner)
            ideal_err = _sup(sys, _long_fields(params, composite - corner), norm_tol)
            ideal_measured.append(ideal_err)
            if not equnit.is_central_projection:
                ideal_err = _sup(sys, _long_fields(params, composite - b), norm_tol)
            final = max(final, ideal_err)
        quotient_measured.append(quotient_err)
        final_measured.append(final)

    eps = params.eps
    step_info = ideal_report = None
    if ideal is not None:
        step, step_bound = ideal.sqrt_step_sup(), float(eps) / (2 * params.k + 1)
        step_info = {"sqrt_step": step, "sqrt_step_bound": step_bound, "strict": step < step_bound}
        ideal_report = ClaimReport("ideal_corner", float((2 * d + 3) * eps), norm_tol, tuple(ideal_measured))
    return CPFactorization(
        params=params,
        final=ClaimReport("final_assembly", float((3 * d + 7) * eps), norm_tol, tuple(final_measured)),
        quotient_corner=ClaimReport(
            "quotient_corner", float((d + 3) * quotient.eps), norm_tol, tuple(quotient_measured)
        ),
        ideal_corner=ideal_report,
        sqrt_step=step_info,
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

    def passed(self) -> bool:
        return self.factorization.passed() and (self.ideal is None or self.tower_ok)


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
    quotient = quotient_approx(params.split, F, params.eps, sys)
    equnit = quasicentral_unit(sys, params.split, F, e_values, norm_tol)
    ideal = None
    tower_ok = True
    if not params.quotient_only:
        K = frozenset(int(x) for x in np.nonzero(equnit.e)[0])
        family = build_tower_family(sys, params.d, params.k, params.m, params.eps_prime, K)
        tower_ok = verify_tower(family).ok()
        ideal = ideal_approx(params, family, equnit.e)
    factorization = assemble_and_verify(params, quotient, ideal, equnit, norm_tol)
    return ApproximationRun(
        params=params, equnit=equnit, quotient=quotient, ideal=ideal,
        tower_ok=tower_ok, factorization=factorization,
    )
