"""Finite-scale toolkit for orbit decompositions, marker sets, decaying Rokhlin
towers, crossed-product matrix models, and certified completely positive
approximations of crossed products by a single bijection."""

from .approx import (
    ApproxParams,
    CPFactorization,
    DimensionLedger,
    assemble_and_verify,
    derive_params,
    ideal_approx,
    make_ledger,
    quasicentral_unit,
    quotient_approx,
    run_approximation,
)
from .cstar import (
    CrossedElement,
    NormResult,
    holonomy,
    norm,
    periodic_embedding,
    primitive_spectrum,
)
from .dynsys import (
    FiniteDynamicalSystem,
    InvariantSplit,
    OrbitDecomposition,
    invariant_split,
    load_system,
    make_cycle_system,
    make_rotation_system,
    orbit_decomposition,
    quotient_report,
)
from .markers import (
    MarkerCertificate,
    greedy_markers,
    marker_certificate,
)
from .towers import (
    TowerFamily,
    build_partition,
    build_tower_family,
    tower_supports,
    verify_tower,
)

__version__ = "0.1.0"
