"""The public surface: every exported and every re-exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import rokhlin

MODULES = sorted(info.name for info in pkgutil.iter_modules(rokhlin.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_name(name):
    module = importlib.import_module(f"rokhlin.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from rokhlin.{name} import *", {})


def test_package_imports_resolve():
    tree = ast.parse(Path(rokhlin.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rokhlin.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"rokhlin.{node.module}.{alias.name}"
            assert hasattr(rokhlin, alias.asname or alias.name)


def test_point_sets_are_arrays_on_the_tower_path():
    # every point subset is a boolean mask and every ordered list of points a
    # sorted int64 index array
    from rokhlin.dynsys import invariant_split, make_cycle_system
    from rokhlin.markers import greedy_markers
    from rokhlin.towers import build_tower_family, tower_supports

    sys = make_cycle_system([3, 100])
    split = invariant_split(sys, 25)
    cert = greedy_markers(sys, 5, np.flatnonzero(split.long))
    anchors = tower_supports(sys, cert, 2)[:, :, 5]
    family = build_tower_family(sys, 0, 1, 5, "1/2", np.flatnonzero(split.long))
    for mask in (split.long, cert.K, family.K, family.K_prime):
        assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (sys.n,)
    for points in (cert.markers, anchors, family.points[:, :, family.m]):
        assert isinstance(points, np.ndarray) and points.dtype == np.int64
        assert (np.diff(points, axis=-1) > 0).all()
    assert anchors.shape == (3, len(cert.markers))
    for cyc in sys.orbits().cycles:
        assert isinstance(cyc.order, np.ndarray) and not cyc.order.flags.writeable


def test_a_system_is_sorted_labels_and_a_permutation():
    # one point order: a point's index is its label's place in sorted order,
    # so the constructor takes no label map and no orbit record keeps a rank
    import inspect
    from dataclasses import fields

    from rokhlin.dynsys import FiniteDynamicalSystem, OrbitDecomposition

    assert list(inspect.signature(FiniteDynamicalSystem).parameters) == ["labels", "perm", "declared_dim"]
    assert "rank" not in [f.name for f in fields(OrbitDecomposition)]


def test_approx_stages_read_their_inputs_from_params():
    # F, eps, k, the split, the system and the norm tolerance live in
    # ApproxParams; no stage takes one of them beside it, and no stage record
    # keeps its own copy
    import inspect
    from dataclasses import fields

    from rokhlin import approx

    stages = ("quotient_approx", "quasicentral_unit", "ideal_approx", "assemble_and_verify")
    assert {name: list(inspect.signature(getattr(approx, name)).parameters) for name in stages} == {
        "quotient_approx": ["params"],
        "quasicentral_unit": ["params", "e_values"],
        "ideal_approx": ["params", "e"],
        "assemble_and_verify": ["params", "quotient", "ideal", "equnit"],
    }
    records = (approx.QuotientSide, approx.QuasicentralReport, approx.CPFactorization)
    assert {cls.__name__: [f.name for f in fields(cls)] for cls in records} == {
        "QuotientSide": ["params", "cycles", "node_count"],
        "QuasicentralReport": ["e", "is_central_projection", "params"],
        "CPFactorization": [
            "final", "quotient_corner", "ideal_corner", "sqrt_step",
            "summands_actual", "summands_declared", "ledger",
        ],
    }
