"""The public surface: every exported and every re-exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
