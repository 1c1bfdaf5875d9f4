"""Every module-level import of the package is read somewhere in its module:
an unused import makes dead code look used.  The package's attribute of
each submodule's name is that submodule."""

import ast
import importlib
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "schroedsym"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(imported - read) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_package_attribute_of_each_submodule_is_the_module(path):
    # the package re-exports no function under a submodule's name, so
    # ``import schroedsym.multiplier as m`` binds the module
    module = importlib.import_module(f"schroedsym.{path.stem}")
    assert getattr(importlib.import_module("schroedsym"), path.stem) is module
    assert isinstance(module, types.ModuleType)
