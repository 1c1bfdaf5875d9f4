"""Every module-level import of the package and of its tests is read
somewhere in its module, and every function, method and module-level
constant the package defines is read somewhere in the package: an unused
import, function or constant makes dead code look used.  The package's
attribute of each submodule's name is that submodule."""

import ast
import importlib
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "schroedsym"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.stem for p in MODULES] + [f"tests.{p.stem}" for p in TESTS])
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


# read by the tests and the benchmark only: the registry's public entry
# point, and the mapping view through which the tests read a jet's
# coefficients (26 reads in Tier-1)
UNREAD_BY_DESIGN = {"suites.run_named_check", "jets.Jet.coef"}


def _registered(fn):
    """Whether ``fn`` is a check body, decorated with ``suites._register``."""
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_register"
               for d in fn.decorator_list)


def _trees_and_reads():
    """Each module's syntax tree, and the names the package reads anywhere
    in it: those loaded as a plain name, and those loaded as an attribute."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    names, attrs = set(), set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attrs.add(n.attr)
    return trees, names, attrs


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_function_defined_in_src_is_read_in_src():
    # dunders are read by the language.  A method (a def in a class body) is
    # read as an attribute only: a parameter or a local of its name, read as
    # a plain name, does not read it
    trees, names, attrs = _trees_and_reads()
    unread = []
    for stem, tree in trees.items():
        methods = {n: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body}
        unread += [
            f"{stem}.{methods[n]}.{n.name}" if n in methods else f"{stem}.{n.name}"
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(n.name)
            and not _registered(n) and n.name not in (attrs if n in methods else names | attrs)
        ]
    assert sorted(set(unread) - UNREAD_BY_DESIGN) == []


def test_every_module_level_constant_of_src_is_read_in_src():
    # a step table or a tolerance that its reader left behind fails here;
    # dunders (__version__) are read by tools
    trees, names, attrs = _trees_and_reads()
    read = names | attrs
    unread = [
        f"{stem}.{n.id}" for stem, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for n in ast.walk(target) if isinstance(n, ast.Name) and not _is_dunder(n.id)
        and n.id not in read
    ]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_package_attribute_of_each_submodule_is_the_module(path):
    # the package re-exports no function under a submodule's name, so
    # ``import schroedsym.multiplier as m`` binds the module
    module = importlib.import_module(f"schroedsym.{path.stem}")
    assert getattr(importlib.import_module("schroedsym"), path.stem) is module
    assert isinstance(module, types.ModuleType)


@pytest.mark.parametrize("error", ["SingularTime", "BranchError", "RangeError"])
def test_each_guard_error_is_raised_at_one_place(error):
    # the shared guards (coords._nonsingular, coords._off_cut and
    # coords.Frame.exponents) are the one statement of each rule: a new
    # singular, branch or multiplier site calls them
    sites = [f"{p.stem}:{n.lineno}" for p in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(p.read_text())) if isinstance(n, ast.Raise)
             and getattr(getattr(n.exc, "func", n.exc), "id", None) == error]
    assert len(sites) == 1, sites


def test_the_time_step_is_derived_at_one_place():
    # SmoothFn.at_time derives a function's time step from its split_at:
    # a new function class defines split_at and nothing else
    sites = [f"{p.stem}:{n.lineno}" for p in sorted(SRC.glob("*.py"))
             for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.FunctionDef) and n.name == "at_time"]
    assert len(sites) == 1, sites


# the package's functools caches: tables of supports and of grid axes,
# which depend on their arguments alone.  A cache of results would outlive
# the pass that computed them, and a later pass would read it, not the code
# (suites._Pass.generators keeps a pass's operator algebra on the pass)
DECLARED_CACHES = {"jets.weight", "jets._product", "jets._union", "jets._powers", "residual._axes"}


def _is_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "id", None) or getattr(target, "attr", None)) in ("cache", "lru_cache")


def test_every_module_level_cache_is_declared():
    # functions and methods of the modules' top level; a cache inside a
    # function lives for one call
    found = set()
    for p in sorted(SRC.glob("*.py")):
        for node in ast.parse(p.read_text()).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, ast.FunctionDef) and any(map(_is_cache, fn.decorator_list)):
                    found.add(f"{p.stem}.{fn.name}")
    assert found == DECLARED_CACHES
