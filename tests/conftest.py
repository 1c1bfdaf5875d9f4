import importlib.util
import inspect
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench_workloads():
    """``perfbench/workloads.py``, loaded from its file: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def slip_literal(monkeypatch):
    """``slip_literal(module, name, text, literal)`` replaces the function
    ``name`` of ``module``, in every package module that holds it, by its own
    source with the float ``literal`` inside ``text`` scaled by 1 + 1e-9:
    a single-literal mutant."""

    def apply(module, name, text, literal):
        original = getattr(module, name)
        source = inspect.getsource(original)
        assert source.count(text) == 1 and text.count(literal) == 1, text
        slipped = text.replace(literal, repr(float(literal) * (1.0 + 1e-9)))
        namespace = dict(vars(module))
        exec(compile(source.replace(text, slipped), inspect.getsourcefile(original), "exec"),
             namespace)
        for held in list(sys.modules.values()):
            if held.__name__.startswith("schroedsym") and getattr(held, name, None) is original:
                monkeypatch.setattr(held, name, namespace[name])

    return apply
