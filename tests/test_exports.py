import ast
import importlib
import inspect
import pkgutil

import pytest

import lpsflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(lpsflow.__path__))


def test_every_module_is_listed():
    assert "stepper" in MODULES and "app" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A stale export fails here rather than at a user's ``import *``.
    mod = importlib.import_module(f"lpsflow.{name}")
    exports = getattr(mod, "__all__", [])
    assert len(set(exports)) == len(exports), "duplicate names in __all__"
    assert [n for n in exports if not hasattr(mod, n)] == []


def _imported(name):
    """Top-level names of the modules that module ``name`` imports."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"lpsflow.{name}")))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_stepper_imports_ctypes():
    # Process-wide allocator settings (glibc's thresholds and heap reserve)
    # have one owner, and an operator set changes none of them.
    assert [n for n in MODULES if "ctypes" in set(_imported(n))] == ["stepper"]
