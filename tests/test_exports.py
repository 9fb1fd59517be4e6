import importlib
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
