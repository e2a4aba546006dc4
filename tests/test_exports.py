import importlib
import pkgutil

import pytest

import halfspace

MODULES = sorted(m.name for m in pkgutil.iter_modules(halfspace.__path__))


def test_every_module_is_listed():
    assert "operators" in MODULES and "solvers" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted fails here
    mod = importlib.import_module(f"halfspace.{name}")
    exported = getattr(mod, "__all__", [])
    missing = [n for n in exported if not hasattr(mod, n)]
    assert missing == []
    assert len(set(exported)) == len(exported)
