"""Every name a public surface lists resolves: plasmalink.__all__ and the
__all__ of each of its modules."""

import importlib
import pkgutil

import pytest

import plasmalink

MODULES = [plasmalink] + [
    importlib.import_module(f"plasmalink.{info.name}")
    for info in pkgutil.iter_modules(plasmalink.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), "a name is listed twice"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing {missing}"
