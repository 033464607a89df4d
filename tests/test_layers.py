"""The package's layer map: each module imports only from lower layers.

Every import of a package module counts, also one inside a function (cli
imports checks only when selftest or validate-physics runs). em and
baselines are peers: the two receivers both stand on net, and neither
imports the other. __init__ re-exports every layer and is not in the map.
"""

import ast
from pathlib import Path

import pytest

import plasmalink

# module -> layer, lowest first; a module imports only from lower layers
LAYERS = {
    "exceptions": 0, "seeding": 0,
    "physics": 1, "link": 1,
    "net": 2,
    "em": 3, "baselines": 3,
    "bench": 4,
    "checks": 5,
    "cli": 6,
}

PACKAGE = Path(plasmalink.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem != "__init__")


def package_imports(module: str) -> set:
    """The package modules a module's source imports, at any depth."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if not name.startswith("plasmalink"):
                    continue
                name = name[len("plasmalink"):].lstrip(".")
            if name:
                found.add(name.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("plasmalink."))
    return found


def test_every_module_has_a_layer():
    assert MODULES == sorted(LAYERS)


def test_the_parser_sees_function_level_imports():
    assert "checks" in package_imports("cli")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_lower_layers(module):
    upward = sorted(name for name in package_imports(module)
                    if LAYERS[name] >= LAYERS[module])
    assert not upward, f"{module} imports {upward} from its layer or above"
