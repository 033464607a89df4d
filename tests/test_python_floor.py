"""Every source file parses as the oldest Python that pyproject.toml
admits. This catches newer syntax only: the library calls are not checked
against that Python's NumPy."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(int(part) for part in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).groups())
SOURCES = sorted((ROOT / "src" / "plasmalink").rglob("*.py"))


def test_floor_is_declared():
    assert FLOOR == (3, 10)
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=FLOOR)
