"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the opening fence, code) of every python block
BLOCKS = [(TEXT.count("\n", 0, m.start()) + 1, m.group(1)) for m in
          re.finditer(r"^```python\n(.*?)^```", TEXT, re.S | re.M)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS,
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_python_block_runs(line, code):
    # compiled under the README's name, offset so a traceback names the
    # README line
    exec(compile("\n" * line + code, str(README), "exec"), {})
