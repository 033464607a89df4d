"""Guard of the names the benchmark looks up in the program.

perfbench/spans.py patches module attributes of plasmalink by name, and
perfbench/micro.py calls public functions by name. A rename or deletion
there would pass every other tier-1 test and fail only in a traced
benchmark run, so this test resolves every patched name and calls every
microbenchmark case once. It only reads perfbench/.
"""

import importlib
import sys
from pathlib import Path

import pytest

from plasmalink import baselines, bench, em, link, net

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"bench": bench, "em": em, "net": net, "link": link,
           "baselines": baselines}


@pytest.fixture(scope="module")
def perfbench():
    """The spans and micro modules, imported as perfbench/run.py does,
    without writing bytecode next to them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        yield (importlib.import_module("spans"),
               importlib.import_module("micro"))


def test_every_patched_name_resolves(perfbench):
    spans, _ = perfbench
    assert spans.PATCHES
    for module, attr, span, _ in spans.PATCHES:
        assert callable(getattr(MODULES[module], attr, None)), (
            f"{module}.{attr} (span {span}) is missing")


def test_every_micro_case_runs(perfbench, tmp_path):
    _, micro = perfbench
    cases = micro.build_cases(1, tmp_path, bench, em, net, link, baselines)
    assert cases
    for name, case in cases.items():
        assert case() is not None, name
