"""Guard of the names the benchmark looks up in the program.

perfbench/spans.py patches module attributes of plasmalink by name, and
perfbench/micro.py calls public functions by name. A rename or deletion
there would pass every other tier-1 test and fail only in a traced
benchmark run, so this test resolves every patched name, calls every
microbenchmark case once and runs the tracer over a tiny sweep. It only
reads perfbench/.
"""

import importlib
import sys
from dataclasses import replace
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


def test_tracer_over_a_tiny_sweep(perfbench, tmp_path):
    # the tracer installed over a sweep sees one em.fit span per lockstep
    # group, every training step, and fit results whose traces its
    # iteration metric reads; tracing leaves the CSV bytes as they are
    spans, _ = perfbench
    config = bench.ExperimentConfig(
        frame_length=128, pilot_intervals=(16,), snr_db=(8.0, 14.0),
        trials=3, receivers=("smn",), pretrain_steps=10, em_iterations=3,
        mstep_steps=4, snr_reference="received", standard_drude_loss=True,
        out_dir=str(tmp_path / "plain"))
    groups = bench._cell_groups([(snr, 16, trial) for snr in config.snr_db
                                 for trial in range(config.trials)])
    bench.run_ser_sweep(config)
    tracer = spans.Tracer()
    with tracer.installed(MODULES):
        bench.run_ser_sweep(replace(config, out_dir=str(tmp_path / "traced")))
    counts = tracer.breakdown(0)
    assert counts["em.fit"]["calls"] == len(groups) == 2
    assert counts["net.loss_and_gradients"]["calls"] == len(groups) * (
        config.pretrain_steps + 2 * config.mstep_steps)
    # three iterations: each group's trace has the pretraining row and two
    # EM rows, and both EM iterations raise the bound
    assert [len(result.trace) for _, result in tracer.fit_results] == [3, 3]
    assert spans.useful_iter_ratio(tracer.fit_results) == 1.0
    assert (tmp_path / "traced" / "ser_sweep.csv").read_bytes() == \
        (tmp_path / "plain" / "ser_sweep.csv").read_bytes()
