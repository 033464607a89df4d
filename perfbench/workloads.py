"""The benchmark's workloads: one study configuration per name.

Each workload is a set of keyword arguments for ``ExperimentConfig`` plus
the public study entry point it runs. The workload seed becomes the
config's base seed, so the same seed always simulates the same frames.
Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

import os

# Channel conventions of the ROADMAP reference cell, shared by every workload.
REFERENCE_CHANNEL = dict(standard_drude_loss=True, snr_reference="received")

# The short schedule `plasmalink selftest` uses for its quick-fit check.
QUICK_SCHEDULE = dict(pretrain_steps=500, em_iterations=5, mstep_steps=60)

WORKLOADS = {
    # The ROADMAP reference cell: one full-schedule SMN fit at n=4096.
    "fit-ref": dict(
        study="run_ser_sweep",
        config=dict(bits_per_symbol=2, frame_length=4096,
                    pilot_intervals=(256,), snr_db=(14.0,),
                    receivers=("smn",), trials=1, workers=1,
                    **REFERENCE_CHANNEL)),
    # Many short cells with all four receivers through the process pool.
    "sweep-mix": dict(
        study="run_ser_sweep",
        config=dict(bits_per_symbol=2, frame_length=1024,
                    pilot_intervals=(16, 256), snr_db=(8.0, 14.0),
                    receivers=("smn", "genie_ml", "pilot_interp_ml",
                               "supervised_dnn"),
                    trials=2, workers=2,
                    **QUICK_SCHEDULE, **REFERENCE_CHANNEL)),
    # The fading study at K=16 curves, four pilots per symbol. Not in
    # BENCHMARK.json (its wall time drifts most with the machine's speed);
    # run it by hand with run.py.
    "fading-16psk": dict(
        study="run_fading_estimation",
        config=dict(bits_per_symbol=4, frame_length=1024,
                    pilot_intervals=(16,), snr_db=(20.0, 11.0),
                    workers=1,
                    **QUICK_SCHEDULE, **REFERENCE_CHANNEL)),
}


def config_kwargs(name: str, seed: int, out_dir: str = "",
                  serial: bool = False) -> dict:
    """ExperimentConfig keyword arguments of a workload at a seed.

    The pool is never wider than the cores this process may use; `serial`
    forces one worker, which keeps every traced span in this process.
    """
    kwargs = dict(WORKLOADS[name]["config"], seed=seed, out_dir=out_dir)
    cores = len(os.sched_getaffinity(0))
    kwargs["workers"] = 1 if serial else min(kwargs["workers"], cores)
    return kwargs
