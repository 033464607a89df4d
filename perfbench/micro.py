"""Per-layer microbenchmarks of public functions on fixed seeded inputs.

Every case is timed over repeats and reports the median and the
interquartile range. The output of every repeat is hashed; a case whose
output is not bit-identical across repeats is a failure, so a broken kernel
cannot post a fast number.
"""

from __future__ import annotations

import hashlib
import pickle
import statistics
from pathlib import Path
from time import perf_counter

from workloads import REFERENCE_CHANNEL

MIN_SECONDS = 0.3  # per case
MIN_REPEATS = 5
MAX_REPEATS = 1000


def digest(value) -> str:
    """sha256 of a result; a returned Path is hashed by its file bytes."""
    if isinstance(value, Path):
        data = value.read_bytes()
    else:
        data = pickle.dumps(value, protocol=4)
    return hashlib.sha256(data).hexdigest()


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def time_case(fn):
    """Repeat fn for MIN_SECONDS (MIN_REPEATS..MAX_REPEATS times)."""
    times, hashes = [], set()
    stop = perf_counter() + MIN_SECONDS
    while len(times) < MIN_REPEATS or (perf_counter() < stop
                                       and len(times) < MAX_REPEATS):
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
        hashes.add(digest(out))
    q1, med, q3 = quartiles(times)
    return {"median_s": med, "iqr_s": q3 - q1, "repeats": len(times),
            "identical": len(hashes) == 1}


def build_cases(seed: int, scratch: Path, bench, em, net, link, baselines):
    """name -> zero-argument callable, all inputs drawn from `seed`."""
    config = bench.ExperimentConfig(frame_length=4096, seed=seed,
                                    **REFERENCE_CHANNEL)
    _, gains = bench.build_channel(config)
    var = link.snr_to_noise_variance(14.0)
    qpsk = link.build_constellation(2)
    psk16 = link.build_constellation(4)

    frame = link.build_frame(4096, 256, rng_seed=seed, order=qpsk.order)
    rx = link.transmit(frame, qpsk, gains, var, rng_seed=seed)
    model4 = net.init_model(qpsk, seed)
    y4096 = rx.iq()
    w4096 = em.e_step(model4, rx, frame)
    y16 = y4096[frame.pilot_positions]        # the 16 pretraining rows
    w16 = em.pilot_weights(frame, qpsk.order)

    frame16 = link.build_frame(1024, 16, rng_seed=seed, order=psk16.order)
    rx16 = link.transmit(frame16, psk16, gains[:1024], var, rng_seed=seed)
    model16 = net.init_model(psk16, seed)
    y1024 = rx16.iq()
    w1024 = em.e_step(model16, rx16, frame16)

    frame64 = link.build_frame(4096, 64, rng_seed=seed, order=qpsk.order)
    rx64 = link.transmit(frame64, qpsk, gains, var, rng_seed=seed)

    def optimizer_step(model, y, w):
        """One step exactly as em._train takes it."""
        _, grads = net.loss_and_gradients(model, y, w)
        state = net.init_adam(net.collect_params(model))

        def step():
            params, new_state = net.adam_step(net.collect_params(model),
                                              grads, state,
                                              learning_rate=1e-3)
            return net.with_params(model, params), new_state
        return step

    trace = tuple(em.TraceRecord(
        phase="pretrain" if i == 0 else "em", iteration=i,
        elbo_before_e=-1e4 + i, elbo_after_e=-1e4 + i + 0.5,
        loss_before_m=0.1 / (i + 1), loss_after_m=0.09 / (i + 1),
        noise_variance=0.05 + 1e-3 * i) for i in range(11))
    weights_path = scratch / "weights.csv"
    trace_path = scratch / "trace.csv"

    def save_weights():
        bench.save_weights_csv(weights_path, w4096)
        return weights_path

    def save_trace():
        bench.save_trace_csv(trace_path, trace)
        return trace_path

    return {
        "link.build_frame_ms.n4096":
            lambda: link.build_frame(4096, 256, rng_seed=seed,
                                     order=qpsk.order),
        "link.transmit_ms.n4096":
            lambda: link.transmit(frame, qpsk, gains, var, rng_seed=seed),
        "net.loss_and_gradients_ms.n16":
            lambda: net.loss_and_gradients(model4, y16, w16),
        "net.loss_and_gradients_ms.n4096":
            lambda: net.loss_and_gradients(model4, y4096, w4096),
        "net.loss_and_gradients_ms.k16_n1024":
            lambda: net.loss_and_gradients(model16, y1024, w1024),
        "net.project_all_ms.n4096": lambda: net.project_all(model4, y4096),
        "net.optimizer_step_ms.k4": optimizer_step(model4, y4096, w4096),
        "net.optimizer_step_ms.k16": optimizer_step(model16, y1024, w1024),
        "em.e_step_ms.n4096": lambda: em.e_step(model4, rx, frame),
        "em.elbo_ms.n4096": lambda: em.elbo(model4, rx, w4096),
        "baselines.supervised_dnn_ms.p64":
            lambda: baselines.supervised_dnn(rx64, frame64, qpsk,
                                             rng_seed=seed).decisions,
        "baselines.genie_ml_ms.n4096":
            lambda: baselines.genie_ml(rx, qpsk).decisions,
        "baselines.pilot_interp_ml_ms.n4096":
            lambda: baselines.pilot_interp_ml(rx, frame, qpsk).decisions,
        "bench.save_weights_csv_ms.n4096": save_weights,
        "bench.save_trace_csv_ms": save_trace,
    }


def run_micro(seed: int, scratch: Path, modules) -> dict:
    """name -> time_case result for every case."""
    scratch.mkdir(parents=True, exist_ok=True)
    cases = build_cases(seed, scratch, modules["bench"], modules["em"],
                        modules["net"], modules["link"],
                        modules["baselines"])
    return {name: time_case(fn) for name, fn in cases.items()}
