"""Lockstep groups: C same-shaped cells trained as one stack.

Every number a cell gets from a group (parameters, noise variance,
posteriors, trace, decisions) must be bit-identical to what it gets alone,
so the sweep's and the fading study's CSVs do not depend on the group size
or on the worker count.
"""

import hashlib
import math
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

import plasmalink.em as em_module
from plasmalink import bench
from plasmalink.baselines import DnnTrainConfig, supervised_dnn
from plasmalink.bench import (
    ExperimentConfig,
    run_fading_estimation,
    run_ser_sweep,
)
from plasmalink.em import EmSchedule, GroupFit, demodulate, fit, fitting
from plasmalink.link import (
    build_constellation,
    build_frame,
    snr_to_noise_variance,
    transmit,
)
from plasmalink.net import (
    init_model,
    loss_and_gradients,
    weighted_loss,
)

SIZES = sorted({1, 2, 3, bench.GROUP_CELLS})
SCHEDULE = EmSchedule(pretrain_steps=60, em_iterations=3, mstep_steps=15)

# sha256 of fit(...).weights (float64 little-endian, the cells' matrices
# one after another) under SCHEDULE at em_iterations E, for the first
# cell alone and for the first two cells as a group, recorded from the fit
# that ran an M-step after its last E-step and returned that M-step's
# model with the posterior it was trained on. A fit that stops at that
# E-step must decide exactly as it did.
FROZEN_WEIGHT_DIGESTS = {
    0: ("db90bc0d5442db03adeb6865f2d0801d535c893244c2f9d2f0ff09e45b033791",
        "54b9045370614c53c4f5505dbb3ec17a0e5cea1c56d458c92abd88362ff1d5a8"),
    1: ("db90bc0d5442db03adeb6865f2d0801d535c893244c2f9d2f0ff09e45b033791",
        "54b9045370614c53c4f5505dbb3ec17a0e5cea1c56d458c92abd88362ff1d5a8"),
    2: ("613623913716c26b2099a212c6b3de43680834f7b0aba407f7a40b7289890af8",
        "b0f7ec96b58c86b53d46feb0fc3552a0b7b175f8776e606ac32d2806f8dd6a53"),
    5: ("f46a3c93898d4363e41677c1afa5d903421e61dafc5734d9a09e87b040f87d7f",
        "f9d54c2a07354510884f23dc67a9ed9c8e3ae20ef261fcfb84c2088f1e42ec80"),
}


def cells(bits=2, m=256, interval=16, count=max(SIZES)):
    """count cells of one shape: fading channel, SNRs from 2 to 20 dB."""
    const = build_constellation(bits)
    lam = np.linspace(0.0, 1.0, m)
    gains = (0.9 - 0.5 * lam) * np.exp(1j * 2.0 * lam)
    out = []
    for i in range(count):
        seed = 300 + i
        frame = build_frame(m, interval, rng_seed=seed, order=const.order)
        rx = transmit(frame, const, gains,
                      snr_to_noise_variance(2.0 + 18.0 * i / count),
                      rng_seed=seed)
        out.append((seed, frame, rx))
    return const, out


def lone_and_grouped(const, group):
    seeds, frames, received = zip(*group)
    lone = [fit(rx, frame, const, SCHEDULE, rng_seed=seed)
            for seed, frame, rx in group]
    return lone, fit(received, frames, const, SCHEDULE, rng_seed=seeds)


class TestKernel:
    @pytest.mark.parametrize("bits, rows", [(2, 16), (2, 1024), (4, 200),
                                            (2, 512)])
    def test_group_pass_equals_lone_passes(self, bits, rows):
        const = build_constellation(bits)
        k, c = const.order, 3
        models = [init_model(const, rng_seed=s, init_std=0.5)
                  for s in range(c)]
        group = replace(models[0], params=np.stack([m.params
                                                    for m in models]),
                        noise_variance=np.ones(c))
        rng = np.random.default_rng(rows)
        y = rng.normal(size=(rows, c, 2))
        w = rng.uniform(size=(rows, c, k))
        w /= w.sum(axis=2, keepdims=True)

        loss, grads = loss_and_gradients(group, y, w)
        wloss = weighted_loss(group, y, w)
        assert loss.shape == wloss.shape == (c,)
        assert grads.shape == group.params.shape
        for i, model in enumerate(models):
            lone_loss, lone_grads = loss_and_gradients(model, y[:, i],
                                                       w[:, i])
            assert loss[i] == lone_loss
            np.testing.assert_array_equal(grads[i], lone_grads)
            assert wloss[i] == weighted_loss(model, y[:, i], w[:, i])

    def test_group_batch_shape_checked(self):
        const = build_constellation(2)
        model = init_model(const, 0)
        group = replace(model, params=np.stack([model.params] * 2),
                        noise_variance=np.ones(2))
        with pytest.raises(ValueError, match=r"\(m, 2, 2\)"):
            loss_and_gradients(group, np.zeros((8, 2)), np.zeros((8, 4)))
        with pytest.raises(ValueError):
            loss_and_gradients(group, np.zeros((8, 3, 2)),
                               np.zeros((8, 3, 4)))


class TestGroupFit:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("bits", [2, 4])
    def test_cells_equal_lone_fits(self, size, bits):
        const, group = cells(bits=bits, interval=8 if bits == 4 else 16,
                             count=size)
        lone, grouped = lone_and_grouped(const, group)
        assert isinstance(grouped, GroupFit) and len(grouped) == size
        for a, b in zip(grouped, lone):
            np.testing.assert_array_equal(a.model.params, b.model.params)
            assert a.model.params.shape == b.model.params.shape
            assert a.model.noise_variance == b.model.noise_variance
            np.testing.assert_array_equal(a.weights, b.weights)
            assert a.trace == b.trace
            np.testing.assert_array_equal(demodulate(a.weights),
                                          demodulate(b.weights))

    def test_group_trace_sums_the_cells(self):
        const, group = cells(count=3)
        lone, grouped = lone_and_grouped(const, group)
        assert len(grouped.trace) == len(lone[0].trace)
        for i, rec in enumerate(grouped.trace):
            assert rec.phase == lone[0].trace[i].phase
            assert rec.elbo_after_e == math.fsum(
                r.trace[i].elbo_after_e for r in lone)

    def test_states_equal_fits_at_every_iteration(self):
        # fitting never reads em_iterations: a schedule of 1 taken to
        # state 3 passes through fit's result at 0 to 4 iterations, which
        # is state max(E - 1, 0), and a state kept while the run goes on
        # keeps its numbers
        const, group = cells(count=2)
        seeds, frames, received = zip(*group)
        states = list(islice(fitting(
            received, frames, const, replace(SCHEDULE, em_iterations=1),
            seeds), 4))
        for k in range(5):
            state = states[max(k - 1, 0)]
            expect = fit(received, frames, const,
                         replace(SCHEDULE, em_iterations=k), rng_seed=seeds)
            for a, b in zip(state, expect, strict=True):
                np.testing.assert_array_equal(a.model.params, b.model.params)
                assert a.model.noise_variance == b.model.noise_variance
                np.testing.assert_array_equal(a.weights, b.weights)
                assert a.trace == b.trace

    @pytest.mark.parametrize("iterations", sorted(FROZEN_WEIGHT_DIGESTS))
    def test_weights_match_frozen(self, iterations):
        const, group = cells(count=2)
        seeds, frames, received = zip(*group)
        schedule = replace(SCHEDULE, em_iterations=iterations)

        def digest(results):
            h = hashlib.sha256()
            for result in results:
                h.update(result.weights.astype("<f8").tobytes())
            return h.hexdigest()

        seed, frame, rx = group[0]
        lone = fit(rx, frame, const, schedule, rng_seed=seed)
        grouped = fit(received, frames, const, schedule, rng_seed=seeds)
        assert (digest([lone]), digest(grouped)) == \
            FROZEN_WEIGHT_DIGESTS[iterations]

    def test_states_hold_each_cell(self):
        const, group = cells(count=2)
        seeds, frames, received = zip(*group)
        run = fitting(received, frames, const, SCHEDULE, seeds)
        for k, state in zip(range(4), run):
            assert isinstance(state, GroupFit) and len(state) == 2
            for result in state:
                assert len(result.trace) == k + 1
                assert result.trace[-1].iteration == k
                assert result.weights.shape == (256, const.order)
                assert result.model.params.shape == \
                    init_model(const, 0).params.shape

    def test_caller_error_state_untouched(self):
        # the fit raises on overflow between states, never in the caller
        const, group = cells(count=2)
        seeds, frames, received = zip(*group)
        caller = np.geterr()
        run = fitting(received, frames, const, SCHEDULE, seeds)
        next(run)
        assert np.geterr() == caller
        next(run)
        assert np.geterr() == caller
        run.close()
        assert np.geterr() == caller

    def test_cells_must_share_pilots(self):
        const, group = cells(count=2)
        other = build_frame(256, 32, rng_seed=1, order=const.order)
        with pytest.raises(ValueError, match="pilot"):
            fit([group[0][2], group[1][2]], [group[0][1], other], const,
                SCHEDULE, rng_seed=[1, 2])

    def test_invariant_violation_in_one_cell_raises(self, monkeypatch):
        const, group = cells(count=3)
        seeds, frames, received = zip(*group)
        original = em_module._posterior
        calls = []

        def spoiled(model, d2, pilots):
            w = original(model, d2, pilots)
            calls.append(1)
            if len(calls) == 2:  # the first E-step inside the loop
                w[1] = 1.0 / const.order
            return w

        monkeypatch.setattr(em_module, "_posterior", spoiled)
        with pytest.raises(RuntimeError, match="cell 1 of the group"):
            fit(received, frames, const, SCHEDULE, rng_seed=seeds)


class TestGroupDnn:
    @pytest.mark.parametrize("size", SIZES)
    def test_cells_equal_lone_dnns(self, size):
        const, group = cells(count=size)
        config = DnnTrainConfig(dnn_steps=150)
        seeds, frames, received = zip(*group)
        grouped = supervised_dnn(received, frames, const, rng_seed=seeds,
                                 config=config)
        assert isinstance(grouped, tuple) and len(grouped) == size
        for result, (seed, frame, rx) in zip(grouped, group):
            lone = supervised_dnn(rx, frame, const, rng_seed=seed,
                                  config=config)
            np.testing.assert_array_equal(result.decisions, lone.decisions)


def sweep_config(tmp_path, name, **overrides):
    base = dict(frame_length=256, pilot_intervals=(16, 32),
                snr_db=(6.0, 14.0), trials=3, pretrain_steps=40,
                em_iterations=2, mstep_steps=10, dnn_steps=60,
                receivers=("smn", "genie_ml", "supervised_dnn"),
                snr_reference="received", standard_drude_loss=True,
                out_dir=str(tmp_path / name))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGroupedStudies:
    def test_groups_follow_job_order_by_interval(self, monkeypatch):
        monkeypatch.setattr(bench, "GROUP_CELLS", 2)
        jobs = [(snr, interval, trial) for snr in (1.0, 2.0)
                for interval in (16, 32) for trial in range(3)]
        groups = bench._cell_groups(jobs)
        assert groups == [
            [(1.0, 16, 0), (1.0, 16, 1)], [(1.0, 16, 2), (2.0, 16, 0)],
            [(2.0, 16, 1), (2.0, 16, 2)], [(1.0, 32, 0), (1.0, 32, 1)],
            [(1.0, 32, 2), (2.0, 32, 0)], [(2.0, 32, 1), (2.0, 32, 2)]]

    def test_groups_split_buckets_evenly(self, monkeypatch):
        # 22 cells: 4,4,4,4,3,3, not 4,4,4,4,4,2; 5 cells: 3,2, not 4,1
        monkeypatch.setattr(bench, "GROUP_CELLS", 4)
        for n, sizes in [(22, [4, 4, 4, 4, 3, 3]), (5, [3, 2]), (4, [4]),
                         (1, [1])]:
            jobs = [(float(i), 16, 0) for i in range(n)]
            groups = bench._cell_groups(jobs)
            assert [len(g) for g in groups] == sizes
            assert [cell for g in groups for cell in g] == jobs

    def test_sweep_csv_independent_of_group_size_and_workers(
            self, tmp_path, monkeypatch):
        outputs = set()
        for size, workers in [(1, 1), (2, 2), (3, 1), (bench.GROUP_CELLS, 1),
                              (bench.GROUP_CELLS, 2), (8, 2)]:
            monkeypatch.setattr(bench, "GROUP_CELLS", size)
            config = sweep_config(tmp_path, f"g{size}w{workers}",
                                  workers=workers)
            records = run_ser_sweep(config)
            assert all(r["status"] == "ok" for r in records)
            outputs.add((tmp_path / f"g{size}w{workers}"
                         / "ser_sweep.csv").read_bytes())
        assert len(outputs) == 1

    def test_fading_csvs_independent_of_group_size_and_workers(
            self, tmp_path, monkeypatch):
        outputs = set()
        for size, workers in [(1, 1), (2, 2), (3, 1), (3, 2)]:
            monkeypatch.setattr(bench, "GROUP_CELLS", size)
            name = f"g{size}w{workers}"
            run_fading_estimation(sweep_config(
                tmp_path, name, pilot_intervals=(16,),
                snr_db=(20.0, 5.0, 11.0, 14.0), workers=workers))
            outputs.add(tuple((tmp_path / name / f).read_bytes()
                              for f in ("fading.csv",
                                        "fading_summary.csv")))
        assert len(outputs) == 1

    @pytest.mark.parametrize("iterations", [0, 1, 2, 4])
    def test_sweep_runs_no_unread_m_step(self, tmp_path, monkeypatch,
                                         iterations):
        # a group's decisions are the posterior of its em_iterations-th
        # E-step, pretraining's included, so it trains the pretraining
        # steps and then max(E - 1, 0) M-steps, and no step more
        config = sweep_config(tmp_path, f"e{iterations}", receivers=("smn",),
                              em_iterations=iterations)
        groups = bench._cell_groups([
            (snr, interval, trial) for snr in config.snr_db
            for interval in config.pilot_intervals
            for trial in range(config.trials)])
        original = em_module.loss_and_gradients
        rows = []

        def counting(model, batch):
            rows.append(len(batch))
            return original(model, batch)

        monkeypatch.setattr(em_module, "loss_and_gradients", counting)
        run_ser_sweep(config)
        m_steps = max(iterations - 1, 0)
        assert len(groups) == 4
        assert rows == [
            n for group in groups for n in
            [config.frame_length // group[0][1]] * config.pretrain_steps
            + [config.frame_length] * (m_steps * config.mstep_steps)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_cell_fails_alone(self, tmp_path, monkeypatch):
        # one cell's first pilot is so large that its squared distance
        # overflows: only that cell's SMN fails, with the message it has
        # alone, and the group's other cells keep their results
        config = sweep_config(tmp_path, "clean", pilot_intervals=(16,),
                              snr_db=(14.0,), trials=4)
        poisoned = bench.cell_seed(config.seed, 14.0, 16, 2)
        real_transmit = bench.transmit

        def transmit_poisoned(frame, const, gains, var, rng_seed):
            rx = real_transmit(frame, const, gains, var, rng_seed=rng_seed)
            if rng_seed == poisoned:
                rx.samples[0] = 1e160
            return rx

        clean = run_ser_sweep(config)
        monkeypatch.setattr(bench, "transmit", transmit_poisoned)
        csvs = set()
        for size in (1, 4):
            monkeypatch.setattr(bench, "GROUP_CELLS", size)
            out = tmp_path / f"poisoned{size}"
            records = run_ser_sweep(sweep_config(
                tmp_path, f"poisoned{size}", pilot_intervals=(16,),
                snr_db=(14.0,), trials=4))
            csvs.add((out / "ser_sweep.csv").read_bytes())
            by_name = {r["receiver"]: r for r in records}
            assert by_name["smn"]["status"] == (
                "trial 2: failed: FloatingPointError: overflow encountered "
                "in multiply")
            lone = {r["receiver"]: r for r in clean}["smn"]
            # the three other trials keep their errors and symbols
            assert by_name["smn"]["payload_symbols"] == \
                3 * lone["payload_symbols"] // 4
            for name in ("genie_ml", "supervised_dnn"):
                assert by_name[name]["status"] == "ok"
        assert len(csvs) == 1

    def test_elbo_violation_in_a_group_aborts_sweep(self, tmp_path,
                                                   monkeypatch):
        original = em_module._posterior
        calls = []

        def spoiled(model, d2, pilots):
            w = original(model, d2, pilots)
            calls.append(1)
            if len(calls) == 2 and len(w) > 1:
                w[-1] = 0.25
            return w

        monkeypatch.setattr(em_module, "_posterior", spoiled)
        monkeypatch.setattr(bench, "GROUP_CELLS", 2)
        with pytest.raises(RuntimeError, match="lower bound decreased"):
            run_ser_sweep(sweep_config(tmp_path, "abort",
                                       pilot_intervals=(16,),
                                       receivers=("genie_ml", "smn")))
