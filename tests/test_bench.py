"""Tests for the experiment driver: config format, sweeps, snapshots, CLI."""

import csv
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plasmalink
from plasmalink import bench
from plasmalink.bench import (
    ExperimentConfig,
    SerStats,
    _noise_variance,
    build_channel,
    cell_seed,
    compute_ser,
    config_from_text,
    config_to_text,
    load_config,
    run_fading_estimation,
    run_learning_snapshots,
    run_ser_sweep,
    simulate_cell,
)
from plasmalink.cli import _RUN_FLAGS, _resolve_config, build_parser, main
from plasmalink.em import demodulate, fit
from plasmalink.exceptions import ConfigError
from plasmalink.link import build_constellation
from plasmalink.net import init_model


# a field given twice, and its name: by its own key, then in another
# unit; the reverse; and a plain repeat
DUPLICATE_KEYS = pytest.mark.parametrize("text, field", [
    ("n_e_min = 2e22\nn_e_min_per_cm3 = 3e16\n", "n_e_min"),
    ("n_e_min_per_cm3 = 3e16\nn_e_min = 2e22\n", "n_e_min"),
    ("seed = 1\nseed = 2\n", "seed")],
    ids=["field-then-unit", "unit-then-field", "plain"])


def never_simulate(*args, **kwargs):
    """Stands in for bench.simulate_cell where no cell may be simulated:
    every study calls it before any fit."""
    raise AssertionError("a cell was simulated")


def quick_config(**overrides):
    base = dict(frame_length=512, pilot_intervals=(16,), snr_db=(14.0,),
                pretrain_steps=150, em_iterations=2, mstep_steps=30,
                dnn_steps=200, trials=1, snr_reference="received",
                standard_drude_loss=True)
    base.update(overrides)
    return ExperimentConfig(**base)


def overflow_config(**overrides):
    """A short schedule whose learning rate overflows the SMN's fit."""
    return quick_config(frame_length=256, snr_db=(10.0,), pretrain_steps=50,
                        em_iterations=2, mstep_steps=10,
                        learning_rate=1e300, **overrides)


def valid_configs():
    """Configs that pass validation, over every field."""
    reals = st.floats(allow_nan=False, allow_infinity=False)
    above_zero = st.floats(0, exclude_min=True, allow_infinity=False)
    positive = st.floats(1e-6, 1e3)
    counts = st.integers(0, 10**6)
    densities = st.lists(above_zero, min_size=2, max_size=2).map(sorted)
    return densities.flatmap(lambda n_e: st.builds(
        ExperimentConfig,
        carrier_freq_hz=above_zero,
        collision_freq_hz=st.floats(0, allow_infinity=False),
        frequencies_are_angular=st.booleans(), n_e_min=st.just(n_e[0]),
        n_e_max=st.just(n_e[1]), sheath_thickness_m=st.none() | above_zero,
        gain_floor=st.floats(0, 1, exclude_min=True, exclude_max=True),
        standard_drude_loss=st.booleans(),
        profile=st.sampled_from(["sinusoid", "linear_sweep", "constant"]),
        oscillation_freq_hz=above_zero, phase_offset_rad=reals,
        symbol_rate_hz=above_zero,
        constant_level=st.none() | st.floats(*n_e),
        bits_per_symbol=st.integers(1, 4),
        frame_length=st.integers(64, 10**6),
        pilot_intervals=st.lists(st.integers(2, 64), min_size=1,
                                 max_size=4, unique=True).map(tuple),
        snr_db=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5,
                        unique_by=bench._snr_key).map(tuple),
        snr_reference=st.sampled_from(["transmit", "received"]),
        snr_is_ebn0=st.booleans(), pretrain_steps=counts,
        em_iterations=counts, mstep_steps=counts, learning_rate=positive,
        init_std=positive, hidden_units=st.integers(1, 64),
        dnn_hidden=st.integers(1, 64), dnn_steps=counts,
        dnn_learning_rate=positive,
        receivers=st.lists(st.sampled_from(bench.RECEIVER_NAMES),
                           min_size=1, unique=True).map(tuple),
        trials=st.integers(1, 100), seed=st.integers(0, 2**63),
        workers=st.integers(1, 64),
        out_dir=st.text("abcxyz019_-./", max_size=20)))


class TestConfigFormat:
    def test_round_trip(self):
        config = quick_config(snr_db=(0.0, 3.5), receivers=("genie_ml",),
                              sheath_thickness_m=1e-5, seed=9, workers=2)
        assert config_from_text(config_to_text(config)) == config

    def test_defaults_round_trip(self):
        config = ExperimentConfig()
        assert config_from_text(config_to_text(config)) == config

    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_generated_configs_round_trip(self, config):
        assert config_from_text(config_to_text(config)) == config

    def test_density_unit_suffixes(self):
        config = config_from_text("n_e_min_per_cm3 = 1e16\n"
                                  "n_e_max_per_m3 = 5e23\n")
        assert config.n_e_min == 1e22
        assert config.n_e_max == 5e23

    def test_mixed_density_units_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            config_from_text("n_e_min_per_m3 = 1e22\n"
                             "n_e_min_per_cm3 = 1e16\n")

    @DUPLICATE_KEYS
    def test_duplicate_key_rejected(self, text, field):
        # one check for every field, whichever unit or order sets it
        with pytest.raises(ConfigError,
                           match=rf"^line 2: {field} given twice$"):
            config_from_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_text("snr_floor = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            config_from_text("trials = many\n")

    def test_optional_fields_none_and_auto(self):
        for token in ("none", "auto"):
            config = config_from_text(f"sheath_thickness_m = {token}\n")
            assert config.sheath_thickness_m is None
        config = config_from_text("sheath_thickness_m = 2.5e-5\n")
        assert config.sheath_thickness_m == 2.5e-5

    def test_comments_and_blank_lines_ignored(self):
        config = config_from_text("# a comment\n\nseed = 4  # trailing\n")
        assert config.seed == 4

    def test_hash_inside_value_is_kept(self):
        # only a "#" at the start of a line or after whitespace opens a
        # comment
        config = config_from_text("out_dir = runs/a#b\n"
                                  "  # indented comment\n"
                                  "seed = 4\t# after a tab\n")
        assert config.out_dir == "runs/a#b"
        assert config.seed == 4
        with pytest.raises(ConfigError, match="snr_db"):
            config_from_text("snr_db = 10#5\n")

    def test_validation(self):
        with pytest.raises(ConfigError, match="profile"):
            ExperimentConfig(profile="square")
        with pytest.raises(ConfigError, match="snr_reference"):
            ExperimentConfig(snr_reference="antenna")
        with pytest.raises(ConfigError, match="receivers"):
            ExperimentConfig(receivers=("smn", "zf"))
        with pytest.raises(ConfigError, match="^trials must be >= 1, got 0$"):
            ExperimentConfig(trials=0)

    def test_schedule_carries_the_smn_settings(self):
        # a zero-step fit keeps the model net.init_model draws at the
        # config's width and init scale
        config = ExperimentConfig(hidden_units=7, init_std=0.3,
                                  pretrain_steps=0, em_iterations=0)
        const = build_constellation(config.bits_per_symbol)
        _, gains = build_channel(config)
        seed, frame, rx = simulate_cell(config, gains, 0.0, 256, 0)
        result = fit(rx, frame, const, config.schedule(), rng_seed=seed)
        assert result.model.encoder_widths == (2, 7, 1)
        np.testing.assert_array_equal(result.model.params,
                                      init_model(const, seed, 7, 0.3).params)

    def test_missing_file_message_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nowhere.txt"):
            load_config(tmp_path / "nowhere.txt")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.text(max_size=40),
        st.builds("{} = {}".format,
                  st.sampled_from([f.name for f in fields(ExperimentConfig)]
                                  + ["n_e_min_per_cm3", "n_e_max_per_m3"]),
                  st.one_of(st.text(max_size=20),
                            st.floats().map(repr),
                            st.integers(-10**6, 10**6).map(str),
                            st.lists(st.floats().map(repr), max_size=3)
                            .map(", ".join)))),
        max_size=8).map("\n".join))
    def test_arbitrary_text_raises_only_config_error(self, text):
        try:
            config_from_text(text)
        except ConfigError:
            pass


# the channel and trajectory float fields, each with a valid value that
# lets the others vary alone; None is valid for the last two
CHANNEL_FLOATS = {"carrier_freq_hz": 9e9, "collision_freq_hz": 20e9,
                  "n_e_min": 1e22, "n_e_max": 6e23, "gain_floor": 0.05,
                  "oscillation_freq_hz": 20e3, "phase_offset_rad": 0.0,
                  "symbol_rate_hz": 1e6, "sheath_thickness_m": None,
                  "constant_level": None}
# where the physics leaves floating-point range: squares under- or
# overflow, densities overflow the plasma frequency
EXTREME_FLOATS = [0.0, 5e-324, 1e-300, 1e-160, 1e160, 1e300, 1.7e308]


class TestBuildChannel:
    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries(
        {name: st.floats() | st.just(valid) | st.sampled_from(EXTREME_FLOATS)
         for name, valid in CHANNEL_FLOATS.items()}),
        st.sampled_from(["sinusoid", "linear_sweep", "constant"]),
        st.booleans(), st.booleans())
    def test_finite_gains_or_config_error(self, values, profile, angular,
                                          drude):
        # NaN and inf included: the config passes them on, and the
        # physics must reject what it cannot turn into finite gains
        config = ExperimentConfig(frame_length=64, pilot_intervals=(16,),
                                  profile=profile,
                                  frequencies_are_angular=angular,
                                  standard_drude_loss=drude, **values)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, gains = build_channel(config)
        except ConfigError:
            return
        assert gains.shape == (64,) and np.all(np.isfinite(gains))


class TestSnrPlumbing:
    def test_symbol_energy_reference(self):
        # at 10 dB the variance is a tenth of the reference energy: 1 for
        # the transmitted symbols, the mean of |g|^2 = 0.625 received
        gains = np.array([1.0, 0.5j])
        assert _noise_variance(quick_config(snr_reference="transmit"),
                               gains, 10.0) == pytest.approx(0.1, rel=1e-12)
        assert _noise_variance(quick_config(snr_reference="received"),
                               gains, 10.0) == pytest.approx(0.0625,
                                                             rel=1e-12)

    def test_ebn0_relabeling(self):
        gains = np.ones(4)
        config = quick_config(snr_is_ebn0=True)
        expect = 8.0 + 10 * np.log10(2)  # QPSK: Es = 2 Eb
        assert _noise_variance(config, gains, 8.0) == pytest.approx(
            10 ** (-expect / 10), rel=1e-12)
        assert _noise_variance(quick_config(), gains, 8.0) == pytest.approx(
            10 ** -0.8, rel=1e-12)

    @pytest.mark.parametrize("reference", ["transmit", "received"])
    @pytest.mark.parametrize("ebn0", [False, True])
    def test_cell_noise_variance(self, reference, ebn0):
        # the variance a simulated cell carries, for each SNR convention
        config = quick_config(snr_reference=reference, snr_is_ebn0=ebn0)
        _, gains = build_channel(config)
        es = np.mean(np.abs(gains) ** 2) if reference == "received" else 1.0
        es_n0 = 14.0 + (10 * np.log10(2) if ebn0 else 0.0)
        _, _, rx = bench.simulate_cell(config, gains, 14.0, 16, 0)
        assert rx.noise_variance == pytest.approx(es / 10 ** (es_n0 / 10),
                                                  rel=1e-12)

    def test_cell_seed_keyed_by_values(self):
        assert cell_seed(0, 14.0, 256, 3) == cell_seed(0, 14.0, 256, 3)
        keys = {cell_seed(0, snr, iv, t)
                for snr in (0.0, 14.0) for iv in (16, 256) for t in (0, 1)}
        assert len(keys) == 8


class TestComputeSer:
    def test_identical_sequences(self):
        truth = np.arange(8) % 4
        stats = compute_ser(truth, truth, np.arange(8))
        assert stats.errors == 0 and stats.ser == 0.0

    def test_all_different_payload(self):
        truth = np.zeros(100, dtype=int)
        stats = compute_ser(truth + 1, truth, np.arange(100))
        assert stats.errors == 100 and stats.ser == 1.0

    def test_pilots_excluded(self):
        truth = np.array([0, 1, 2, 3])
        wrong = np.array([9, 1, 9, 3])
        stats = compute_ser(wrong, truth, np.array([1, 3]))
        assert stats == SerStats(errors=0, total=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            compute_ser(np.zeros(3, dtype=int), np.zeros(4, dtype=int),
                        np.arange(2))


class TestSerSweep:
    def test_sweep_output(self, tmp_path):
        config = quick_config(out_dir=str(tmp_path),
                              receivers=("genie_ml", "pilot_interp_ml"),
                              snr_db=(8.0, 14.0), trials=2)
        records = run_ser_sweep(config)
        assert len(records) == 4  # 2 receivers x 2 SNRs x 1 interval
        by_key = {(r["receiver"], r["snr_db"]): r for r in records}
        for snr in (8.0, 14.0):
            genie = by_key[("genie_ml", snr)]
            interp = by_key[("pilot_interp_ml", snr)]
            assert genie["ser"] <= interp["ser"]
            assert genie["status"] == "ok"
            # 512-symbol frame at interval 16 has 32 pilots
            assert genie["payload_symbols"] == 2 * (512 - 32)
            assert genie["bandwidth_utilization"] == 1 - 1 / 16

        text = (tmp_path / "ser_sweep.csv").read_text().splitlines()
        assert text[0] == "# schema: ser_sweep v1"
        assert text[1] == ("receiver,snr_db,pilot_interval,trials,"
                           "payload_symbols,errors,ser,"
                           "bandwidth_utilization,status")
        assert len(text) == 2 + len(records)
        # a float in %.17g, so 14.0 is "14"; counts as integers
        genie = by_key[("genie_ml", 14.0)]
        assert text[2 + records.index(genie)] == (
            f"genie_ml,14,16,2,960,{genie['errors']},{genie['ser']:.17g},"
            f"0.9375,ok")
        archived = load_config(tmp_path / "config.txt")
        assert archived == ExperimentConfig(**{
            **config.__dict__, "out_dir": ""})

    def test_utilization_at_default_interval(self, tmp_path):
        config = quick_config(out_dir=str(tmp_path), frame_length=4096,
                              pilot_intervals=(256,),
                              receivers=("genie_ml",))
        records = run_ser_sweep(config)
        util = records[0]["bandwidth_utilization"]
        assert util == 255 / 256
        assert abs(util - 0.996) < 1e-3

    def test_failed_cell_recorded_not_raised(self, tmp_path):
        # Interval = frame length leaves a single pilot: the interpolator
        # needs two, so its cell fails while the genie's still runs.
        config = quick_config(out_dir=str(tmp_path), frame_length=256,
                              pilot_intervals=(256,),
                              receivers=("genie_ml", "pilot_interp_ml"))
        records = run_ser_sweep(config)
        by_name = {r["receiver"]: r for r in records}
        assert by_name["genie_ml"]["status"] == "ok"
        assert "ConfigError" in by_name["pilot_interp_ml"]["status"]
        assert np.isnan(by_name["pilot_interp_ml"]["ser"])

    def test_overflowing_fit_fails_its_cell(self, tmp_path):
        # a learning rate of 1e300 throws the SMN's weights out of float
        # range: its cell fails rather than reporting chance-level decisions
        records = run_ser_sweep(overflow_config(
            out_dir=str(tmp_path), receivers=("smn", "genie_ml")))
        by_name = {r["receiver"]: r for r in records}
        assert by_name["smn"]["status"].startswith(
            "trial 0: failed: FloatingPointError: overflow"), by_name["smn"]
        assert np.isnan(by_name["smn"]["ser"])
        assert by_name["genie_ml"]["status"] == "ok"
        # so does the supervised DNN's, at a learning rate of 1e308
        records = run_ser_sweep(overflow_config(
            out_dir=str(tmp_path), dnn_learning_rate=1e308,
            receivers=("supervised_dnn", "genie_ml")))
        by_name = {r["receiver"]: r for r in records}
        assert by_name["supervised_dnn"]["status"].startswith(
            "trial 0: failed: FloatingPointError: overflow"), by_name
        assert np.isnan(by_name["supervised_dnn"]["ser"])
        assert by_name["genie_ml"]["status"] == "ok"

    def test_invariant_violation_aborts_sweep(self, tmp_path, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise RuntimeError("lower bound decreased across E-step 1")

        monkeypatch.setattr(bench, "fit", broken_fit)
        with pytest.raises(RuntimeError, match="lower bound"):
            run_ser_sweep(quick_config(out_dir=str(tmp_path),
                                       receivers=("genie_ml", "smn")))

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_ser_sweep(quick_config(out_dir=str(out),
                                       receivers=("genie_ml", "smn")))
        assert (out_a / "ser_sweep.csv").read_bytes() == \
               (out_b / "ser_sweep.csv").read_bytes()
        assert (out_a / "config.txt").read_bytes() == \
               (out_b / "config.txt").read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_ser_sweep(quick_config(out_dir=str(out_a), trials=2,
                                   receivers=("genie_ml",)))
        run_ser_sweep(quick_config(out_dir=str(out_b), trials=2,
                                   receivers=("genie_ml",), workers=2))
        assert (out_a / "ser_sweep.csv").read_bytes() == \
               (out_b / "ser_sweep.csv").read_bytes()


class TestSnapshots:
    def test_six_snapshots_and_consistency(self, tmp_path):
        # em_iterations must exceed the mid-EM checkpoint for all six
        # states (raw, 2 pretrain, 2 EM, final) to be distinct.
        config = quick_config(out_dir=str(tmp_path), em_iterations=4)
        result, frame, rx = run_learning_snapshots(config)

        manifest = (tmp_path / "snapshot_manifest.csv").read_text()
        lines = manifest.splitlines()
        assert lines[0] == "# schema: snapshot_manifest v1"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 6
        assert rows[0][1] == "raw" and rows[0][3] == "0"
        assert rows[1][1] == "pretrain" and rows[5][1] == "final"
        assert all(int(r[3]) > 0 for r in rows[1:])

        # curves file only references snapshots 1..5
        curve_lines = (tmp_path / "snapshot_curves.csv").read_text()
        snap_ids = {line.split(",")[0]
                    for line in curve_lines.splitlines()[2:]}
        assert snap_ids == {"1", "2", "3", "4", "5"}

        # final decisions in the file equal argmax of the final posterior
        expect = demodulate(result.weights)
        dec_lines = (tmp_path / "decisions.csv").read_text().splitlines()
        got = np.array([int(line.split(",")[1]) for line in dec_lines[2:]])
        np.testing.assert_array_equal(got, expect)

        # the received dump holds the frame and the samples exactly
        with (tmp_path / "received.csv").open(newline="") as fh:
            assert fh.readline() == "# schema: received_sequence v1\n"
            seq = list(csv.DictReader(fh))

        def column(name, kind=float):
            return np.array([kind(r[name]) for r in seq])

        pilot = np.zeros(len(frame), dtype=int)
        pilot[frame.pilot_positions] = 1
        np.testing.assert_array_equal(column("true_symbol", int),
                                      frame.symbols)
        np.testing.assert_array_equal(column("pilot_flag", int), pilot)
        np.testing.assert_array_equal(column("I") + 1j * column("Q"),
                                      rx.samples)
        np.testing.assert_array_equal(
            column("gain_I") + 1j * column("gain_Q"), rx.true_gains)

        # posterior dump rows are stochastic
        w_lines = (tmp_path / "weights.csv").read_text().splitlines()
        w = np.array([[float(v) for v in line.split(",")[1:]]
                      for line in w_lines[2:]])
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_trace_csv_written(self, tmp_path):
        config = quick_config(out_dir=str(tmp_path))
        result, _, _ = run_learning_snapshots(config)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "# schema: elbo_trace v1"
        assert lines[1] == ("phase,iteration,elbo_before_e,elbo_after_e,"
                            "loss_before_m,loss_after_m,noise_variance")
        assert len(lines) == 2 + len(result.trace)
        last = result.trace[-1]
        assert lines[-1] == ",".join(
            ["em", "2"] + [f"{v:.17g}" for v in (
                last.elbo_before_e, last.elbo_after_e, last.loss_before_m,
                last.loss_after_m, last.noise_variance)])


class TestFadingEstimation:
    def test_summary_and_samples(self, tmp_path):
        config = quick_config(out_dir=str(tmp_path), snr_db=(20.0, 5.0),
                              pretrain_steps=400, em_iterations=3,
                              mstep_steps=50)
        summaries = run_fading_estimation(config)
        assert [s["snr_db"] for s in summaries] == [20.0, 5.0]
        assert all(np.isfinite(s["rmse"]) for s in summaries)
        assert all(s["samples"] == 512 for s in summaries)

        summary = (tmp_path / "fading_summary.csv").read_text().splitlines()
        assert summary[:2] == ["# schema: fading_summary v1",
                               "snr_db,rmse,samples"]
        assert summary[2:] == [f"20,{summaries[0]['rmse']:.17g},512",
                               f"5,{summaries[1]['rmse']:.17g},512"]

        lines = (tmp_path / "fading.csv").read_text().splitlines()
        assert lines[0] == "# schema: fading v1"
        assert len(lines) == 2 + 2 * 512
        # each SNR's RMSE is that of its per-sample rows' abs_error, exactly
        rows = list(csv.DictReader(lines[1:]))
        for s in summaries:
            errs = np.array([float(r["abs_error"]) for r in rows
                             if float(r["snr_db"]) == s["snr_db"]])
            assert len(errs) == 512
            assert float(np.sqrt(np.mean(errs ** 2))) == s["rmse"]
        # and each row's abs_error is the magnitude of its own columns'
        # error, as Python's abs rounds it
        for r in rows:
            err = complex(float(r["est_I"]) - float(r["true_I"]),
                          float(r["est_Q"]) - float(r["true_Q"]))
            assert float(r["abs_error"]) == abs(err), r


def bad_keys(*cases):
    """Parametrize (key, value, message) cases, each with the id
    key-value."""
    return pytest.mark.parametrize("key, value, message", cases,
                                   ids=[f"{k}-{v}" for k, v, _ in cases])


def assert_bad_key_names_it(tmp_path, capsys, key, value, message):
    """`key = value` in a config file exits 2 with the one line
    `error: <message>`, which names key, before the output directory is
    made."""
    (tmp_path / "run.txt").write_text(f"frame_length = 512\n"
                                      f"{key} = {value}\n")
    out = tmp_path / "out"
    code = main(["ser-sweep", "--config", str(tmp_path / "run.txt"),
                 "--outdir", str(out)])
    assert code == 2
    assert key in message
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# a valid text for every run flag
FLAG_TEXTS = {"--seed": "7", "--outdir": "runs/a b", "--snr": "0, 4",
              "--intervals": "16,256", "--trials": "3",
              "--receivers": "smn, genie_ml", "--workers": "2"}


class TestCli:
    def test_ser_sweep_exit_zero(self, tmp_path, capsys):
        code = main(["ser-sweep", "--snr", "14", "--intervals", "16",
                     "--trials", "1", "--receivers", "genie_ml",
                     "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ser_sweep.csv").exists()
        assert "genie_ml" in capsys.readouterr().out

    def test_missing_config_exit_two(self, tmp_path, capsys):
        code = main(["ser-sweep", "--config",
                     str(tmp_path / "absent.txt")])
        assert code == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_config_file_drives_run(self, tmp_path, capsys):
        config = quick_config(receivers=("genie_ml",))
        (tmp_path / "run.txt").write_text(config_to_text(config))
        code = main(["ser-sweep", "--config", str(tmp_path / "run.txt"),
                     "--outdir", str(tmp_path)])
        assert code == 0
        archived = load_config(tmp_path / "config.txt")
        assert archived.frame_length == 512
        assert archived.snr_reference == "received"

    def test_config_out_dir_with_hash(self, tmp_path, capsys):
        out = tmp_path / "a#b"
        config = quick_config(receivers=("genie_ml",), out_dir=str(out))
        (tmp_path / "run.txt").write_text(config_to_text(config))
        code = main(["ser-sweep", "--config", str(tmp_path / "run.txt")])
        assert code == 0
        assert (out / "ser_sweep.csv").exists()
        assert not (tmp_path / "a").exists()

    def test_unknown_subcommand_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_validate_physics_passes(self, capsys):
        assert main(["validate-physics"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_validate_physics_negative_seed_exit_two(self, capsys):
        assert main(["validate-physics", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_selftest_passes_every_check(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("ok ") for line in lines) == 8, lines

    def test_import_leaves_the_pool_unloaded(self):
        # the process pool is imported only when a sweep starts one
        code = ("import sys, plasmalink.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(plasmalink.__file__)
                                              .resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("case", [
        "config-is-directory", "config-not-utf8", "outdir-is-file",
        "outdir-under-file", "archive-is-directory", "csv-is-directory"])
    def test_unusable_path_exit_two(self, tmp_path, capsys, monkeypatch,
                                    case):
        monkeypatch.setattr(bench, "simulate_cell", never_simulate)
        config = tmp_path / "run.txt"
        config.write_text("frame_length = 512\ntrials = 1\n"
                          "receivers = genie_ml\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        out = tmp_path / "out"
        if case == "config-is-directory":
            config = tmp_path
        elif case == "config-not-utf8":
            config.write_bytes(b"frame_length = 512\n# \xff\xfe\n")
        elif case == "outdir-is-file":
            out = afile
        elif case == "outdir-under-file":
            out = afile / "out"
        named = out if case.startswith("outdir") else config
        artifact = {"archive-is-directory": "config.txt",
                    "csv-is-directory": "ser_sweep.csv"}.get(case)
        if artifact:
            # a directory in the way of an artifact: the archived config
            # is written and the table opened before any cell is simulated
            named = out / artifact
            named.mkdir(parents=True)
        code = main(["ser-sweep", "--config", str(config),
                     "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(named) in err

    @pytest.mark.parametrize("command, artifact", [
        ("snapshots", name) for name in (
            "received.csv", "snapshot_manifest.csv", "snapshot_curves.csv",
            "decisions.csv", "trace.csv", "weights.csv")] + [
        ("fading", name) for name in ("fading.csv", "fading_summary.csv")])
    def test_unwritable_artifact_stops_before_any_cell(
            self, tmp_path, capsys, monkeypatch, command, artifact):
        monkeypatch.setattr(bench, "simulate_cell", never_simulate)
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        code = main([command, "--snr", "14", "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(out / artifact) in err

    @pytest.mark.parametrize("command", ["snapshots", "fading"])
    def test_overflowing_fit_exit_two(self, tmp_path, capsys, command):
        (tmp_path / "run.txt").write_text(config_to_text(overflow_config()))
        code = main([command, "--config", str(tmp_path / "run.txt"),
                     "--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FloatingPointError: overflow")
        assert err.count("\n") == 1, err
        # what was written before the fit, and no empty artifact
        written = {"snapshots": ["config.txt", "received.csv"],
                   "fading": ["config.txt"]}[command]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_unallocatable_size_exit_two(self, tmp_path, capsys, workers):
        # 10**7 hidden units ask for 728 TiB, more than any user address
        # space holds, so the allocation is refused outright; two pilot
        # intervals make two groups, which run through the pool at 2
        (tmp_path / "run.txt").write_text(config_to_text(quick_config(
            dnn_hidden=10**7, dnn_steps=1, receivers=("supervised_dnn",))))
        code = main(["ser-sweep", "--config", str(tmp_path / "run.txt"),
                     "--outdir", str(tmp_path / "out"),
                     "--intervals", "16,32", "--workers", workers])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MemoryError: "), err
        assert err.count("\n") == 1, err

    def test_bad_override_exit_two(self, capsys):
        code = main(["ser-sweep", "--snr", "ten"])
        assert code == 2
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, text, key", [
        ("ser-sweep", "--seed", "x", "seed"),
        ("ser-sweep", "--seed", "1.5", "seed"),
        ("ser-sweep", "--snr", "ten", "snr_db"),
        ("ser-sweep", "--snr", "0, 4dB", "snr_db"),
        ("ser-sweep", "--intervals", "1.5", "pilot_intervals"),
        ("ser-sweep", "--trials", "1.5", "trials"),
        ("ser-sweep", "--trials", "", "trials"),
        ("ser-sweep", "--workers", "x", "workers"),
        ("snapshots", "--seed", "x", "seed"),
        ("fading", "--intervals", "x", "pilot_intervals"),
        ("validate-physics", "--seed", "x", "seed"),
    ])
    def test_wrong_type_flag_one_line(self, capsys, command, flag, text,
                                      key):
        code = main([command, flag, text])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert key in err

    @pytest.mark.parametrize("flag, key", [(f, k) for f, k, _ in _RUN_FLAGS])
    def test_flags_parse_like_config_keys(self, flag, key):
        text = FLAG_TEXTS[flag]
        args = build_parser().parse_args(["ser-sweep", flag, text])
        assert _resolve_config(args) == config_from_text(f"{key} = {text}\n")

    def test_negative_snr_list_takes_equals_form(self):
        args = build_parser().parse_args(["ser-sweep", "--snr=-4,0"])
        assert _resolve_config(args).snr_db == (-4.0, 0.0)

    @pytest.mark.parametrize("command, config_text, flags", [
        ("ser-sweep", "", ["--receivers", ""]),
        ("ser-sweep", "pilot_intervals =\n", []),
        ("ser-sweep", "snr_db = nan\n", []),
        ("snapshots", "snr_db =\n", []),
        ("fading", "", ["--snr", ""]),
        ("ser-sweep", "snr_db = 14, 14\n", []),
        ("ser-sweep", "", ["--intervals", "0"]),
        ("fading", "frame_length = 128\n", ["--intervals", "256"]),
        ("ser-sweep", "snr_db = 1e306\n", []),
        ("ser-sweep", "snr_db = 14, 14.0004\n", []),
        ("ser-sweep", "pretrain_steps = -1\n", []),
        ("ser-sweep", "learning_rate = 0\n", []),
        ("ser-sweep", "hidden_units = 0\n", []),
        ("ser-sweep", "dnn_steps = -3\n", []),
        ("ser-sweep", "init_std = -1\n", []),
        ("ser-sweep", "bits_per_symbol = 9\n", []),
        ("ser-sweep", "gain_floor = 1.5\n", []),
        ("ser-sweep", "gain_floor = nan\n", []),
        ("ser-sweep", "carrier_freq_hz = nan\n", []),
        ("ser-sweep", "phase_offset_rad = nan\n", []),
        ("ser-sweep", "carrier_freq_hz = 0\n", []),
        ("ser-sweep", "collision_freq_hz = -1\n", []),
        ("ser-sweep", "sheath_thickness_m = -0.01\n", []),
        ("ser-sweep", "sheath_thickness_m = 0\n", []),
        ("ser-sweep", "n_e_min = 7e23\n", []),
        ("ser-sweep", "n_e_min = nan\n", []),
        ("ser-sweep", "n_e_max = inf\n", []),
        ("ser-sweep", "seed = -1\n", []),
        ("ser-sweep", "", ["--seed", "-1"]),
        ("ser-sweep", "symbol_rate_hz = 0\n", []),
        ("ser-sweep", "oscillation_freq_hz = 0\n", []),
        ("ser-sweep", "oscillation_freq_hz = nan\n", []),
        ("ser-sweep", "profile = constant\nconstant_level = 1e25\n", []),
        ("ser-sweep", "carrier_freq_hz = 1e300\n", []),
        ("ser-sweep", "collision_freq_hz = 1e300\n", []),
        ("ser-sweep", "carrier_freq_hz = 1e-300\ncollision_freq_hz = 0\n", []),
        ("ser-sweep", "n_e_max = 1.7e308\n", []),
        ("fading", "", ["--intervals", "1"]),
        ("ser-sweep", "pilot_intervals = 1\n", []),
        ("ser-sweep", "snr_db = 10#5\n", []),
    ], ids=["no-receivers", "no-intervals", "nan-snr", "snapshots-no-snr",
            "fading-no-snr", "duplicate-snr", "zero-interval",
            "interval-over-frame", "huge-snr", "colliding-snr",
            "negative-pretrain-steps", "zero-learning-rate",
            "zero-hidden-units", "negative-dnn-steps", "negative-init-std",
            "bits-9", "gain-floor-1.5", "gain-floor-nan", "carrier-nan",
            "phase-nan", "carrier-zero", "negative-collision",
            "negative-sheath", "zero-sheath", "density-min-over-max",
            "density-min-nan", "density-max-inf", "negative-seed",
            "negative-seed-flag", "zero-symbol-rate", "zero-oscillation",
            "nan-oscillation", "constant-level-outside", "huge-carrier",
            "huge-collision", "tiny-carrier", "huge-density",
            "fading-interval-one", "sweep-interval-one",
            "hash-inside-value"])
    def test_bad_config_exit_two(self, tmp_path, capsys, command,
                                 config_text, flags):
        # a short base run, so a check that lets the input through fails
        # the test quickly instead of starting a full default sweep; a key
        # the case sets is left out of it, as a key given twice is an
        # error of its own
        base = {"frame_length": 512, "pilot_intervals": 16, "trials": 1,
                "receivers": "genie_ml", "pretrain_steps": 20,
                "em_iterations": 1, "mstep_steps": 5}
        given = {line.partition("=")[0].strip()
                 for line in config_text.splitlines()}
        (tmp_path / "run.txt").write_text(
            "".join(f"{key} = {value}\n" for key, value in base.items()
                    if key not in given) + config_text)
        out = tmp_path / "out"
        # pytest captures warnings; record them here, where they count
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(tmp_path / "run.txt"),
                         "--outdir", str(out), *flags])
        assert not caught, [str(w.message) for w in caught]
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "given twice" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ser-sweep", "snapshots", "fading"])
    @pytest.mark.parametrize("config_text", [
        "snr_db = 3100\n", "snr_db = -3300\n", "snr_db = -3200\n",
        "snr_db = 3080\nsnr_is_ebn0 = true\n",
        "gain_floor = 1e-200\nprofile = constant\nconstant_level = 6e23\n"
        "snr_reference = received\n"],
        ids=["overflow", "zero-division", "infinite-noise",
             "ebn0-zero-noise", "zero-received-energy"])
    def test_noise_variance_out_of_range_exit_two(self, tmp_path, capsys,
                                                  command, config_text):
        # each SNR passes the config's own check, but its noise variance
        # is not finite and > 0: one line naming snr_db, and no file
        (tmp_path / "run.txt").write_text(
            "frame_length = 256\npilot_intervals = 16\ntrials = 1\n"
            "pretrain_steps = 20\nem_iterations = 1\nmstep_steps = 5\n"
            "dnn_steps = 20\n" + config_text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(tmp_path / "run.txt"),
                         "--outdir", str(out)])
        assert not caught, [str(w.message) for w in caught]
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snr_db ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["3000", "-3000"])
    def test_extreme_snr_in_float_range_runs(self, tmp_path, capsys, snr):
        code = main(["ser-sweep", f"--snr={snr}", "--receivers", "genie_ml",
                     "--trials", "1", "--intervals", "16",
                     "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ser_sweep.csv").exists()

    @bad_keys(
        ("carrier_freq_hz", "nan", "carrier_freq_hz must be finite and > 0"),
        ("collision_freq_hz", "-1",
         "collision_freq_hz must be finite and >= 0"),
        ("sheath_thickness_m", "-1",
         "sheath_thickness_m must be finite and > 0, got -1.0"),
        ("sheath_thickness_m", "nan",
         "sheath_thickness_m must be finite and > 0, got nan"),
        ("n_e_min", "0",
         "n_e_min and n_e_max must satisfy 0 < n_min <= n_max < inf"),
        ("n_e_max", "inf",
         "n_e_min and n_e_max must satisfy 0 < n_min <= n_max < inf"),
        ("oscillation_freq_hz", "0",
         "oscillation_freq_hz must be > 0 for the sinusoid profile"),
        ("phase_offset_rad", "nan",
         "oscillation_freq_hz and phase_offset_rad must be finite"),
        ("symbol_rate_hz", "0",
         "symbol_rate_hz must be finite and > 0, got 0.0"),
        ("symbol_rate_hz", "inf",
         "symbol_rate_hz must be finite and > 0, got inf"))
    def test_bad_channel_field_names_its_key(self, tmp_path, capsys, key,
                                             value, message):
        assert_bad_key_names_it(tmp_path, capsys, key, value, message)

    @bad_keys(
        ("pretrain_steps", "-1", "pretrain_steps must be >= 0, got -1"),
        ("em_iterations", "-1", "em_iterations must be >= 0, got -1"),
        ("mstep_steps", "-1", "mstep_steps must be >= 0, got -1"),
        ("hidden_units", "0", "hidden_units must be >= 1, got 0"),
        ("learning_rate", "inf",
         "learning_rate must be finite and > 0, got inf"),
        ("init_std", "0", "init_std must be finite and > 0, got 0.0"),
        ("dnn_steps", "-3", "dnn_steps must be >= 0, got -3"),
        ("dnn_hidden", "0", "dnn_hidden must be >= 1, got 0"),
        ("dnn_learning_rate", "0",
         "dnn_learning_rate must be finite and > 0, got 0.0"),
        ("dnn_learning_rate", "nan",
         "dnn_learning_rate must be finite and > 0, got nan"))
    def test_bad_training_field_names_its_key(self, tmp_path, capsys, key,
                                              value, message):
        assert_bad_key_names_it(tmp_path, capsys, key, value, message)

    @bad_keys(
        ("trials", "0", "trials must be >= 1, got 0"),
        ("workers", "0", "workers must be >= 1, got 0"),
        ("seed", "-1", "seed must be >= 0, got -1"))
    def test_bad_harness_field_names_its_key(self, tmp_path, capsys, key,
                                             value, message):
        assert_bad_key_names_it(tmp_path, capsys, key, value, message)

    @DUPLICATE_KEYS
    def test_duplicate_key_exit_two(self, tmp_path, capsys, text, field):
        (tmp_path / "run.txt").write_text(text)
        out = tmp_path / "out"
        code = main(["ser-sweep", "--config", str(tmp_path / "run.txt"),
                     "--outdir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: line 2: {field} given twice\n"
        assert not out.exists()
