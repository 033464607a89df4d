"""Experiment driver: seeded, configurable runs emitting CSV artifacts.

Three studies are wired up:

  run_ser_sweep          SER vs SNR for every receiver and pilot interval
  run_learning_snapshots six checkpoints of the curve during training
                         (raw pilots, two pretraining states, two EM states,
                         final decisions)
  run_fading_estimation  per-sample channel-gain estimates and RMSE per SNR

Every output is reproducible byte-for-byte from (config, seed): cells draw
their seeds from a documented SeedSequence key (base seed, cell role,
SNR in millidecibels, pilot interval, trial index), so editing the SNR or
interval grids never shifts the other cells' random streams.

The cells of the SER sweep and of the fading study run in lockstep groups
of up to GROUP_CELLS cells of one pilot interval: one em.fit and one
supervised_dnn call train a whole group as one stack, and each cell gets
the numbers it would get alone, so no output depends on the grouping or
on the worker count.
"""

from __future__ import annotations

import csv
import inspect
import re
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import (
    DnnTrainConfig,
    genie_ml,
    pilot_interp_ml,
    supervised_dnn,
)
from .em import (
    CURVE_GRID_POINTS,
    EmSchedule,
    demodulate,
    extract_fading_curve,
    fit,
    fitting,
)
from .exceptions import ConfigError, check_fields
from .link import (
    Frame,
    ReceivedSequence,
    build_constellation,
    build_frame,
    snr_to_noise_variance,
    transmit,
)
from .net import decode_curve, encode
from .physics import (
    DensityTrajectory,
    channel_gain,
    density_trajectory,
    reference_channel_params,
)
from .seeding import ROLES

__all__ = [
    "ExperimentConfig",
    "SerStats",
    "config_to_text",
    "config_from_text",
    "parse_value",
    "load_config_values",
    "load_config",
    "save_config",
    "build_channel",
    "cell_seed",
    "simulate_cell",
    "GROUP_CELLS",
    "compute_ser",
    "run_ser_sweep",
    "run_learning_snapshots",
    "run_fading_estimation",
    "save_sequence_csv",
]

RECEIVER_NAMES = ("smn", "genie_ml", "pilot_interp_ml", "supervised_dnn")
# each channel key's default: the reference operating point
_REFERENCE = {name: p.default for name, p
              in inspect.signature(reference_channel_params).parameters.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully serializable description of one experiment.

    Densities are per cubic meter internally; the text format also accepts
    *_per_cm3 keys (scaled by 1e6 on read) so the two unit conventions can
    never be silently confused. Construction checks every field but the
    channel and trajectory numbers, which the physics checks when
    build_channel runs.
    """

    # channel (reference_channel_params); a None thickness is calibrated
    # to gain_floor
    carrier_freq_hz: float = _REFERENCE["carrier_freq_hz"]
    collision_freq_hz: float = _REFERENCE["collision_freq_hz"]
    frequencies_are_angular: bool = _REFERENCE["frequencies_are_angular"]
    n_e_min: float = _REFERENCE["n_e_min"]
    n_e_max: float = _REFERENCE["n_e_max"]
    sheath_thickness_m: float | None = _REFERENCE["sheath_thickness_m"]
    gain_floor: float = _REFERENCE["gain_floor"]
    standard_drude_loss: bool = _REFERENCE["standard_drude_loss"]
    # density trajectory (DensityTrajectory, with frame_length)
    profile: str = DensityTrajectory.profile
    oscillation_freq_hz: float = DensityTrajectory.oscillation_freq_hz
    phase_offset_rad: float = DensityTrajectory.phase_offset_rad
    symbol_rate_hz: float = DensityTrajectory.symbol_rate_hz
    constant_level: float | None = DensityTrajectory.constant_level
    # link
    bits_per_symbol: int = 2
    frame_length: int = DensityTrajectory.frame_length
    pilot_intervals: tuple = (256,)
    snr_db: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
    snr_reference: str = "transmit"  # or "received": mean received energy
    snr_is_ebn0: bool = False        # relabel: Es/N0 = value + 10log10(bits)
    # curve model training (EmSchedule); init_std seeds the DNN's too
    pretrain_steps: int = EmSchedule.pretrain_steps
    em_iterations: int = EmSchedule.em_iterations
    mstep_steps: int = EmSchedule.mstep_steps
    learning_rate: float = EmSchedule.learning_rate
    init_std: float = EmSchedule.init_std
    hidden_units: int = EmSchedule.hidden_units
    # supervised classifier baseline
    dnn_hidden: int = DnnTrainConfig.dnn_hidden
    dnn_steps: int = DnnTrainConfig.dnn_steps
    dnn_learning_rate: float = DnnTrainConfig.dnn_learning_rate
    # harness
    receivers: tuple = RECEIVER_NAMES
    trials: int = 10
    seed: int = 0
    workers: int = 1
    out_dir: str = ""

    def __post_init__(self):
        if self.snr_reference not in ("transmit", "received"):
            raise ConfigError(
                f"snr_reference must be transmit or received, "
                f"got {self.snr_reference!r}")
        unknown = set(self.receivers) - set(RECEIVER_NAMES)
        if unknown:
            raise ConfigError(f"unknown receivers {sorted(unknown)}")
        check_fields(self, at_least=(("trials", 1), ("workers", 1),
                                     ("seed", 0), ("frame_length", 2)))
        for name in ("receivers", "snr_db", "pilot_intervals"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} has duplicate values: {values}")
        if not np.all(np.isfinite(self.snr_db)):
            raise ConfigError(f"snr_db values must be finite: {self.snr_db}")
        if max(abs(s) for s in self.snr_db) >= _SNR_LIMIT_DB:
            raise ConfigError(f"snr_db values must lie within "
                              f"+-{_SNR_LIMIT_DB:g} dB: {self.snr_db}")
        keys = [_snr_key(s) for s in self.snr_db]
        if len(set(keys)) != len(keys):
            raise ConfigError(f"snr_db values closer than 0.5 mdB share a "
                              f"cell seed: {self.snr_db}")
        # interval 1 makes every symbol a pilot and leaves no payload
        bad = [i for i in self.pilot_intervals
               if not 2 <= i <= self.frame_length]
        if bad:
            raise ConfigError(f"pilot intervals {bad} outside "
                              f"2..frame_length ({self.frame_length})")
        # built only so that their own field checks run now
        DensityTrajectory(profile=self.profile)
        build_constellation(self.bits_per_symbol)
        self.schedule()
        self.dnn_config()

    def _settings(self, kind):
        """The settings ``kind`` (a class or function) builds from the
        config keys that name its every parameter."""
        return kind(**{name: getattr(self, name)
                       for name in inspect.signature(kind).parameters})

    def schedule(self) -> EmSchedule:
        return self._settings(EmSchedule)

    def dnn_config(self) -> DnnTrainConfig:
        return self._settings(DnnTrainConfig)

    def resolve_out_dir(self) -> Path:
        path = Path(self.out_dir)  # "" is the working directory
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path}: "
                              f"{exc.strerror}") from None
        return path


# ---------------------------------------------------------------------------
# config text format: one "key = value" per line, '#' comments; the CLI
# flags read their values through the same parse_value


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def config_to_text(config: ExperimentConfig) -> str:
    lines = ["# experiment config v1"]
    for f in fields(config):
        lines.append(f"{f.name} = {_format_value(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _typed(name: str, text: str, kind, expected: str = ""):
    try:
        if kind is bool:
            if text not in ("true", "false"):
                raise ValueError(text)
            return text == "true"
        return kind(text)
    except ValueError:
        expected = expected or ("true or false" if kind is bool
                                else kind.__name__)
        raise ConfigError(f"bad value for {name}: {text!r} "
                          f"(expected {expected})") from None


def parse_value(name: str, text: str):
    """The typed value of ExperimentConfig field ``name`` read from its
    text, as a config file or a CLI flag gives it. The kind follows the
    field's default: a tuple is a comma-separated list of its first item's
    type, None an optional float (``none``/``auto`` unset), and any other
    default its own type, with booleans spelled ``true``/``false``."""
    default = _DEFAULTS[name]
    if isinstance(default, tuple):
        kind = type(default[0])
        expected = f"comma-separated {kind.__name__} values"
        return tuple(_typed(name, v.strip(), kind, expected)
                     for v in text.split(",") if v.strip())
    if default is None and text in ("none", "auto"):
        return None
    return _typed(name, text, float if default is None else type(default))


# a comment starts at a "#" that begins a line or follows whitespace, so a
# value such as "out_dir = runs/a#b" keeps its "#"
_COMMENT = re.compile(r"(?:^|\s)#")


def _config_values(text: str) -> dict:
    """The field values the key=value format gives, by field name, each
    parsed on its own; ExperimentConfig checks them together. Unknown keys
    are errors, not warnings."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        name, _, val = line.partition("=")
        name, val = name.strip(), val.strip()

        if name in ("n_e_min_per_m3", "n_e_max_per_m3",
                    "n_e_min_per_cm3", "n_e_max_per_cm3"):
            field = "n_e_min" if "min" in name else "n_e_max"
            scale = 1e6 if name.endswith("per_cm3") else 1.0
            value = scale * _typed(name, val, float)
        elif name in _DEFAULTS:
            field, value = name, parse_value(name, val)
        else:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        if field in values:
            raise ConfigError(f"line {lineno}: {field} given twice")
        values[field] = value
    return values


def config_from_text(text: str) -> ExperimentConfig:
    return ExperimentConfig(**_config_values(text))


def load_config_values(path) -> dict:
    """The field values a config file gives, each parsed on its own, for a
    caller that puts its own values over them before building the
    ExperimentConfig (the CLI's flags)."""
    try:
        # utf-8-sig drops the byte-order mark some editors write first
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    return _config_values(text)


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig(**load_config_values(path))


def save_config(path, config: ExperimentConfig) -> None:
    _write(path, lambda fh: fh.write(config_to_text(config)))


def _open_study(config: ExperimentConfig, artifacts):
    """A study's set-up before any cell runs; returns (gains, out_dir).
    The channel and every SNR's noise variance are checked before any file
    is written. Then the config is archived, location-independent (out_dir
    blanked), and every artifact (names in out_dir) is opened in append
    mode, which truncates no earlier file, so one that cannot be written
    stops the study here; a file the opening created is removed again."""
    _, gains = build_channel(config)
    for snr in config.snr_db:
        _noise_variance(config, gains, snr)
    out_dir = config.resolve_out_dir()
    save_config(out_dir / "config.txt", replace(config, out_dir=""))
    for path in (out_dir / name for name in artifacts):
        created = not path.exists()
        _write(path, lambda fh: None, mode="a")
        if created:
            path.unlink()
    return gains, out_dir


# ---------------------------------------------------------------------------
# channel and cell plumbing


def build_channel(config: ExperimentConfig):
    """Channel params (calibrating z if unset) and the gain sequence.

    reference_channel_params and DensityTrajectory take the channel and
    trajectory keys of the config and check them here, so a ConfigError
    names its key. Values that pass but leave floating-point range (a
    carrier of 1e300 Hz squares to inf) raise ConfigError too. The studies
    build the channel before they write any file.
    """
    with np.errstate(all="ignore"):
        try:
            params = config._settings(reference_channel_params)
            traj = config._settings(DensityTrajectory)
            gains = channel_gain(density_trajectory(traj, params), params)
        except OverflowError:
            raise ConfigError("carrier_freq_hz or collision_freq_hz takes the "
                              "channel physics out of float range") from None
    if not np.all(np.isfinite(gains)):
        raise ConfigError("channel gains are not finite: the channel "
                          "fields are out of range")
    return params, gains


def _noise_variance(config: ExperimentConfig, gains: np.ndarray,
                    snr_db: float) -> float:
    """A cell's total noise variance at snr_db, read as Es/N0 (or Eb/N0 if
    snr_is_ebn0: Es/N0 = snr_db + 10 log10(bits)) over unit transmitted
    energy, or over the gains' mean energy if snr_reference is received.
    A variance that is not finite and > 0 is a ConfigError."""
    es = (float(np.mean(np.abs(gains) ** 2))
          if config.snr_reference == "received" else 1.0)
    es_n0 = (snr_db + 10.0 * np.log10(config.bits_per_symbol)
             if config.snr_is_ebn0 else snr_db)
    with np.errstate(all="ignore"):
        try:
            var = snr_to_noise_variance(es_n0, symbol_energy=es)
        except (ArithmeticError, ValueError):  # 10^x out of range, es 0
            var = 0.0
    if not 0.0 < var < np.inf:
        raise ConfigError(f"snr_db {snr_db:g} puts the noise variance out "
                          f"of float range (symbol energy {es:.3g})")
    return var


# cell seeds key an SNR by its millidecibels in 32 bits, so the key is
# one-to-one only below this magnitude
_SNR_LIMIT_DB = 2 ** 31 / 1000


def _snr_key(snr_db: float) -> int:
    return int(round(snr_db * 1000)) & 0xFFFFFFFF


def cell_seed(base_seed: int, snr_db: float, interval: int,
              trial: int) -> int:
    """Per-cell seed keyed by values, not grid positions."""
    seq = np.random.SeedSequence(
        [base_seed, ROLES["cell"], _snr_key(snr_db), interval, trial])
    return int(seq.generate_state(1, np.uint32)[0])


def simulate_cell(config: ExperimentConfig, gains: np.ndarray,
                  snr_db: float, interval: int, trial: int):
    """One cell's seed, frame and received sequence."""
    seed = cell_seed(config.seed, snr_db, interval, trial)
    const = build_constellation(config.bits_per_symbol)
    frame = build_frame(config.frame_length, interval, rng_seed=seed,
                        order=const.order)
    var = _noise_variance(config, gains, snr_db)
    return seed, frame, transmit(frame, const, gains, var, rng_seed=seed)


# Cells per lockstep group. Every cell of one pilot interval has the same
# shapes, so up to this many train as one stack (em.fit, supervised_dnn).
# Picked by timing sweep-mix and a default-grid sweep at 2, 4 and 8 (see
# CHANGES.md). Frame-sized SMN passes still run a cell at a time
# (net.PASS_COLUMNS); what grows with the group is its frame Batch and its
# E-step arrays. The traced peak of a warm QPSK fit of 4096 frame rows
# read 3.42 / 4.38 / 6.28 / 10.09 MiB for groups of 1 / 2 / 4 / 8 cells,
# about 0.95 MiB more per cell.
GROUP_CELLS = 4


def _cell_groups(cells):
    """Lockstep groups of (snr, interval, trial) cells: job order, bucketed
    by pilot interval, each bucket of n cells cut into ceil(n / GROUP_CELLS)
    consecutive groups whose sizes differ by at most one, larger first. A
    cell's group depends on the job list alone, never on the worker
    count."""
    buckets, groups = {}, []
    for cell in cells:
        buckets.setdefault(cell[1], []).append(cell)
    for bucket in buckets.values():
        count = -(-len(bucket) // GROUP_CELLS)
        size, extra = divmod(len(bucket), count)
        cuts = [g * size + min(g, extra) for g in range(count + 1)]
        groups += [bucket[a:b] for a, b in zip(cuts, cuts[1:])]
    return groups


def _map_cells(config: ExperimentConfig, gains: np.ndarray, run,
               cells) -> dict:
    """run(config, gains, group) -> one output per cell, for every
    lockstep group of the cells; returns cell -> output. The groups go
    through a process pool when there are several and workers > 1."""
    groups = _cell_groups(cells)
    run = partial(run, config, gains)
    workers = min(config.workers, len(groups))
    if workers > 1:
        # imported here: a serial run, and every start-up, skips its cost
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(run, groups))
    else:
        outputs = [run(group) for group in groups]
    return {cell: out for group, outs in zip(groups, outputs)
            for cell, out in zip(group, outs)}


@dataclass(frozen=True)
class SerStats:
    errors: int
    total: int

    @property
    def ser(self) -> float:
        return self.errors / self.total


def compute_ser(decisions: np.ndarray, truth: np.ndarray,
                payload_positions: np.ndarray) -> SerStats:
    """Symbol errors over payload positions only; pilots never counted."""
    if len(decisions) != len(truth):
        raise ValueError(f"decisions length {len(decisions)} != truth "
                         f"length {len(truth)}")
    errs = int(np.sum(decisions[payload_positions]
                      != truth[payload_positions]))
    return SerStats(errors=errs, total=len(payload_positions))


# ---------------------------------------------------------------------------
# CSV helpers


def _write(path, write, mode="w") -> None:
    """Open path as text in mode ("w", or "a" to append) and hand it to
    write; an OSError (a directory in the way, a full disk) is a
    ConfigError naming the path."""
    try:
        with Path(path).open(mode, newline="") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _write_records(path, schema: str, records) -> None:
    """Records (dicts with the same keys) as a CSV headed by the first
    record's keys; a float is written %.17g, anything else as csv does."""
    def write(fh):
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh)
        writer.writerow(records[0])
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v
                          for v in r.values()] for r in records)
    _write(path, write)


def save_trace_csv(path, trace) -> None:
    _write_records(path, "elbo_trace v1", [vars(r) for r in trace])


def save_sequence_csv(path, frame: Frame, received: ReceivedSequence) -> None:
    """Dump a frame/received pair in the documented debug layout.

    Columns: index, pilot_flag, true_symbol, I, Q, gain_I, gain_Q.
    """
    pilot = np.zeros(len(frame), dtype=int)
    pilot[frame.pilot_positions] = 1
    y, g = received.samples, received.true_gains
    _write_records(path, "received_sequence v1", [
        {"index": i, "pilot_flag": p, "true_symbol": s, "I": yi, "Q": yq,
         "gain_I": gi, "gain_Q": gq}
        for i, (p, s, yi, yq, gi, gq) in enumerate(zip(
            pilot.tolist(), frame.symbols.tolist(), y.real.tolist(),
            y.imag.tolist(), g.real.tolist(), g.imag.tolist()))])


def save_weights_csv(path, weights: np.ndarray) -> None:
    keys = ["index"] + [f"w{j}" for j in range(weights.shape[1])]
    _write_records(path, "posterior_matrix v1", [
        dict(zip(keys, [i] + row)) for i, row in enumerate(weights.tolist())])


# ---------------------------------------------------------------------------
# study 1: SER sweep


# what a cell that cannot be fitted raises; it is recorded as the cell's
# status and the sweep goes on. Any other exception is a bug (or a broken
# invariant, such as the ELBO dropping across an E-step) and aborts.
_CELL_ERRORS = (ConfigError, FloatingPointError)


def _decisions(config: ExperimentConfig, receiver: str, seeds, frames,
               received) -> list:
    """One receiver's decisions on every cell of a group, the SMN and the
    DNN each in one lockstep call. A group that fails is re-run one cell
    at a time, so a failure marks only its own cell, with a status string
    in place of its decisions."""
    const = build_constellation(config.bits_per_symbol)
    try:
        if receiver == "smn":
            return [demodulate(r.weights) for r in fit(
                received, frames, const, config.schedule(), rng_seed=seeds)]
        if receiver == "supervised_dnn":
            return [r.decisions for r in supervised_dnn(
                received, frames, const, rng_seed=seeds,
                config=config.dnn_config())]
        if receiver == "genie_ml":
            return [genie_ml(rx, const).decisions for rx in received]
        return [pilot_interp_ml(rx, frame, const).decisions
                for rx, frame in zip(received, frames)]
    except _CELL_ERRORS as exc:
        if len(seeds) == 1:
            return [f"failed: {type(exc).__name__}: {exc}"]
        return [_decisions(config, receiver, (seed,), (frame,), (rx,))[0]
                for seed, frame, rx in zip(seeds, frames, received)]


def _run_group(config: ExperimentConfig, gains: np.ndarray, group) -> list:
    """All receivers on the cells of one group; per cell, receiver ->
    SerStats or failure status."""
    seeds, frames, received = zip(*(simulate_cell(config, gains, *cell)
                                    for cell in group))
    out = [{} for _ in group]
    for receiver in config.receivers:
        decided = _decisions(config, receiver, seeds, frames, received)
        for cell, frame, decisions in zip(out, frames, decided):
            cell[receiver] = decisions if isinstance(decisions, str) else \
                compute_ser(decisions, frame.symbols, frame.payload_positions)
    return out


def run_ser_sweep(config: ExperimentConfig):
    """SER per (receiver, SNR, interval), aggregated over trials.

    Writes ser_sweep.csv plus the archived config. A trial that fails with
    a ConfigError or a floating-point error (NaN/Inf) is left out of its
    row's counts (ser is NaN if no trial ran) and named in `status`; any
    other exception aborts the sweep.
    """
    gains, out_dir = _open_study(config, ["ser_sweep.csv"])

    cells = [(snr, interval, trial)
             for snr in config.snr_db
             for interval in config.pilot_intervals
             for trial in range(config.trials)]
    results = _map_cells(config, gains, _run_group, cells)

    records = []
    for snr in config.snr_db:
        for interval in config.pilot_intervals:
            for receiver in config.receivers:
                errors = total = 0
                failures = []
                for trial in range(config.trials):
                    stats = results[(snr, interval, trial)][receiver]
                    if isinstance(stats, SerStats):
                        errors += stats.errors
                        total += stats.total
                    else:
                        failures.append(f"trial {trial}: {stats}")
                status = "ok" if not failures else "; ".join(failures)
                # the pilots link.build_frame puts at 0, interval, ...
                pilots = len(range(0, config.frame_length, interval))
                util = 1.0 - pilots / config.frame_length
                records.append({
                    "receiver": receiver, "snr_db": snr,
                    "pilot_interval": interval, "trials": config.trials,
                    "payload_symbols": total, "errors": errors,
                    "ser": errors / total if total else float("nan"),
                    "bandwidth_utilization": util, "status": status,
                })

    _write_records(out_dir / "ser_sweep.csv", "ser_sweep v1", records)
    return records


# ---------------------------------------------------------------------------
# study 2: learning-process snapshots


def _pilot_lam_span(model, rx, frame):
    """Curve-coordinate range of the labeled pilot samples."""
    y = rx.iq()[frame.pilot_positions]
    labels = frame.symbols[frame.pilot_positions]
    lam = encode(model, y)[np.arange(len(y)), labels]
    return float(lam.min()), float(lam.max())


def run_learning_snapshots(config: ExperimentConfig):
    """Six training states at the first (SNR, interval) of the config.

    Snapshot 0 is the raw received data (no curves); 1 and 2 are two
    pretraining states; 3 and 4 are two EM states (em_iterations >= 4
    leaves room for both); 5 is the final state, the one em.fit returns
    (step max(em_iterations - 1, 0)), whose decisions are also written
    out. Emits received.csv,
    snapshot_manifest.csv, snapshot_curves.csv, decisions.csv, trace.csv,
    weights.csv and the archived config.
    """
    gains, out_dir = _open_study(config, [
        "received.csv", "snapshot_manifest.csv", "snapshot_curves.csv",
        "decisions.csv", "trace.csv", "weights.csv"])
    seed, frame, rx = simulate_cell(config, gains, config.snr_db[0],
                                    config.pilot_intervals[0], 0)
    const = build_constellation(config.bits_per_symbol)
    save_sequence_csv(out_dir / "received.csv", frame, rx)

    schedule = config.schedule()
    steps = schedule.pretrain_steps
    early = max(1, steps // 8)
    # the state fit returns
    final = max(schedule.em_iterations - 1, 0)

    run = partial(fitting, (rx,), (frame,), const, rng_seed=(seed,))
    # (phase, step, model) of each curve snapshot; Adam and EM read only
    # past steps, so a run's pretraining state is that step of a longer one
    captured = []
    if early < steps:
        state = next(run(replace(schedule, pretrain_steps=early)))
        captured.append(("pretrain", early, state[0].model))
    for it, (result,) in zip(range(final + 1), run(schedule)):
        if it == 0 and steps:
            captured.append(("pretrain", steps, result.model))
        if it in (1, max(2, final // 2)) and it < final:
            captured.append(("em", it, result.model))
    captured.append(("final", final, result.model))

    manifest = [{"snapshot": 0, "phase": "raw", "step": 0, "curve_points": 0}]
    curve_rows = []
    for sid, (phase, step, model) in enumerate(captured, start=1):
        lo, hi = _pilot_lam_span(model, rx, frame)
        grid = np.linspace(lo, hi, CURVE_GRID_POINTS)
        curves = decode_curve(model, grid)
        manifest.append({"snapshot": sid, "phase": phase, "step": step,
                         "curve_points": curves.shape[0] * len(grid)})
        curve_rows += [
            {"snapshot": sid, "symbol": k, "lam": lam, "I": i, "Q": q}
            for k, curve in enumerate(curves.tolist())
            for lam, (i, q) in zip(grid.tolist(), curve)]

    _write_records(out_dir / "snapshot_manifest.csv", "snapshot_manifest v1",
                   manifest)
    _write_records(out_dir / "snapshot_curves.csv", "snapshot_curves v1",
                   curve_rows)
    _write_records(out_dir / "decisions.csv", "decisions v1", [
        {"index": i, "decision": d, "truth": t} for i, (d, t) in enumerate(
            zip(demodulate(result.weights).tolist(), frame.symbols.tolist()))])
    save_trace_csv(out_dir / "trace.csv", result.trace)
    save_weights_csv(out_dir / "weights.csv", result.weights)
    return result, frame, rx


# ---------------------------------------------------------------------------
# study 3: fading estimation


def _fading_group(config: ExperimentConfig, gains: np.ndarray, group) -> list:
    """One lockstep fit of a group's cells; per cell, the true gains and
    the per-sample gain estimates."""
    const = build_constellation(config.bits_per_symbol)
    seeds, frames, received = zip(*(simulate_cell(config, gains, *cell)
                                    for cell in group))
    fits = fit(received, frames, const, config.schedule(), rng_seed=seeds)
    return [(rx.true_gains, extract_fading_curve(
                result.model, rx, result.weights, frame=frame).estimates)
            for result, frame, rx in zip(fits, frames, received)]


def run_fading_estimation(config: ExperimentConfig):
    """Per-sample gain estimates and RMSE for every configured SNR.

    Uses the first pilot interval; writes fading.csv (per-sample traces)
    and fading_summary.csv (per-SNR RMSE) plus the archived config. The
    SNR cells run in lockstep groups, through the pool as the sweep's do.
    A sample's decided symbol and its gain estimate (est_I, est_Q and so
    abs_error) come from one model, the one em.fit returns, and the
    decision from that model's own E-step.
    """
    gains, out_dir = _open_study(config, ["fading.csv", "fading_summary.csv"])
    interval = config.pilot_intervals[0]
    cells = [(snr, interval, 0) for snr in config.snr_db]
    results = _map_cells(config, gains, _fading_group, cells)

    sample_rows, summaries = [], []
    for snr in config.snr_db:
        true_gains, estimates = results[(snr, interval, 0)]
        err = estimates - true_gains
        abs_error = np.hypot(err.real, err.imag)
        rmse = float(np.sqrt(np.mean(abs_error ** 2)))
        summaries.append({"snr_db": snr, "rmse": rmse,
                          "samples": len(true_gains)})
        sample_rows += [
            {"snr_db": float(snr), "index": i, "true_I": ti, "true_Q": tq,
             "est_I": ei, "est_Q": eq, "abs_error": e}
            for i, (ti, tq, ei, eq, e) in enumerate(zip(
                true_gains.real.tolist(), true_gains.imag.tolist(),
                estimates.real.tolist(), estimates.imag.tolist(),
                abs_error.tolist()))]

    _write_records(out_dir / "fading.csv", "fading v1", sample_rows)
    _write_records(out_dir / "fading_summary.csv", "fading_summary v1",
                   summaries)
    return summaries
