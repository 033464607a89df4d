"""Link-level simulator for radio links through a plasma sheath, with an
EM-trained symmetric manifold network receiver, reference receivers, and a
reproducible benchmark harness.

Layer map, lowest first; a module imports only from the layers above it
(exceptions and seeding sit under them all):

    physics    dispersion formulas, density trajectories, channel gains
    link       constellations, frames, noise, received sequences; the one
               owner of pilot positions, labels and one-hot weights
    net        the symmetric manifold network and its hand-rolled autodiff
    em         pretraining, the EM loop, demodulation, fading extraction
    baselines  genie ML, pilot-interpolation ML, supervised classifier
    bench      experiment configs, seeded studies, CSV artifacts
    checks     the invariant checks of selftest and validate-physics
    cli        command-line front end over bench and checks

em and baselines are peers: both receivers stand on net, and neither
imports the other.
"""

from .baselines import (
    BaselineResult,
    DnnTrainConfig,
    genie_ml,
    pilot_interp_ml,
    qpsk_theory_ser,
    supervised_dnn,
)
from .bench import (
    ExperimentConfig,
    SerStats,
    compute_ser,
    load_config,
    run_fading_estimation,
    run_learning_snapshots,
    run_ser_sweep,
    save_config,
    save_sequence_csv,
)
from .em import (
    EmSchedule,
    FadingEstimate,
    FitResult,
    GroupFit,
    demodulate,
    e_step,
    elbo,
    extract_fading_curve,
    fit,
    m_step,
    pretrain,
)
from .exceptions import ConfigError, NonFiniteError
from .link import (
    Constellation,
    Frame,
    ReceivedSequence,
    build_constellation,
    build_frame,
    snr_to_noise_variance,
    transmit,
)
from .net import SmnModel, init_model
from .physics import (
    ChannelParams,
    DensityTrajectory,
    attenuation_phase_coefficients,
    calibrate_sheath_thickness,
    channel_gain,
    density_trajectory,
    dielectric_coefficient,
    plasma_frequency,
    propagation_vector,
    reference_channel_params,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineResult",
    "ChannelParams",
    "ConfigError",
    "Constellation",
    "DensityTrajectory",
    "DnnTrainConfig",
    "EmSchedule",
    "ExperimentConfig",
    "FadingEstimate",
    "FitResult",
    "Frame",
    "GroupFit",
    "NonFiniteError",
    "ReceivedSequence",
    "SerStats",
    "SmnModel",
    "attenuation_phase_coefficients",
    "build_constellation",
    "build_frame",
    "calibrate_sheath_thickness",
    "channel_gain",
    "compute_ser",
    "demodulate",
    "density_trajectory",
    "dielectric_coefficient",
    "e_step",
    "elbo",
    "extract_fading_curve",
    "fit",
    "genie_ml",
    "init_model",
    "load_config",
    "m_step",
    "pilot_interp_ml",
    "plasma_frequency",
    "pretrain",
    "propagation_vector",
    "qpsk_theory_ser",
    "reference_channel_params",
    "run_fading_estimation",
    "run_learning_snapshots",
    "run_ser_sweep",
    "save_config",
    "save_sequence_csv",
    "snr_to_noise_variance",
    "supervised_dnn",
    "transmit",
]
