"""Spectral Galerkin simulation of the damped stochastic nonlinear
Schrodinger equation, with mass/energy diagnostics and invariant-measure
experiments."""

from .spectral import (
    BASIS_KINDS,
    BasisError,
    EigenBasis,
    SpectralField,
    apply_frac_power,
    make_basis,
)
from .operators import (
    G_VARIANTS,
    LinearNoiseB,
    OperatorError,
    StateNoiseG,
    antiderivative_F,
    apply_F,
    make_noise_B,
    make_noise_G,
    sharp_projector,
    smoothed_projector,
    stratonovich_correction,
)
from .dynamics import (
    SCHEMES,
    BlowUpError,
    BrownianDriver,
    ConfigurationError,
    EnsembleReport,
    GalerkinOps,
    SdeConfig,
    TrajectoryRecord,
    build_operators,
    default_initial,
    default_initial_family,
    drift,
    scaled_initial_factory,
    simulate,
    simulate_ensemble,
    state_functionals,
)
from .observables import (
    ContractionReport,
    SupermartingaleTrace,
    contraction_diagnostic,
    mass_budget_residual,
    supermartingale_trace,
)
from .ergodicity import (
    DecayRateFit,
    FingerprintReport,
    decay_rate_fit,
    invariant_fingerprint,
    radius_indicator,
    time_average,
)
from .config import (
    ConfigError,
    ConstantsReport,
    RunManifest,
    compute_constants,
    config_checksum,
    parse_config,
)

__version__ = "0.1.0"
