"""RSS-based underwater acoustic localization with unknown transmit power.

A numpy library built around four pieces: an underwater acoustic RSS
channel simulator, distance-based link weighting, an exact joint
position/transmit-power estimator solved as a generalized trust region
subproblem by bisection, and Fisher-information bounds, plus a
deterministic Monte Carlo harness and a small CLI that drives them.
"""

from .channel import (
    Environment,
    MeasurementSet,
    NoiseModel,
    Scenario,
    absorption_coefficient,
    generate_measurements,
    noiseless_rss,
    sample_noise,
)
from .crlb import FimReport, c_vector, fim_known_power, fim_unknown_power, hessian_loglik, residual_f, residuals
from .errors import (
    ConfigError,
    ConvergenceError,
    GeometryError,
    InfeasibleProblemError,
    NumericalError,
    SingularMatrixError,
    UwlocError,
)
from .experiments import (
    ExperimentConfig,
    ResultRecord,
    locate,
    measure_runtime,
    run_sweep,
    run_trial,
    trial_rng,
    write_csv,
)
from .gtrs import (
    Estimate,
    GtrsSystem,
    build_known_power_system,
    build_system,
    extract_estimate,
    lambda_interval,
    phi,
    solve,
    solve_known_power,
)
from .weighting import deviation_diagnostic, link_weights

__version__ = "0.1.0"

__all__ = [
    "Environment",
    "MeasurementSet",
    "NoiseModel",
    "Scenario",
    "absorption_coefficient",
    "generate_measurements",
    "noiseless_rss",
    "sample_noise",
    "FimReport",
    "c_vector",
    "fim_known_power",
    "fim_unknown_power",
    "hessian_loglik",
    "residual_f",
    "residuals",
    "ConfigError",
    "ConvergenceError",
    "GeometryError",
    "InfeasibleProblemError",
    "NumericalError",
    "SingularMatrixError",
    "UwlocError",
    "ExperimentConfig",
    "ResultRecord",
    "locate",
    "measure_runtime",
    "run_sweep",
    "run_trial",
    "trial_rng",
    "write_csv",
    "Estimate",
    "GtrsSystem",
    "build_known_power_system",
    "build_system",
    "extract_estimate",
    "lambda_interval",
    "phi",
    "solve",
    "solve_known_power",
    "deviation_diagnostic",
    "link_weights",
]
