"""Spectral Galerkin truncations of 2D incompressible Euler with enstrophy-Gibbs ensembles.

The package is organized by role:

- spectral: positive-mode fields, Sobolev norms, grid evaluation, local metrics
- drift: the quadratic Galerkin drift (triad sum and pseudo-spectral oracle)
- flow: time integration with conservation tracking
- gibbs: counter-keyed Gaussian sampling of the enstrophy-Gibbs measures
- harness: Monte Carlo experiments (invariance, moments, dyadic coupling, continuity)
- cli: reproducible command-line runs with manifests and determinism hashes
"""

from ._meta import VERSION as __version__
from .drift import (
    alpha,
    drift,
    jacobian_trace_estimate,
    quadratic_derivative,
)
from .flow import IntegratorConfig, Trajectory, evolve
from .gibbs import (
    GibbsParams,
    RngStream,
    field_covariance,
    log_density_ratio,
    sample,
    variance_oracle,
)
from .harness import (
    ObservableSpec,
    cauchy_scan,
    continuity_probe,
    default_observables,
    ks_one_sample,
    ks_two_sample,
    moment_scan,
    run_invariance,
)
from .spectral import (
    Mode,
    SobolevOrder,
    SpectralField,
    cross_period_distance,
    energy,
    enstrophy,
    evaluate_grid,
    is_positive,
    local_distance,
    mode_box,
    mode_count,
    sobolev_norm,
)

__all__ = [
    "GibbsParams",
    "IntegratorConfig",
    "Mode",
    "ObservableSpec",
    "RngStream",
    "SobolevOrder",
    "SpectralField",
    "Trajectory",
    "alpha",
    "cauchy_scan",
    "continuity_probe",
    "cross_period_distance",
    "default_observables",
    "drift",
    "energy",
    "enstrophy",
    "evaluate_grid",
    "evolve",
    "field_covariance",
    "is_positive",
    "jacobian_trace_estimate",
    "ks_one_sample",
    "ks_two_sample",
    "local_distance",
    "log_density_ratio",
    "mode_box",
    "mode_count",
    "moment_scan",
    "quadratic_derivative",
    "run_invariance",
    "sample",
    "sobolev_norm",
    "variance_oracle",
    "__version__",
]
