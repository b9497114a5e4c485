"""High-dimensional minimum-variance portfolios.

Analytic saddle-point theory of estimated minimum-variance portfolios in
the regime where the number of assets N and the sample size T grow with a
fixed ratio r = N/T, with or without a ban on short positions, plus exact
finite-size optimizers and a Monte Carlo harness that verifies the theory.
"""

__version__ = "0.1.0"

from .errors import (
    ActiveSetError,
    CovarianceError,
    CriticalPhaseError,
    NoConvergenceError,
    PhaseBoundaryError,
)
from .mc import (
    Histogram,
    PointSummary,
    SampleMetrics,
    SweepSummary,
    TrialConfig,
    generate_returns,
    run_trial,
    sweep,
    weight_histogram,
)
from .qp import (
    CovMatrix,
    QpResult,
    brute_force_noshort,
    kkt_residual,
    min_variance_equality,
    min_variance_noshort,
)
from .special import norm_cdf, norm_cdf_int, norm_pdf
from .theory import (
    AssetUniverse,
    CriticalPoint,
    OptimalPortfolio,
    RegularizerParams,
    ReplicaSolution,
    critical_asymptotics,
    free_energy_functional,
    general_l1_solve,
    noshort_lambda,
    noshort_solution,
    stationarity_residual,
    true_optimum,
    unconstrained_solution,
)
from .weights import (
    WeightMixture,
    build_mixture,
    sample_weights,
)

__all__ = [
    "__version__",
    "ActiveSetError",
    "CovarianceError",
    "CriticalPhaseError",
    "NoConvergenceError",
    "PhaseBoundaryError",
    "AssetUniverse",
    "RegularizerParams",
    "ReplicaSolution",
    "OptimalPortfolio",
    "CriticalPoint",
    "true_optimum",
    "unconstrained_solution",
    "noshort_lambda",
    "noshort_solution",
    "general_l1_solve",
    "free_energy_functional",
    "stationarity_residual",
    "critical_asymptotics",
    "WeightMixture",
    "build_mixture",
    "sample_weights",
    "CovMatrix",
    "QpResult",
    "min_variance_equality",
    "min_variance_noshort",
    "kkt_residual",
    "brute_force_noshort",
    "TrialConfig",
    "SampleMetrics",
    "PointSummary",
    "SweepSummary",
    "Histogram",
    "generate_returns",
    "run_trial",
    "sweep",
    "weight_histogram",
    "norm_pdf",
    "norm_cdf",
    "norm_cdf_int",
]
