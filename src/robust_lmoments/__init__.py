"""Robust L-statistic estimation.

Trimmed and winsorized moments of transformed order statistics, their
asymptotic variance-covariance matrix through several interchangeable
evaluation routes, moment-matching parameter estimation with
delta-method standard errors, cross-form equivalence audits, and a
deterministic Monte Carlo verification harness.
"""

from .asymcov import CovMatrix, CovMethod, cov_matrix, sigma_pair
from .audit import (
    AuditCase,
    AuditResult,
    run_mtm_audit,
    run_mwm_audit,
    run_mwm_equal_props_audit,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    EmptyWindowError,
    OrderingError,
    RobustLMomentsError,
    SampleFormatError,
    SingularJacobianError,
    SingularityError,
    UnboundedQuantileError,
)
from .estimate import FitResult, delta_cov, fit, moment_jacobian
from .models import (
    CompositeH,
    CustomTransform,
    DistributionModel,
    Exponential,
    HTransform,
    Identity,
    Log,
    Lognormal,
    ModelTemplate,
    Normal,
    Pareto,
    Power,
    Shifted,
    Uniform,
    parse_model,
    parse_model_template,
    parse_transform,
    register_transform,
)
from .moments import (
    Mode,
    MomentSpec,
    floor_count,
    load_sample,
    population_moment,
    sample_moment,
)
from .simulate import (
    SimulationConfig,
    SimulationReport,
    coverage_check,
    replication_seed,
    run_mc,
)

__version__ = "0.1.0"

__all__ = [
    "CovMatrix",
    "CovMethod",
    "cov_matrix",
    "sigma_pair",
    "AuditCase",
    "AuditResult",
    "run_mtm_audit",
    "run_mwm_audit",
    "run_mwm_equal_props_audit",
    "ConvergenceError",
    "DivergenceError",
    "DomainError",
    "EmptyWindowError",
    "OrderingError",
    "RobustLMomentsError",
    "SampleFormatError",
    "SingularJacobianError",
    "SingularityError",
    "UnboundedQuantileError",
    "FitResult",
    "delta_cov",
    "fit",
    "moment_jacobian",
    "CompositeH",
    "CustomTransform",
    "DistributionModel",
    "Exponential",
    "HTransform",
    "Identity",
    "Log",
    "Lognormal",
    "ModelTemplate",
    "Normal",
    "Pareto",
    "Power",
    "Shifted",
    "Uniform",
    "parse_model",
    "parse_model_template",
    "parse_transform",
    "register_transform",
    "Mode",
    "MomentSpec",
    "floor_count",
    "load_sample",
    "population_moment",
    "sample_moment",
    "SimulationConfig",
    "SimulationReport",
    "coverage_check",
    "replication_seed",
    "run_mc",
    "__version__",
]
