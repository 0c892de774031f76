"""Monte Carlo verification harness.

Samples by inverse transform (quantile applied to uniform draws), so any
family exposing a quantile is automatically sampleable and the sampling
distribution matches the quantile used in the covariance formulas
exactly.  Replication r draws from an independent generator seeded with a
counter-mixed offspring of the master seed, so each replication's stream
is unchanged by the presence or absence of the others.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .asymcov import CovMatrix, CovMethod, cov_matrix
from .errors import DomainError, RobustLMomentsError
from .models import CompositeH, DistributionModel, ModelTemplate
from .moments import MomentSpec, population_moment, sorted_sample_moment

__all__ = [
    "SimulationConfig",
    "SimulationReport",
    "splitmix64",
    "replication_seed",
    "run_mc",
    "coverage_check",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_DEV_FLOOR = 1e-4


def splitmix64(state: int) -> int:
    """Finalizer of the splitmix64 generator; a 64-bit bijective mix."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replication_seed(master_seed: int, r: int) -> int:
    """Counter-based child seed: mixing, not sequential state advance."""
    return splitmix64((master_seed + (r + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class SimulationConfig:
    model: DistributionModel
    specs: tuple[MomentSpec, ...]
    n: int
    replications: int
    master_seed: int = 0
    template: ModelTemplate | None = None

    def __post_init__(self):
        if self.n < 10:
            raise DomainError(f"n must be >= 10, got {self.n}")
        if self.replications < 100:
            raise DomainError(
                f"replications must be >= 100, got {self.replications}"
            )


@dataclass(frozen=True)
class SimulationReport:
    empirical_cov: CovMatrix
    theoretical_cov: CovMatrix
    max_rel_dev: float
    per_entry_dev: np.ndarray
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    normality_stat: float
    failures: int
    runtime_ms: float


def _run_replications(config: SimulationConfig, task):
    """Apply ``task(sorted_sample)`` to each replication in index order.

    A replication whose task raises a package error counts as a failure;
    more than 1% failures abort the run with the first cause attached.
    """
    results = []
    causes: list[RobustLMomentsError] = []
    for r in range(config.replications):
        rng = np.random.Generator(
            np.random.PCG64(replication_seed(config.master_seed, r))
        )
        u = rng.random(config.n)
        try:
            results.append(task(np.sort(config.model.quantiles(u))))
        except RobustLMomentsError as exc:
            causes.append(exc)
    if len(causes) > 0.01 * config.replications:
        raise RobustLMomentsError(
            f"{len(causes)}/{config.replications} replications failed; "
            f"first cause: {causes[0]}"
        ) from causes[0]
    return results, len(causes)


def run_mc(config: SimulationConfig) -> SimulationReport:
    """Compare the across-replication covariance of sqrt(n)-scaled moment
    deviations against the formula-based matrix."""
    start = time.perf_counter()
    specs = list(config.specs)
    mu_pop = np.array(
        [
            population_moment(CompositeH(config.model, s.transform), s)
            for s in specs
        ]
    )
    root_n = math.sqrt(config.n)

    def deviations(xs):
        moments = np.array([sorted_sample_moment(xs, s) for s in specs])
        return root_n * (moments - mu_pop)

    rows, failures = _run_replications(config, deviations)
    devs = np.vstack(rows)
    if devs.shape[0] < 2:
        raise DomainError("need at least 2 successful replications for a covariance")

    empirical = np.atleast_2d(np.cov(devs, rowvar=False, ddof=1))
    theoretical = cov_matrix(specs, config.model, CovMethod.AUTO)
    per_entry = np.abs(empirical - theoretical.entries) / np.maximum(
        np.abs(theoretical.entries), _DEV_FLOOR
    )

    centered = devs - devs.mean(axis=0)
    sd = centered.std(axis=0, ddof=0)
    skew = (centered ** 3).mean(axis=0) / sd ** 3
    kurt = (centered ** 4).mean(axis=0) / sd ** 4 - 3.0

    runtime_ms = 1e3 * (time.perf_counter() - start)
    k = len(specs)
    return SimulationReport(
        empirical_cov=CovMatrix(
            empirical, tuple(tuple("monte-carlo" for _ in range(k)) for _ in range(k))
        ),
        theoretical_cov=theoretical,
        max_rel_dev=float(per_entry.max()),
        per_entry_dev=per_entry,
        skewness=skew,
        excess_kurtosis=kurt,
        normality_stat=float(np.max(np.abs(skew))),
        failures=failures,
        runtime_ms=runtime_ms,
    )


def coverage_check(config: SimulationConfig, confidence: float) -> float:
    """Fraction of replications whose normal confidence interval for the
    parameters covers the truth; expected to be close to ``confidence``."""
    from .estimate import fit  # deferred: estimate imports asymcov too

    if not 0.0 < confidence <= 1.0:
        raise DomainError(f"confidence must lie in (0, 1], got {confidence}")
    template = config.template or ModelTemplate.all_free(config.model)
    theta_true = np.array(
        [config.model.params[i] for i in template.free_indices]
    )
    z = math.inf if confidence == 1.0 else float(ndtri(0.5 + confidence / 2.0))
    root_n = math.sqrt(config.n)

    def one(xs):
        result = fit(template, xs, list(config.specs))
        se = np.sqrt(np.diag(result.cov_theta.entries)) / root_n
        return bool(np.all(np.abs(result.theta_hat - theta_true) <= z * se))

    covered, _failures = _run_replications(config, one)
    if not covered:
        raise DomainError("no successful replications")
    return float(np.mean(covered))
