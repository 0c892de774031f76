"""Monte Carlo verification harness.

Samples by inverse transform (quantile applied to uniform draws), so any
family exposing a quantile is automatically sampleable and the sampling
distribution matches the quantile used in the covariance formulas
exactly.  Replication r draws from an independent generator seeded with a
counter-mixed offspring of the master seed, so each replication's stream
is unchanged by the presence or absence of the others.

Each replication sorts its uniforms and only then applies the quantile.
A quantile is nondecreasing, so Q(sort(u)) holds the same floats as
sort(Q(u)): the quantile maps every draw to the same value either way,
and sorting a multiset of floats has one result.  ``run_mc`` therefore
evaluates the quantile only on the order statistics some moment reads,
the union [L, H) of the specs' windows, once per replication, and each
spec transforms its own slice of that array.  The moments, and so the
report, are bitwise those of quantile-then-sort.  The trimmed tails are
never passed to the quantile; the quantile's domain check still sees the
whole draw through its extremes u[0] and u[-1].

Where the model is one of the package's families and every transform one
of its own, ``run_mc`` draws its replications in blocks of consecutive
rows, about 0.5 MiB each (6 rows at n = 1e4).  Each row is seeded and
filled as its replication alone would be, and sorting the block along its
rows gives each row the floats of its own sort.  The block's quantiles,
transforms and moments take one numpy pass each, every row summed on its
own.  Those passes release the GIL for a whole block, so the blocks run
on one thread per usable core, joined before ``run_mc`` returns; the
process's CPU affinity (``taskset``) sets the cores.  A user family or a
custom transform may run Python code on every value, holding the GIL, and
a custom transform ran about 15% slower in blocks than one row at a time.
Such a run, and every ``coverage_check``, whose fits hold the GIL, draws
one replication at a time on the calling thread.  The report is bitwise
the same either way.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .asymcov import CovMatrix, CovMethod, cov_matrix
from .errors import DomainError, RobustLMomentsError
from .estimate import _check_spec_count, fit
from .models import _FAMILIES, _TRANSFORMS, DistributionModel, ModelTemplate, _check_unit
from .moments import (
    _FLOOR_SLACK,
    MomentSpec,
    _check_one_mode,
    _moment_errstate,
    _window,
    _window_moment,
    floor_count,
    population_moment,
)

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
# The bytes of uniforms in one block of replications: 6 rows at n = 1e4.
_BLOCK_BYTES = 1 << 19


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
        _check_one_mode(self.specs)
        for name in ("n", "replications", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n < 10:
            raise DomainError(f"n must be >= 10, got {self.n}")
        if self.replications < 100:
            raise DomainError(
                f"replications must be >= 100, got {self.replications}"
            )
        # The template must describe the model the draws come from: its
        # family, with every fixed value at the model's parameter.
        template = self.template
        if template is not None and (
            template.cls is not type(self.model)
            or any(v not in (None, p) for v, p in zip(template.values, self.model.params))
        ):
            shown = ",".join("?" if v is None else f"{v:g}" for v in template.values)
            raise DomainError(
                f"template {template.cls.family}({shown}) does not describe the "
                f"model {self.model}"
            )
        # A positive proportion that trims nothing at this n makes the
        # sample moment estimate a different functional from the formulas.
        for i, spec in enumerate(self.specs):
            for name, p in (("a", spec.a), ("b", spec.b)):
                if p > 0 and floor_count(self.n, p) == 0:
                    raise DomainError(
                        f"coordinate {i}: {name}={p} trims no observation of "
                        f"n={self.n}; n >= {_smallest_trimming_n(p)} trims at "
                        f"least one"
                    )


def _smallest_trimming_n(p: float) -> str:
    """The smallest n with floor_count(n, p) >= 1, for 0 < p < 1, as text."""
    guess = (1.0 - _FLOOR_SLACK) / p
    if not guess < 2.0**53:  # n * p cannot resolve single steps of n
        return f"{guess:.3g}"
    n = math.ceil(guess)  # within one of the answer; n * p rounds
    if floor_count(n - 1, p) >= 1:
        n -= 1
    elif floor_count(n, p) < 1:
        n += 1
    return str(n)


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


def _usable_cores() -> int:
    """The cores this process may run on (``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_replications(config: SimulationConfig, task, rows: int, workers: int):
    """Apply ``task(block)`` to blocks of up to ``rows`` consecutive
    replications, each row a replication's ascending uniforms, on up to
    ``workers`` threads, and return one result per successful replication,
    in index order.  ``task`` returns one result per row of its block, and
    must not keep the block: each thread refills one buffer for all its
    blocks, whose pages so stay mapped (a block allocated afresh took about
    250 page faults at n = 1e4).

    Each row is seeded and filled as its replication alone would be, and
    sorting the block along its rows gives every row the floats of its own
    sort.  One endpoint check covers the block's first and last columns.
    Where that check or the task raises a package error, the block is
    redone one row at a time, so that a failing replication fails alone,
    with its own cause.  A failure is counted; more than 1% failures abort
    the run with the first cause (the lowest index) attached.
    """
    n, count = config.n, config.replications
    ends = config.model._infinite_ends

    def attempt(block):
        # What ``quantiles`` checks on the whole draw, through its
        # extremes, before the task sees part of it.
        _check_unit(block[:, [0, -1]], ends)
        return list(task(block))

    buffers = threading.local()

    def run_block(first: int):
        if not hasattr(buffers, "block"):
            buffers.block = np.empty((rows, n))
        block = buffers.block[: count - first]
        for r, row in enumerate(block, start=first):
            rng = np.random.Generator(
                np.random.PCG64(replication_seed(config.master_seed, r))
            )
            rng.random(out=row)
        block.sort(axis=1)
        try:
            return attempt(block), []
        except RobustLMomentsError as exc:
            if len(block) == 1:
                return [], [exc]
        results, causes = [], []
        for i in range(len(block)):
            try:
                results += attempt(block[i : i + 1])
            except RobustLMomentsError as exc:
                causes.append(exc)
        return results, causes

    firsts = range(0, count, rows)
    workers = min(workers, len(firsts))
    if workers > 1:
        # Imported here, so that importing the package does not load the
        # executor, which a run on the calling thread never uses.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            outcomes = list(pool.map(run_block, firsts))
    else:
        outcomes = [run_block(first) for first in firsts]
    results = [result for done, _ in outcomes for result in done]
    causes = [cause for _, failed in outcomes for cause in failed]
    if len(causes) > 0.01 * count:
        raise RobustLMomentsError(
            f"{len(causes)}/{count} replications failed; "
            f"first cause: {causes[0]}"
        ) from causes[0]
    return results, len(causes)


def _numpy_only(config: SimulationConfig) -> bool:
    """Whether the model's quantile and every spec's transform are the
    package's own array forms: numpy passes, which release the GIL.  A user
    family or a custom transform may run Python code on every value."""
    return type(config.model) in _FAMILIES.values() and all(
        type(s.transform) in _TRANSFORMS.values() for s in config.specs
    )


def run_mc(config: SimulationConfig) -> SimulationReport:
    """Compare the across-replication covariance of sqrt(n)-scaled moment
    deviations against the formula-based matrix.  For the package's own
    families and transforms it runs blocks of replications on every usable
    core, else one replication at a time on the calling thread; the report
    is bitwise the same."""
    start = time.perf_counter()
    specs = list(config.specs)
    # First, so that a divergent covariance fails before any draw.
    theoretical = cov_matrix(specs, config.model, CovMethod.AUTO)
    mu_pop = np.array([population_moment(config.model, s) for s in specs])
    n = config.n
    root_n = math.sqrt(n)
    windows = [_window(n, s) for s in specs]
    lo_all = min(lo for lo, _ in windows)
    hi_all = max(hi for _, hi in windows)
    quantiles = config.model.quantiles

    def deviations(block):
        # numpy's error state is per thread, so each block enters its own.
        with _moment_errstate():
            xs = quantiles(block[:, lo_all:hi_all])  # order statistics lo_all .. hi_all-1
            moments = np.stack(
                [
                    _window_moment(
                        s.transform.values(xs[:, lo - lo_all : hi - lo_all]), lo, hi, n, s.mode
                    )
                    for s, (lo, hi) in zip(specs, windows)
                ],
                axis=-1,
            )
        return root_n * (moments - mu_pop)

    if _numpy_only(config):
        rows, workers = max(1, _BLOCK_BYTES // (8 * n)), _usable_cores()
    else:
        rows, workers = 1, 1
    results, failures = _run_replications(config, deviations, rows, workers)
    devs = np.vstack(results)
    if devs.shape[0] < 2:
        raise DomainError("need at least 2 successful replications for a covariance")

    empirical = np.atleast_2d(np.cov(devs, rowvar=False, ddof=1))
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
    """Fraction of replications in which every free parameter's marginal
    normal interval, theta_hat +- z se at level ``confidence``, covers its
    true value at once.

    With one free parameter that event has nominal level ``confidence``.
    With p >= 2 it is the rectangle of the marginal intervals, whose
    nominal level is below ``confidence`` (about confidence^p for nearly
    uncorrelated estimates), so the fraction is expected to fall short
    of ``confidence`` even when every interval is right."""
    if not 0.0 < confidence <= 1.0:
        raise DomainError(f"confidence must lie in (0, 1], got {confidence}")
    template = config.template or ModelTemplate.all_free(config.model)
    _check_spec_count(template, config.specs)
    theta_true = np.array(
        [config.model.params[i] for i in template.free_indices]
    )
    z = math.inf if confidence == 1.0 else float(ndtri(0.5 + confidence / 2.0))
    root_n = math.sqrt(config.n)

    def one(xs):
        result = fit(template, xs, list(config.specs))
        se = np.sqrt(np.diag(result.cov_theta.entries)) / root_n
        return bool(np.all(np.abs(result.theta_hat - theta_true) <= z * se))

    # One replication at a time on the calling thread: a fit holds the GIL
    # for most of its time.
    covered, _failures = _run_replications(
        config, lambda block: [one(xs) for xs in config.model.quantiles(block)], 1, 1
    )
    if not covered:
        raise DomainError("no successful replications")
    return float(np.mean(covered))
