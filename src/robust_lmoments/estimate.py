"""Moment-matching parameter estimation and delta-method covariance.

Solves mu_j(theta) = mu_hat_j for the free parameters of a family by a
damped Newton iteration with a numerically differenced Jacobian, then
propagates the moment-space covariance matrix to parameter space via the
inverse Jacobian sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymcov import CovMatrix, cov_matrix
from .errors import (
    ConvergenceError,
    DomainError,
    RobustLMomentsError,
    SingularJacobianError,
)
from .models import CompositeH, DistributionModel, ModelTemplate
from .moments import MomentSpec, population_moment, sample_moment

__all__ = ["FitResult", "fit", "delta_cov", "moment_jacobian"]

MAX_ITERATIONS = 200
RESIDUAL_TOL = 1e-9
_JACOBIAN_STEP = 1e-6
_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class FitResult:
    model: DistributionModel
    theta_hat: np.ndarray
    mu_hat: np.ndarray
    cov_mu: CovMatrix
    cov_theta: CovMatrix
    iterations: int
    residual_norm: float
    non_unique: bool = False
    alt_theta: np.ndarray | None = field(default=None)


def _population_mu(template: ModelTemplate, theta, specs) -> np.ndarray:
    model = template.bind(theta)
    return np.array(
        [
            population_moment(CompositeH(model, s.transform), s)
            for s in specs
        ]
    )


def _residual(template, theta, specs, mu_hat) -> np.ndarray:
    mu = _population_mu(template, theta, specs)
    out = np.empty_like(mu)
    for j, (m, mh) in enumerate(zip(mu, mu_hat)):
        out[j] = m / mh - 1.0 if abs(mh) > 1e-12 else m - mh
    return out


def _in_domain(template: ModelTemplate, theta) -> bool:
    for value, (lo, hi) in zip(theta, template.free_bounds()):
        if not lo < value < hi:
            return False
    # family-level constraints (e.g. uniform hi > lo) surface on bind
    try:
        template.bind(theta)
    except DomainError:
        return False
    return True


def _initial_guesses(template: ModelTemplate, sample) -> list[np.ndarray]:
    """The family's method-of-moments start, plus its default member."""
    cls = template.cls
    full = cls.moment_start(np.asarray(sample, dtype=float))
    try:
        default = cls().params
    except TypeError:  # a family whose parameters have no defaults
        default = full
    free = template.free_indices
    starts = [np.array([full[i] for i in free], dtype=float)]
    alt = np.array([default[i] for i in free], dtype=float)
    if not np.allclose(alt, starts[0]):
        starts.append(alt)
    return [s for s in starts if _in_domain(template, s)] or [starts[0]]


def moment_jacobian(template: ModelTemplate, theta, specs) -> np.ndarray:
    """Central-difference Jacobian d mu_i / d theta_j at theta."""
    theta = np.asarray(theta, dtype=float)
    k = theta.size
    jac = np.zeros((len(specs), k))
    for j in range(k):
        step = _JACOBIAN_STEP * (1.0 + abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += step
        dn[j] -= step
        if not _in_domain(template, up):
            up = theta
        if not _in_domain(template, dn):
            dn = theta
        if np.array_equal(up, dn):
            raise DomainError(f"cannot difference parameter {j} inside its domain")
        jac[:, j] = (
            _population_mu(template, up, specs)
            - _population_mu(template, dn, specs)
        ) / (up[j] - dn[j])
    return jac


def _newton(template, specs, mu_hat, theta0):
    theta = np.asarray(theta0, dtype=float)
    r = _residual(template, theta, specs, mu_hat)
    for iteration in range(1, MAX_ITERATIONS + 1):
        if float(np.max(np.abs(r))) <= RESIDUAL_TOL:
            return theta, iteration - 1, float(np.max(np.abs(r)))
        jac = moment_jacobian(template, theta, specs)
        scale = np.where(np.abs(mu_hat) > 1e-12, mu_hat, 1.0)
        jac_r = jac / scale[:, None]
        try:
            step = np.linalg.solve(jac_r, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                "Jacobian of the moment map is singular", condition=math.inf
            ) from exc
        # damped update with projection back into the parameter domain
        lam = 1.0
        norm0 = float(np.linalg.norm(r))
        for _ in range(40):
            cand = theta + lam * step
            if _in_domain(template, cand):
                try:
                    r_cand = _residual(template, cand, specs, mu_hat)
                except RobustLMomentsError:
                    r_cand = None
                if r_cand is not None and float(np.linalg.norm(r_cand)) < norm0:
                    theta, r = cand, r_cand
                    break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"line search stalled at iteration {iteration} (theta={theta})"
            )
    raise ConvergenceError(f"no convergence after {MAX_ITERATIONS} iterations")


def _bisect_1d(template, specs, mu_hat, theta0):
    """Fallback for one free parameter: bracket then bisect the residual."""

    def f(t):
        return _residual(template, [t], specs, mu_hat)[0]

    lo_bound, hi_bound = template.free_bounds()[0]
    t0 = float(theta0[0])
    lo = hi = t0
    f0 = f(t0)
    step = max(abs(t0), 1.0)
    for _ in range(80):
        lo = max(lo - step, lo_bound + 1e-12) if math.isfinite(lo_bound) else lo - step
        hi = min(hi + step, hi_bound - 1e-12) if math.isfinite(hi_bound) else hi + step
        try:
            flo, fhi = f(lo), f(hi)
        except RobustLMomentsError:
            step *= 0.5
            continue
        if flo * fhi <= 0:
            break
        step *= 1.6
    else:
        raise ConvergenceError("could not bracket a root for the single parameter")
    if flo * f0 <= 0:
        hi, fhi = t0, f0
    elif f0 * fhi <= 0:
        lo, flo = t0, f0
    for iterations in range(1, 200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= RESIDUAL_TOL:
            return np.array([mid]), iterations, abs(fm)
        if hi - lo < 1e-14 * (1 + abs(mid)):
            break
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    # A sign change that no point of the bracket resolves is rounding
    # noise in the residual, not a root.
    raise ConvergenceError(
        f"bisection collapsed at theta={mid!r} with residual {abs(fm):.3g} "
        f"above {RESIDUAL_TOL:g}; no root of the single parameter"
    )


def _check_spec_count(template: ModelTemplate, specs) -> None:
    """Moment matching needs one spec per free parameter, and at least one."""
    k = template.free_count
    if k == 0:
        raise DomainError("template has no free parameters")
    if len(specs) != k:
        raise DomainError(
            f"need exactly {k} moment specs for {k} free parameters, got {len(specs)}"
        )


def fit(
    template: ModelTemplate | DistributionModel,
    sample,
    specs: list[MomentSpec],
) -> FitResult:
    """Estimate the free parameters by matching sample and population
    moments, with asymptotic covariances in moment and parameter space."""
    if isinstance(template, DistributionModel):
        template = ModelTemplate.all_free(template)
    _check_spec_count(template, specs)
    k = template.free_count
    mu_hat = np.array([sample_moment(sample, s) for s in specs])

    starts = _initial_guesses(template, sample)
    solutions = []
    failure: Exception | None = None
    for start in starts:
        try:
            solutions.append(_newton(template, specs, mu_hat, start))
        except (ConvergenceError, SingularJacobianError, DomainError) as exc:
            failure = exc
    if not solutions and k == 1:
        solutions.append(_bisect_1d(template, specs, mu_hat, starts[0]))
    if not solutions:
        raise failure if failure is not None else ConvergenceError("fit failed")

    theta, iterations, residual = solutions[0]
    non_unique = False
    alt = None
    for other, _, _ in solutions[1:]:
        if not np.allclose(other, theta, rtol=1e-4, atol=1e-8):
            non_unique = True
            alt = other
    model = template.bind(theta)
    cov_mu = cov_matrix(specs, model)
    cov_theta = delta_cov(model, specs, cov_mu, template=template, theta=theta)
    return FitResult(
        model=model,
        theta_hat=theta,
        mu_hat=mu_hat,
        cov_mu=cov_mu,
        cov_theta=cov_theta,
        iterations=iterations,
        residual_norm=float(residual),
        non_unique=non_unique,
        alt_theta=alt,
    )


def delta_cov(
    model: DistributionModel,
    specs: list[MomentSpec],
    cov_mu: CovMatrix,
    *,
    template: ModelTemplate | None = None,
    theta=None,
) -> CovMatrix:
    """Parameter-space covariance D^-1 Sigma_mu D^-T with D = d mu / d theta."""
    if template is None:
        template = ModelTemplate.all_free(model)
        theta = np.asarray(model.params, dtype=float)
    jac = moment_jacobian(template, theta, specs)
    condition = float(np.linalg.cond(jac))
    if not math.isfinite(condition) or condition > _MAX_CONDITION:
        raise SingularJacobianError(
            f"moment-map Jacobian is numerically singular (cond={condition:.3e})",
            condition=condition,
        )
    inv = np.linalg.inv(jac)
    sigma = inv @ cov_mu.entries @ inv.T
    sigma = 0.5 * (sigma + sigma.T)
    methods = tuple(
        tuple("delta" for _ in range(sigma.shape[1])) for _ in range(sigma.shape[0])
    )
    return CovMatrix(sigma, methods)
