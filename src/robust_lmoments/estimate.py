"""Moment-matching parameter estimation and delta-method covariance.

Solves mu_j(theta) = mu_hat_j for the free parameters of a family by a
damped Newton iteration, then propagates the moment-space covariance
matrix to parameter space via the inverse Jacobian sandwich.

Each evaluation of the moment map gives the moments and their analytic
Jacobian D = d mu / d theta together: mu = int h(Q(u; theta)) du and
D = int h'(Q) dQ/dtheta du over each window, closed by the window rule of
``population_moment`` (``moments._close_window``), all from one batched
quadrature.  The D of the accepted Newton point drives the next step, and
the D at the root drives the sandwich.  A spec whose window reaches an
unbounded tail of the family takes the scalar QUADPACK moment and its
central difference instead: the batched engine does not extrapolate
towards an endpoint singularity.  Both quadratures are purely relative, so
moments, D and covariances scale with the data; so does the residual's
floor, the least power of two above the mean |h(X)| over a spec's window.
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
from .models import DistributionModel, ModelTemplate, central_difference
from .moments import (
    MomentSpec,
    _ascending,
    _close_window,
    _window,
    _window_moment,
    population_moment,
)
from .quadrature import integrate_batch

__all__ = ["FitResult", "fit", "delta_cov", "moment_jacobian"]

MAX_ITERATIONS = 200
RESIDUAL_TOL = 1e-9
_MAX_CONDITION = 1e12
# Starting panels per moment-map integral: a window of a smooth composite
# then finishes in one round of the batched engine.
_MAP_PANELS = 4


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


def _batched_moments(model: DistributionModel, free, specs) -> tuple[np.ndarray, np.ndarray]:
    """Moments and Jacobian columns of specs whose windows the quantile is
    finite on, from one ``integrate_batch`` call: per spec, one problem for
    h(Q) and one for h'(Q) dQ/dtheta_j per free parameter j."""
    free = np.asarray(free)
    width = 1 + free.size

    def integrand(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        spec_of, column = np.divmod(rows, width)
        for s, spec in enumerate(specs):
            mine = np.flatnonzero(spec_of == s)
            x = model.quantiles(u[mine])
            moment = column[mine] == 0
            out[mine[moment]] = spec.transform.values(x[moment])
            grad = mine[~moment]
            if grad.size:
                dq = model.quantile_grads(u[grad])
                pick = free[column[grad] - 1], np.arange(grad.size)
                out[grad] = spec.transform.derivs(x[~moment]) * dq[pick]
        return out

    lo = np.repeat([spec.a for spec in specs], width)
    hi = np.repeat([spec.b_bar for spec in specs], width)
    table = integrate_batch(integrand, lo, hi, panels=_MAP_PANELS).reshape(-1, width)
    for s, spec in enumerate(specs):

        def at(t: np.ndarray) -> np.ndarray:  # spec s's integrand row at each point
            rows = np.tile(s * width + np.arange(width), t.size)
            return integrand(np.repeat(t, width), rows).reshape(t.size, width)

        table[s] = _close_window(spec, model, table[s], at)
    return table[:, 0], table[:, 1:]


def _scalar_moments(template: ModelTemplate, theta, specs) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK moments of specs whose windows reach an unbounded tail, and
    their central difference in the free parameters."""

    def moments(t) -> np.ndarray:
        model = template.bind(t)
        return np.array([population_moment(model, s) for s in specs])

    jac = central_difference(moments, template, theta)
    return moments(theta), jac.T


def _moment_map(template: ModelTemplate, theta, specs) -> tuple[np.ndarray, np.ndarray]:
    """Population moments mu(theta) of ``specs`` and their Jacobian
    d mu_i / d theta_j in the free parameters."""
    theta = np.asarray(theta, dtype=float)
    mu = np.empty(len(specs))
    jac = np.empty((len(specs), theta.size))
    finite = np.array([template.cls.bounded_on(s.a, s.b) for s in specs])
    batched, scalar = np.flatnonzero(finite), np.flatnonzero(~finite)
    if batched.size:
        mu[batched], jac[batched] = _batched_moments(
            template.bind(theta), template.free_indices, [specs[i] for i in batched]
        )
    if scalar.size:
        mu[scalar], jac[scalar] = _scalar_moments(template, theta, [specs[i] for i in scalar])
    return mu, jac


def _evaluate(template, theta, specs, target):
    """At theta: the residual (mu - mu_hat) / s, as mu / s - mu_hat / s so that
    it is bitwise mu / mu_hat - 1 where s = mu_hat, and the moment Jacobian;
    ``target`` is (mu_hat, s)."""
    mu_hat, s = target
    mu, jac = _moment_map(template, theta, specs)
    return mu / s - mu_hat / s, jac


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
    return [s for s in starts if template.admits(s)] or [starts[0]]


def moment_jacobian(template: ModelTemplate, theta, specs) -> np.ndarray:
    """Jacobian d mu_i / d theta_j of the moment map at theta."""
    return _moment_map(template, theta, specs)[1]


def _newton(template, specs, target, theta0):
    """Damped Newton from theta0 toward ``target`` = (mu_hat, residual
    scales): (root, iterations, residual, Jacobian at the root)."""
    theta = np.asarray(theta0, dtype=float)
    r, jac = _evaluate(template, theta, specs, target)
    for iteration in range(1, MAX_ITERATIONS + 1):
        if float(np.max(np.abs(r))) <= RESIDUAL_TOL:
            return theta, iteration - 1, float(np.max(np.abs(r))), jac
        try:
            step = np.linalg.solve(jac / target[1][:, None], -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                "Jacobian of the moment map is singular", condition=math.inf
            ) from exc
        # damped update with projection back into the parameter domain
        lam = 1.0
        norm0 = float(np.linalg.norm(r))
        for _ in range(40):
            cand = theta + lam * step
            if template.admits(cand):
                try:
                    r_cand, jac_cand = _evaluate(template, cand, specs, target)
                except RobustLMomentsError:
                    r_cand = None
                if r_cand is not None and float(np.linalg.norm(r_cand)) < norm0:
                    theta, r, jac = cand, r_cand, jac_cand
                    break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"line search stalled at iteration {iteration} (theta={theta})"
            )
    raise ConvergenceError(f"no convergence after {MAX_ITERATIONS} iterations")


def _bisect_1d(template, specs, target, theta0):
    """Fallback for one free parameter: bracket then bisect the residual."""

    def f(t):
        return _evaluate(template, [t], specs, target)[0][0]

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
    xs = _ascending(sample)  # validated and sorted once for every spec
    mu_hat, units = np.empty(len(specs)), np.empty(len(specs))
    for j, s in enumerate(specs):
        lo, hi = _window(xs.size, s)
        h = s.transform.values(xs[lo:hi])  # once, for the moment and its unit
        mu_hat[j] = _window_moment(h, lo, hi, xs.size, s.mode)
        units[j] = math.ldexp(1.0, math.frexp(np.abs(h).mean())[1])
    # each residual relative to mu_hat, or absolute in its unit where mu_hat ~ 0
    target = mu_hat, np.where(np.abs(mu_hat) > 1e-12 * units, mu_hat, units)

    starts = _initial_guesses(template, sample)
    solutions = []
    failure: RobustLMomentsError | None = None
    # A start that fails for a package reason (a domain, divergence or
    # convergence error) is one failed start; the others still run.
    for start in starts:
        try:
            solutions.append(_newton(template, specs, target, start))
        except RobustLMomentsError as exc:
            failure = exc
    if not solutions and template.free_count == 1:
        theta, iterations, residual = _bisect_1d(template, specs, target, starts[0])
        jac = _moment_map(template, theta, specs)[1]
        solutions.append((theta, iterations, residual, jac))
    if not solutions:
        raise failure

    theta, iterations, residual, jac = solutions[0]
    others = [t for t, *_ in solutions[1:] if not np.allclose(t, theta, rtol=1e-4, atol=1e-8)]
    model = template.bind(theta)
    cov_mu = cov_matrix(specs, model)
    cov_theta = _sandwich(jac, cov_mu)
    return FitResult(
        model=model,
        theta_hat=theta,
        mu_hat=mu_hat,
        cov_mu=cov_mu,
        cov_theta=cov_theta,
        iterations=iterations,
        residual_norm=float(residual),
        non_unique=bool(others),
        alt_theta=others[-1] if others else None,
    )


def delta_cov(
    model: DistributionModel, specs: list[MomentSpec], cov_mu: CovMatrix
) -> CovMatrix:
    """Parameter-space covariance D^-1 Sigma_mu D^-T with D = d mu / d theta,
    for one spec per parameter of ``model`` and a k x k ``cov_mu``."""
    template = ModelTemplate.all_free(model)
    _check_spec_count(template, specs)
    k = len(specs)
    if not isinstance(cov_mu, CovMatrix):
        raise DomainError(f"cov_mu must be a CovMatrix, got {type(cov_mu).__name__}")
    if cov_mu.entries.shape != (k, k):
        raise DomainError(f"cov_mu must be {k} x {k} for {k} specs, got {cov_mu.entries.shape}")
    return _sandwich(moment_jacobian(template, model.params, specs), cov_mu)


def _sandwich(jac: np.ndarray, cov_mu: CovMatrix) -> CovMatrix:
    """D^-1 Sigma_mu D^-T, refused when D is numerically singular, judged
    with D's rows, then its columns, scaled to a largest entry of 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = jac / np.abs(jac).max(axis=1, keepdims=True)
        condition = float(np.linalg.cond(np.nan_to_num(rows / np.abs(rows).max(axis=0))))
    if not math.isfinite(condition) or condition > _MAX_CONDITION:
        raise SingularJacobianError(
            f"moment-map Jacobian is numerically singular (cond={condition:.3e})",
            condition=condition,
        )
    inv = np.linalg.inv(jac)
    sigma = inv @ cov_mu.entries @ inv.T
    sigma = 0.5 * (sigma + sigma.T)
    return CovMatrix(sigma, (("delta",) * sigma.shape[1],) * sigma.shape[0])
