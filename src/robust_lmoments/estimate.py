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

The fit runs Newton from two starts in lockstep: the family's
method-of-moments start, and its default member carried into the data's
units (``_carried_default``), so that both, and the one-parameter
bisection after them, take the same steps in any unit of the data.  Each
round evaluates the next point of every live start in one call of the
moment map, whose batched specs share one ``integrate_batch`` call and one
integrand call for their edge atoms.  Each start keeps its own damping and
stops on its own, a start whose point raises fails alone, and once the
first start has converged, a start that reaches its root stops there.  A
second root, where the starts land apart, sets ``non_unique``.
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
    Mode,
    MomentSpec,
    _ascending,
    _close_window,
    _moment_errstate,
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


def _batched_moments(template: ModelTemplate, thetas, specs) -> tuple[np.ndarray, np.ndarray]:
    """Moments and Jacobian columns, at each row of ``thetas``, of specs
    whose windows the quantile is finite on, from one ``integrate_batch``
    call: per theta and spec (a cell), one problem for h(Q) and one for
    h'(Q) dQ/dtheta_j per free parameter j.  One more integrand call gives
    the rows of every winsorized cell's edge atoms, and each cell's rows
    close its window."""
    free = np.asarray(template.free_indices)
    width = 1 + free.size
    models = [template.bind(theta) for theta in thetas]
    cells = [(model, spec) for model in models for spec in specs]

    def integrand(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # With the panels in problem order, each theta's, each cell's and
        # each problem's panels are one slice.
        order = np.argsort(rows, kind="stable")
        bounds = np.searchsorted(rows[order], np.arange(len(cells) * width + 1))
        out = np.empty_like(u)
        for i, model in enumerate(models):
            start, stop = bounds[[i * len(specs) * width, (i + 1) * len(specs) * width]]
            if start == stop:
                continue
            mine = order[start:stop]
            x = model.quantiles(u[mine])
            h = np.empty_like(x)
            for s, spec in enumerate(specs):
                c = i * len(specs) + s
                cut = bounds[c * width : (c + 1) * width + 1] - start
                h[cut[0] : cut[1]] = spec.transform.values(x[cut[0] : cut[1]])
                h[cut[1] : cut[-1]] = spec.transform.derivs(x[cut[1] : cut[-1]])
            column = rows[mine] % width
            grad = np.flatnonzero(column)
            if grad.size:
                dq = model.quantile_grads(u[mine[grad]])
                h[grad] *= dq[free[column[grad] - 1], np.arange(grad.size)]
            out[mine] = h
        return out

    lo = np.repeat([spec.a for _, spec in cells], width)
    hi = np.repeat([spec.b_bar for _, spec in cells], width)
    table = integrate_batch(integrand, lo, hi, panels=_MAP_PANELS).reshape(-1, width)
    # The rows of every winsorized cell at its edge atoms, from one integrand
    # call when _close_window first asks for a cell's.
    atoms = [(c, u) for c, (_, spec) in enumerate(cells) if spec.mode is Mode.MWM for u, _ in spec.edge_atoms]
    at_atom: dict = {}

    def at(c: int, t: np.ndarray) -> np.ndarray:
        if not at_atom:
            owner = np.array([cell for cell, _ in atoms])
            rows = (owner[:, None] * width + np.arange(width)).ravel()
            edges = integrand(np.repeat([u for _, u in atoms], width), rows)
            at_atom.update(zip(atoms, edges.reshape(-1, width)))
        return np.array([at_atom[c, v] for v in t])

    for c, (model, spec) in enumerate(cells):
        table[c] = _close_window(spec, model, table[c], lambda t, c=c: at(c, t))
    return table[:, 0].reshape(len(models), -1), table[:, 1:].reshape(len(models), len(specs), -1)


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
    d mu_i / d theta_j in the free parameters, at one theta or at each row
    of a stack of them (shapes (..., k) and (..., k, free)).  The batched
    specs of every theta take one ``integrate_batch`` call; the scalar
    specs run once per theta."""
    theta = np.asarray(theta, dtype=float)
    thetas = theta.reshape(-1, theta.shape[-1])
    mu = np.empty((len(thetas), len(specs)))
    jac = np.empty((len(thetas), len(specs), thetas.shape[1]))
    finite = np.array([template.cls.bounded_on(s.a, s.b) for s in specs])
    batched, scalar = np.flatnonzero(finite), np.flatnonzero(~finite)
    if batched.size:
        mu[:, batched], jac[:, batched] = _batched_moments(
            template, thetas, [specs[i] for i in batched]
        )
    if scalar.size:
        for k, t in enumerate(thetas):
            mu[k, scalar], jac[k, scalar] = _scalar_moments(template, t, [specs[i] for i in scalar])
    shape = theta.shape[:-1] + (len(specs),)
    return mu.reshape(shape), jac.reshape(shape + (thetas.shape[1],))


def _evaluate(template, theta, specs, target):
    """At theta, or at each row of a stack of them: the residual
    (mu - mu_hat) / s, as mu / s - mu_hat / s so that it is bitwise
    mu / mu_hat - 1 where s = mu_hat, and the moment Jacobian; ``target``
    is (mu_hat, s)."""
    mu_hat, s = target
    mu, jac = _moment_map(template, theta, specs)
    return mu / s - mu_hat / s, jac


def _evaluate_each(template, points, specs, target) -> list:
    """The residual and Jacobian at each of ``points``, from one call of the
    moment map for all; where that call raises a package error, from one
    call per point, and a point whose own call raises gets its error in
    place of the pair."""
    try:
        return list(zip(*_evaluate(template, points, specs, target)))
    except RobustLMomentsError as exc:
        if len(points) == 1:
            return [exc]
    return [_evaluate_each(template, [point], specs, target)[0] for point in points]


def _initial_guesses(template: ModelTemplate, sample, xs) -> list[np.ndarray]:
    """The family's method-of-moments start, and its default member carried
    into the data's units (``_carried_default``) where it is another root's
    start; each only if it binds, but the first start at least."""
    full = template.cls.moment_start(np.asarray(sample, dtype=float))
    starts = [np.array([full[i] for i in template.free_indices], dtype=float)]
    alt = _carried_default(template, xs)
    if alt is not None and not _same_root(alt, starts[0]):
        starts.append(alt)
    return [s for s in starts if template.admits(s)] or [starts[0]]


def _carried_default(template: ModelTemplate, xs) -> np.ndarray | None:
    """The free parameters of the family's default member carried into the
    data's units (``xs``, the sample sorted), or None for a family without
    a default member or a sample without a unit: c is the distance between
    the sample's quartiles over the default member's, and each parameter in
    the data's unit (``DistributionModel.param_units``) is multiplied by c,
    each in its logarithm moved by log c, each shape kept."""
    cls = template.cls
    try:
        default = cls()
    except (TypeError, DomainError):  # no defaults, or a default outside the bounds
        return None
    c = 1.0
    if cls.param_units:  # else every parameter is kept, as a shape
        n = xs.size
        spread = float(xs[round(0.75 * (n - 1))] - xs[round(0.25 * (n - 1))])
        c = spread / float(np.ptp(default.quantiles(np.array([0.25, 0.75]))))
        if not c > 0:  # a sample of ties has no unit
            return None
    carry = {"x": lambda p: p * c, "log x": lambda p: p + math.log(c), "1": lambda p: p}
    units = cls.param_units or ("1",) * len(default.params)
    return np.array([carry[units[i]](default.params[i]) for i in template.free_indices], dtype=float)


def moment_jacobian(template: ModelTemplate, theta, specs) -> np.ndarray:
    """Jacobian d mu_i / d theta_j of the moment map at theta."""
    return _moment_map(template, theta, specs)[1]


def _descent(template, target, theta):
    """One start's damped Newton toward ``target`` = (mu_hat, residual
    scales), as a generator: it yields each point it needs the residual and
    Jacobian at, is sent that pair or thrown the package error the moment
    map raised there, and returns (root, iterations, residual, Jacobian at
    the root)."""
    theta = np.asarray(theta, dtype=float)
    r, jac = yield theta
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
                    r_cand, jac_cand = yield cand
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


def _newton(template, specs, target, starts) -> list[tuple]:
    """Damped Newton from every one of ``starts`` in lockstep: each round
    evaluates the next point of every live start in one call of the moment
    map, and each start keeps its own iterate, damping and line search and
    stops on its own.  Once the first start has converged, a start whose
    next point is its root, to the tolerance that tells roots apart, stops
    there.  The (root, iterations, residual, Jacobian at the root) of each
    start that converged, in start order; a start that fails for a package
    reason (a domain, divergence or convergence error) is one failed start,
    and if every start fails, the last one's failure is raised."""
    runs = [_descent(template, target, start) for start in starts]
    points = [next(run) for run in runs]
    outcomes: list = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        values = _evaluate_each(template, [points[i] for i in live], specs, target)
        for i, value in zip(live, values):
            try:
                if isinstance(value, RobustLMomentsError):
                    points[i] = runs[i].throw(value)
                else:
                    points[i] = runs[i].send(value)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except RobustLMomentsError as exc:
                outcomes[i] = exc
        first = outcomes[0]
        if first is not None and not isinstance(first, RobustLMomentsError):
            for i in live:
                if outcomes[i] is None and _same_root(points[i], first[0]):
                    outcomes[i] = first
        live = [i for i in live if outcomes[i] is None]
    solutions = [o for o in outcomes if not isinstance(o, RobustLMomentsError)]
    if not solutions:
        raise outcomes[-1]
    return solutions


def _same_root(a, b) -> bool:
    """Whether ``a`` is at ``b``, to the tolerance that tells two roots apart
    for ``non_unique``: 1e-4 relative, or 1e-8 of b's largest |parameter|
    for a parameter near 0, so that it holds in any unit of the data."""
    return np.allclose(a, b, rtol=1e-4, atol=1e-8 * np.abs(b).max())


def _bisect_1d(template, specs, target, theta0):
    """Fallback for one free parameter: bracket then bisect the residual.
    The bracket's step, its distance from an open bound and the narrowest
    bracket are relative to the start, so that the search is the same in
    any unit of the data."""

    def f(t):
        return _evaluate(template, [t], specs, target)[0][0]

    t0 = float(theta0[0])
    scale = abs(t0) or 1.0
    lo_bound, hi_bound = template.free_bounds()[0]
    lo_bound, hi_bound = lo_bound + 1e-12 * scale, hi_bound - 1e-12 * scale
    lo = hi = t0
    f0 = f(t0)
    step = scale
    for _ in range(80):
        lo, hi = max(lo - step, lo_bound), min(hi + step, hi_bound)
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
        if hi - lo < 1e-14 * (scale + abs(mid)):
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
    with _moment_errstate():
        for j, s in enumerate(specs):
            lo, hi = _window(xs.size, s)
            h = s.transform.values(xs[lo:hi])  # once, for the moment and its unit
            mu_hat[j] = _window_moment(h, lo, hi, xs.size, s.mode)
            units[j] = math.ldexp(1.0, math.frexp(np.abs(h).mean())[1])
    # each residual relative to mu_hat, or absolute in its unit where mu_hat ~ 0
    target = mu_hat, np.where(np.abs(mu_hat) > 1e-12 * units, mu_hat, units)

    starts = _initial_guesses(template, sample, xs)
    try:
        solutions = _newton(template, specs, target, starts)
    except RobustLMomentsError:
        if template.free_count != 1:
            raise
        theta, iterations, residual = _bisect_1d(template, specs, target, starts[0])
        jac = _moment_map(template, theta, specs)[1]
        solutions = [(theta, iterations, residual, jac)]

    theta, iterations, residual, jac = solutions[0]
    others = [t for t, *_ in solutions[1:] if not _same_root(t, theta)]
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
