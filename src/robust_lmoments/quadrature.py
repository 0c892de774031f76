"""Adaptive quadrature: one scalar integral, or many at once.

``integrate`` is backed by QUADPACK's adaptive Gauss-Kronrod rules
(scipy.integrate.quad).  ``integrate_batch`` computes m integrals in one
pass with the 21-point Gauss-Kronrod rule of QUADPACK's qk21: every
panel of every problem is evaluated in one integrand call per round,
and each round bisects the panels whose error estimate is above their
share of their problem's tolerance, except that such a panel at an end
of its problem, once at most half its starting width, is cut into a mesh
graded toward that end.  The nested oracle routes use it to evaluate the
inner integrals for all outer nodes at once.

Both map each problem by where it lies.  A problem strictly inside
(0, 1) is integrated in s = log(u / (1 - u)): H = h(F^-1(u)) is analytic
off the cuts (-inf, 0] and [1, inf), which this map sends to the edges
of the strip |Im s| < pi, so the rule converges at a rate set by the
problem's length in s, not by how near it comes to 0 or 1 (Takahasi and
Mori's variable transformation).  A problem that reaches 0 or 1, or lies
outside [0, 1], keeps u: there QUADPACK extrapolates toward the end and
the batched engine uses a cubic map with graded end splits.  The logit
map does not serve an end: near u = 1 a node carries no digits of 1 - u,
so a singularity there cannot be resolved in s.

Both share the package-wide policy: a relative target, 1e-10 by default,
and no absolute floor, so 2^k f integrates to exactly 2^k times f (an
integral that is zero to rounding ends at QUADPACK's roundoff exit, ier 2,
whose value is kept, or at the batched engine's roundoff floor); at most
2000 subintervals per integral; and integrands evaluated only on the open
interval.  A package error raised by the integrand passes through
unchanged; any other failure to converge is surfaced as DivergenceError.
A NaN limit is refused as DomainError; so are an infinite limit and fewer
than one starting panel in ``integrate_batch``, whose map needs a finite
interval (``integrate`` keeps QUADPACK's infinite limits).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DivergenceError, DomainError, RobustLMomentsError

__all__ = ["integrate", "integrate_batch"]

REL_TOL = 1e-10
MAX_SUBDIVISIONS = 2000

# QUADPACK messages that mean the estimate cannot be trusted; the rest
# (roundoff-limited accuracy) keep the value.
_FAILURE_MESSAGES = (
    "divergent",
    "maximum number of subdivisions",
    "bad integrand behavior",
)


def _integrand_failed(lo, hi, exc: Exception) -> DivergenceError:
    """An integrand failure on [min lo, max hi] as the package's error."""
    return DivergenceError(f"integrand failed on [{np.min(lo)}, {np.max(hi)}]: {exc}")


def _not_converged(lo: float, hi: float, msg: str) -> DivergenceError:
    return DivergenceError(f"integral over [{lo}, {hi}] did not converge: {msg}")


def _not_finite(lo: float, hi: float) -> DivergenceError:
    return DivergenceError(f"integral over [{lo}, {hi}] is not finite")


# Length in s of each starting piece of an interior ``integrate`` problem.
_LOGIT_PIECE = 4.0


# Lower limits at or above this take the short form of the length in s.
_TINY = 2.0**-960


def _logit_limits(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """logit(lo) and logit(hi) - logit(lo) of intervals strictly inside
    (0, 1).  The length is log1p(w / (lo (1 - hi))), w = hi - lo, so that a
    short interval keeps its digits; lo (1 - hi) stays a normal number for
    lo >= _TINY, and below that the length is the difference of logits."""
    start = np.log(lo / (1.0 - lo))
    if lo.min(initial=_TINY) >= _TINY:
        return start, np.log1p((hi - lo) / (lo * (1.0 - hi)))
    short = np.log1p((hi - lo) / (np.maximum(lo, _TINY) * (1.0 - hi)))
    return start, np.where(lo < _TINY, np.log(hi / (1.0 - hi)) - start, short)


def _logistic(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = 1 / (1 + e^-s) and du/ds = u (1 - u) = E / (1 + E)^2, E = e^-|s|,
    which neither overflows nor loses u where it is tiny.  Overwrites s;
    works in place, as each fresh array of a round's size costs page
    faults."""
    negative = s < 0.0
    e = np.abs(s, out=s)
    np.negative(e, out=e)
    np.exp(e, out=e)
    high = 1.0 + e
    np.reciprocal(high, out=high)
    low = np.multiply(e, high, out=e)
    weight = low * high
    # u is low where s < 0, else high
    np.copyto(high, low, where=negative)
    return high, weight


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """Integrate f over [lo, hi].

    An interval strictly inside (0, 1) is integrated in s = logit(u), as
    f(u(s)) u'(s) over its length in s, started as one piece per 4 units
    of that length (QUADPACK's ``points``); any other keeps u, where
    QUADPACK extrapolates toward an end singularity."""
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError(f"integration limits must not be NaN, got [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0

    # Quadrature nodes are interior in exact arithmetic, but can round to
    # a representable endpoint; nudge those onto the open interval so that
    # integrands with endpoint singularities stay evaluable.
    lo_open = math.nextafter(lo, hi)
    hi_open = math.nextafter(hi, lo)
    options = {}
    if 0.0 < lo and hi < 1.0:
        # _logit_limits in scalar arithmetic
        start = math.log(lo / (1.0 - lo))
        if lo >= _TINY:
            length = math.log1p((hi - lo) / (lo * (1.0 - hi)))
        else:
            length = math.log(hi / (1.0 - hi)) - start
        pieces = math.ceil(length / _LOGIT_PIECE)
        if pieces > 1:
            options["points"] = [length * k / pieces for k in range(1, pieces)]
        a, b = 0.0, length

        def g(r: float) -> float:
            # r = s - logit(lo); the scalar form of _logistic
            s = start + r
            e = math.exp(-abs(s))
            high = 1.0 / (1.0 + e)
            low = e * high
            u = low if s < 0.0 else high
            if not lo_open <= u <= hi_open:
                u = min(max(u, lo_open), hi_open)
            return f(u) * (low * high)
    else:
        a, b = lo, hi

        def g(u: float) -> float:
            return f(min(max(u, lo_open), hi_open))

    try:
        value, _, _, *message = quad(
            g, a, b,
            epsabs=0.0,
            epsrel=REL_TOL,
            limit=MAX_SUBDIVISIONS,
            full_output=1,
            **options,
        )
    except RobustLMomentsError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise _integrand_failed(lo, hi, exc) from exc
    msg = message[0] if message else ""
    if any(failure in msg for failure in _FAILURE_MESSAGES):
        raise _not_converged(lo, hi, msg)
    if math.isnan(value) or math.isinf(value):
        raise _not_finite(lo, hi)
    return sign * value


# QUADPACK's qk21 on [-1, 1]: the positive Kronrod nodes, their weights
# and the centre weight; the Gauss weights belong to the 2nd, 4th, ...
# node.  Nodes and weights are symmetric about 0.
_XGK = [
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
]
_WGK = [
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
]
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
]
_GK21_NODES = np.array(_XGK + [0.0] + [-x for x in reversed(_XGK)])
_KRONROD_WEIGHTS = np.array(_WGK + [_WGK_CENTRE] + _WGK[::-1])
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1::2] = _WG + _WG[::-1]
_EPS = np.finfo(float).eps


def _gk21(fv: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Kronrod estimates, error estimates and roundoff floors, the rows of a
    (3, p) array, of panels with half-widths ``half`` from their node values
    ``fv`` (p, 21)."""
    kronrod = fv @ _KRONROD_WEIGHTS
    err = np.abs(kronrod - fv @ _GAUSS_WEIGHTS)
    resasc = np.abs(fv - 0.5 * kronrod[:, None]) @ _KRONROD_WEIGHTS
    # QUADPACK's scaling of |Kronrod - Gauss| by the mean absolute deviation,
    # where that is positive (the caller ignores the division warnings)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc > 0, scaled, err)
    roundoff = 50.0 * _EPS * (np.abs(fv) @ _KRONROD_WEIGHTS)
    out = np.empty((3, fv.shape[0]))
    np.multiply(half, kronrod, out=out[0])
    np.multiply(half, np.maximum(err, roundoff), out=out[1])
    np.multiply(half, roundoff, out=out[2])
    return out


# Pieces of a graded split, and the distances of their ends from the
# problem's end as fractions of the panel: 1, 1/2, ..., 1/2^(_GRADE-1), 0.
_GRADE = 8
_GRADE_ENDS = np.append(0.5 ** np.arange(_GRADE), 0.0)


def _graded_pieces(rows, left, right) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Problems and ends in t of the _GRADE pieces of each panel [left, right]
    that has an end at t = 0 or 1, cut at w/2, w/4, ..., w/2^(_GRADE-1) from it."""
    width = (right - left)[:, None]
    cuts = np.where((left == 0.0)[:, None], width * _GRADE_ENDS, 1.0 - width * _GRADE_ENDS)
    a, b = cuts[:, :-1], cuts[:, 1:]
    return rows.repeat(_GRADE), np.minimum(a, b).ravel(), np.maximum(a, b).ravel()


def _cubic(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t^2 (3 - 2t) and t (1 - t): the cubic map's shape and a sixth of
    its derivative."""
    return t * t * (3.0 - 2.0 * t), t * (1.0 - t)


@functools.lru_cache(maxsize=8)
def _starting_panels(panels: int) -> tuple[np.ndarray, ...]:
    """Ends and half-widths in t of the ``panels`` equal starting panels,
    and t, t^2 (3 - 2t) and t (1 - t) at their nodes, flattened in panel
    order."""
    index = np.arange(panels)
    left, right = index / panels, (index + 1) / panels
    half = 0.5 * (right - left)
    t = (left + half)[:, None] + half[:, None] * _GK21_NODES
    tables = left, right, half, t.ravel(), *(x.ravel() for x in _cubic(t))
    for table in tables:
        table.flags.writeable = False
    return tables


def _map_nodes(t, cubic, logit, start, length, s_start, s_length):
    """Nodes u at t of rows of panels, and the factors ``scale`` (one per
    row) and ``weight`` of du/dt: in logit coordinates where ``logit``
    holds (True or False for every row, or a mask of rows), else by the
    cubic map, whose ``cubic`` = (shape, jac) may be None when ``logit`` is
    True."""
    if logit is True:
        u, weight = _logistic(s_start + s_length * t)
        return u, s_length, weight
    shape, jac = cubic
    u, scale = start + length * shape, 6.0 * length
    if logit is False:
        return u, scale, jac
    inner = np.flatnonzero(logit)
    weight = np.empty(u.shape)
    weight[...] = jac
    u[inner], weight[inner] = _logistic(
        s_start[inner] + s_length[inner] * (t if t.ndim == 1 else t[inner])
    )
    scale[inner] = s_length[inner]
    return u, scale, weight


def _panel_sums(x: np.ndarray, panels: int) -> np.ndarray:
    """Per problem, 0.0 + x_0 + x_1 + ... over its ``panels`` consecutive
    entries of each row of x: the order in which ``np.bincount`` adds them."""
    x = x.reshape(x.shape[0], -1, panels)
    total = x[..., 0] + 0.0
    for j in range(1, panels):
        total += x[..., j]
    return total


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    *,
    rel_tol: float = REL_TOL,
    panels: int = 1,
) -> np.ndarray:
    """Integrate m problems at once: entry k is f over [lo[k], hi[k]].

    ``f(u, rows)`` receives the nodes of p panels as a (p, 21) array and
    the problem index of each panel as a (p,) integer array, and returns
    the integrand at those nodes.

    Each problem is integrated in a variable t in [0, 1] that it maps to
    u on its own.  A problem strictly inside (0, 1) takes
    u = logistic(s_lo + (s_hi - s_lo) t), s = logit(u), with
    du/dt = (s_hi - s_lo) E / (1 + E)^2, E = e^-|s|.  Any other takes
    u = lo + (hi - lo) t^2 (3 - 2t), whose Jacobian vanishes at both ends,
    so that integrable endpoint singularities (such as those of H and H'
    at u -> 0 or 1) need far fewer bisections.  Problem k is
    done when its summed error estimate is within
    max(rel_tol * |estimate|, floor), where the floor is the roundoff
    level of its panels, 50 eps times their integral of |f|; until then
    each round bisects its panels whose error exceeds that tolerance
    divided by its panel count.  A round that refines
    costs about 75 us plus 33 ns per node besides the integrand (2-core
    x86-64), so a failing panel at t = 0 or 1 of a problem that reaches
    0 or 1 or lies outside [0, 1], once at most half its starting width,
    is cut in one round into _GRADE = 8 pieces, at w/2, w/4, ..., w/128
    from that end, rather than bisected once a round: a log singularity
    there then takes a few rounds instead of a dozen.  Each piece counts
    toward the subdivision limit.

    Each problem starts as ``panels`` equal panels in t; smooth problems
    started as more panels need fewer rounds.  The first round takes t
    and the cubic map at those panels' nodes from a table; when every
    problem converges there, the call returns after it with each
    problem's panels summed in order, for about 85 us plus 16 ns per node
    (74 us plus 12 ns when no problem is interior).
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if panels < 1:
        raise DomainError(f"integrate_batch needs panels >= 1, got {panels}")
    flip = hi < lo
    # Per problem: ends, length, open interval and, if it is interior, its
    # start and length in s = logit(u), gathered once a round.
    limits = np.zeros((7, lo.size))
    np.minimum(lo, hi, out=limits[0])
    np.maximum(lo, hi, out=limits[1])
    if not np.isfinite(limits[:2]).all():
        k = np.argmin(np.isfinite(lo) & np.isfinite(hi))
        raise DomainError(
            f"integrate_batch needs finite limits; problem {k} has [{lo[k]}, {hi[k]}]"
        )
    lo, hi = limits[0], limits[1]
    np.subtract(hi, lo, out=limits[2])
    np.nextafter(lo, hi, out=limits[3])
    np.nextafter(hi, lo, out=limits[4])
    # Interior problems take the logit map: all of them, none, or a mix.
    inner = (0.0 < lo) & (hi < 1.0)
    every = bool(inner.all())
    mixed = not every and bool(inner.any())
    if every:
        limits[5], limits[6] = _logit_limits(lo, hi)
    elif mixed:
        limits[5, inner], limits[6, inner] = _logit_limits(lo[inner], hi[inner])
    m = lo.size
    result = np.zeros(m)

    # Round 1 holds the same panels for every problem, so it takes t and the
    # cubic map at their nodes from a table, one problem to a row of
    # ``panels`` * 21.
    live = np.flatnonzero(hi > lo)
    rows = live.repeat(panels)
    left, right, half, t, *cubic = _starting_panels(panels)
    half = np.repeat(half[None], live.size, 0).ravel()
    start, end, length, lo_open, hi_open, s_start, s_length = limits[:, live, None]
    logit = inner[live] if mixed else every
    # Per panel: problem, ends in t, estimate, error, roundoff floor; ``kept``
    # holds the unfinished panels of earlier rounds that were not bisected,
    # and is None in round 1.
    kept = None
    while rows.size:
        u, scale, weight = _map_nodes(t, cubic, logit, start, length, s_start, s_length)
        # Nodes can round onto an endpoint; nudge them onto the open interval.
        np.minimum(np.maximum(u, lo_open, out=u), hi_open, out=u)
        # An overflow or invalid value in f is refused below as a
        # non-finite value, not warned about.
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            try:
                fv = np.asarray(f(u.reshape(-1, 21), rows), dtype=float)
            except RobustLMomentsError:
                raise
            except (ArithmeticError, ValueError) as exc:
                raise _integrand_failed(start, end, exc) from exc
            fv = fv.reshape(scale.size, -1) * scale
            fv *= weight
            fv = fv.reshape(-1, 21)
            estimates = _gk21(fv, half)
        value, err, floor = estimates
        finite = np.isfinite(value) & np.isfinite(err)
        if not finite.all():
            raise _not_finite(*limits[:2, rows[np.argmin(finite)]])

        if kept is None:
            # Round 1: each problem's panels are ``panels`` consecutive rows.
            # If all converged (the test below less its last clause, which
            # differs from the first only by rounding), their sums are the values.
            total, total_err, total_floor = _panel_sums(estimates, panels)
            if (total_err <= np.maximum(rel_tol * np.abs(total), total_floor)).all():
                result[live] = total
                break
            left, right = (np.repeat(x[None], live.size, 0).ravel() for x in (left, right))
        elif kept[0].size:
            rows, left, right, value, err, floor = (
                np.concatenate(pair)
                for pair in zip(kept, (rows, left, right, value, err, floor))
            )
        total = np.bincount(rows, value, m)
        count = np.bincount(rows, minlength=m)
        tol = np.maximum(rel_tol * np.abs(total), np.bincount(rows, floor, m))
        over_share = err > (tol / np.maximum(count, 1))[rows]
        total_err = np.bincount(rows, err, m)
        # Without a panel over its share the summed error is within the
        # tolerance up to rounding.
        done = (total_err <= tol) | (np.bincount(rows, over_share, m) == 0)
        ended = done & (count > 0)
        result[ended] = total[ended]
        if done.all():
            break
        finished = done[rows]
        split = over_share & ~finished
        stay = ~finished & ~split
        kept = tuple(x[stay] for x in (rows, left, right, value, err, floor))

        rows, left, right = rows[split], left[split], right[split]
        # A failing panel at an end of a problem in u, at most half its
        # starting width, is cut into _GRADE pieces toward that end, which
        # add _GRADE - 1 panels toward the limit; the rest are halved.
        grown = count + np.bincount(rows, minlength=m)
        pieces = []
        if not every:
            graded = ((left == 0.0) | (right == 1.0)) & ((right - left) * panels <= 0.5)
            if mixed:
                graded &= ~inner[rows]
            if graded.any():
                grown += (_GRADE - 2) * np.bincount(rows[graded], minlength=m)
                pieces.append(_graded_pieces(rows[graded], left[graded], right[graded]))
                rows, left, right = rows[~graded], left[~graded], right[~graded]
        if grown.max() > MAX_SUBDIVISIONS:
            k = np.argmax(grown)
            raise _not_converged(
                lo[k], hi[k],
                f"maximum number of subdivisions ({MAX_SUBDIVISIONS}) reached",
            )
        mid = 0.5 * (left + right)
        rows, left, right = (
            np.concatenate(x) for x in zip((rows, left, mid), (rows, mid, right), *pieces)
        )
        half = 0.5 * (right - left)
        t = (left + half)[:, None] + half[:, None] * _GK21_NODES
        logit = inner[rows] if mixed else every
        cubic = None if every else _cubic(t)
        start, end, length, lo_open, hi_open, s_start, s_length = limits[:, rows, None]

    return np.negative(result, out=result, where=flip)
