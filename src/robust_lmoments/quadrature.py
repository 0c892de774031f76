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

Both share the package-wide policy: absolute floor 1e-14, relative
target 1e-10 by default, at most 2000 subintervals per integral, and
integrands evaluated only on the open interval.  A package error raised
by the integrand passes through unchanged; any other failure to converge
is surfaced as DivergenceError.  A NaN limit is refused as DomainError;
so are an infinite limit and fewer than one starting panel in
``integrate_batch``, whose map needs a finite interval (``integrate``
keeps QUADPACK's infinite limits).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DivergenceError, DomainError, RobustLMomentsError

__all__ = ["integrate", "integrate_batch"]

ABS_TOL = 1e-14
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


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """Integrate f over [lo, hi]."""
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

    def g(u: float) -> float:
        return f(min(max(u, lo_open), hi_open))

    try:
        value, _, _, *message = quad(
            g, lo, hi,
            epsabs=ABS_TOL,
            epsrel=REL_TOL,
            limit=MAX_SUBDIVISIONS,
            full_output=1,
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


def _gk21(fv: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod estimates, error estimates and roundoff floors of panels
    with half-widths ``half`` from their node values ``fv`` (p, 21)."""
    kronrod = fv @ _KRONROD_WEIGHTS
    err = np.abs(kronrod - fv @ _GAUSS_WEIGHTS)
    resasc = np.abs(fv - 0.5 * kronrod[:, None]) @ _KRONROD_WEIGHTS
    # QUADPACK's scaling of |Kronrod - Gauss| by the mean absolute deviation,
    # where that is positive (the caller ignores the division warnings)
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc > 0, scaled, err)
    roundoff = 50.0 * _EPS * (np.abs(fv) @ _KRONROD_WEIGHTS)
    return half * kronrod, half * np.maximum(err, roundoff), half * roundoff


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


@functools.lru_cache(maxsize=8)
def _starting_panels(panels: int) -> tuple[np.ndarray, ...]:
    """Ends and half-widths in t of the ``panels`` equal starting panels,
    and t^2 (3 - 2t) and t (1 - t) at their nodes, flattened in panel order."""
    index = np.arange(panels)
    left, right = index / panels, (index + 1) / panels
    half = 0.5 * (right - left)
    t = (left + half)[:, None] + half[:, None] * _GK21_NODES
    tables = left, right, half, (t * t * (3.0 - 2.0 * t)).ravel(), (t * (1.0 - t)).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


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

    Each problem is integrated in the variable t of
    u = lo + (hi - lo) t^2 (3 - 2t), t in [0, 1], whose Jacobian vanishes
    at both ends, so that integrable endpoint singularities (such as those
    of H and H' at u -> 0 or 1) need far fewer bisections.  Problem k is
    done when its summed error estimate is within
    max(1e-14, rel_tol * |estimate|), or at the roundoff level of its
    panels; until then each round bisects its panels whose error exceeds
    that tolerance divided by its panel count.  A round that refines
    costs about 100 us plus 35 ns per node besides the integrand (2-core
    x86-64), so a failing panel at t = 0 or 1 of at most half its
    starting width is cut in one round into _GRADE = 8 pieces, at w/2,
    w/4, ..., w/128 from that end, rather than bisected once a round: a
    log singularity there then takes a few rounds instead of a dozen.
    Each piece counts toward the subdivision limit.

    Each problem starts as ``panels`` equal panels in t; smooth problems
    started as more panels need fewer rounds.  The first round takes the
    map at those panels' nodes from a table; when each problem is one
    panel and all converge there, the call returns after it, for about
    55 us plus 12 ns per node.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if panels < 1:
        raise DomainError(f"integrate_batch needs panels >= 1, got {panels}")
    flip = hi < lo
    # Per problem: ends, length and open interval, gathered once a round.
    limits = np.empty((5, lo.size))
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
    m = lo.size
    result = np.zeros(m)

    # Round 1 holds the same panels for every problem, so it takes the t-map
    # at their nodes from a table, one problem to a row of ``panels`` * 21.
    live = np.flatnonzero(hi > lo)
    rows = live.repeat(panels)
    left, right, half, shape, jac = _starting_panels(panels)
    half = np.repeat(half[None], live.size, 0).ravel()
    start, end, length, lo_open, hi_open = limits[:, live, None]
    # Per panel: problem, ends in t, estimate, error, roundoff floor; ``kept``
    # holds the unfinished panels of earlier rounds that were not bisected,
    # and is None in round 1.
    kept = None
    while rows.size:
        u = start + length * shape
        # Nodes can round onto an endpoint; nudge them onto the open interval.
        np.minimum(np.maximum(u, lo_open, out=u), hi_open, out=u)
        try:
            fv = np.asarray(f(u.reshape(-1, 21), rows), dtype=float)
        except RobustLMomentsError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise _integrand_failed(start, end, exc) from exc
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            fv = (fv.reshape(length.size, -1) * (6.0 * length) * jac).reshape(-1, 21)
            value, err, floor = _gk21(fv, half)
        finite = np.isfinite(value) & np.isfinite(err)
        if not finite.all():
            raise _not_finite(*limits[:2, rows[np.argmin(finite)]])

        if kept is None:
            if panels == 1:
                # One panel per problem: if each converged (the test below
                # for one panel), its panel is its value.
                tol = np.maximum(ABS_TOL, rel_tol * np.abs(value))
                if ((err <= tol) | (err <= floor)).all():
                    # + 0.0 maps -0.0 to 0.0, as the sums below, which start at 0.0
                    result[rows] = value + 0.0
                    break
            left, right = (np.repeat(x[None], live.size, 0).ravel() for x in (left, right))
        elif kept[0].size:
            rows, left, right, value, err, floor = (
                np.concatenate(pair)
                for pair in zip(kept, (rows, left, right, value, err, floor))
            )
        total = np.bincount(rows, value, m)
        count = np.bincount(rows, minlength=m)
        tol = np.maximum(ABS_TOL, rel_tol * np.abs(total))
        over_share = err > (tol / np.maximum(count, 1))[rows]
        total_err = np.bincount(rows, err, m)
        # Without a panel over its share the summed error is within the
        # tolerance up to rounding.
        done = (
            (total_err <= tol)
            | (total_err <= np.bincount(rows, floor, m))
            | (np.bincount(rows, over_share, m) == 0)
        )
        ended = done & (count > 0)
        result[ended] = total[ended]
        if done.all():
            break
        finished = done[rows]
        split = over_share & ~finished
        stay = ~finished & ~split
        kept = tuple(x[stay] for x in (rows, left, right, value, err, floor))

        rows, left, right = rows[split], left[split], right[split]
        # A failing panel at an end of its problem, at most half its starting
        # width, is cut into _GRADE pieces toward that end, which add
        # _GRADE - 1 panels toward the limit; the rest are halved.
        graded = ((left == 0.0) | (right == 1.0)) & ((right - left) * panels <= 0.5)
        grown = count + np.bincount(rows, minlength=m)
        pieces = []
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
        shape, jac = t * t * (3.0 - 2.0 * t), t * (1.0 - t)
        start, end, length, lo_open, hi_open = limits[:, rows, None]

    return np.negative(result, out=result, where=flip)
