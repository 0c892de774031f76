"""Adaptive quadrature: one scalar integral, or many at once.

``integrate`` is backed by QUADPACK's adaptive Gauss-Kronrod rules
(scipy.integrate.quad).  ``integrate_batch`` computes m integrals in one
pass with the 21-point Gauss-Kronrod rule of QUADPACK's qk21: every
panel of every problem is evaluated in one integrand call per round,
and each round bisects the panels whose error estimate is above their
share of their problem's tolerance.  The nested oracle routes use it to
evaluate the inner integrals for all outer nodes at once.

Both share the package-wide policy: absolute floor 1e-14, relative
target 1e-10 by default, at most 2000 subintervals per integral, and
integrands evaluated only on the open interval.  A package error raised
by the integrand passes through unchanged; any other failure to converge
is surfaced as DivergenceError.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import DivergenceError, RobustLMomentsError

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


@contextmanager
def _integrand_errors(lo: float, hi: float):
    """Map an integrand failure on [lo, hi] to the package's errors."""
    try:
        yield
    except RobustLMomentsError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise DivergenceError(f"integrand failed on [{lo}, {hi}]: {exc}") from exc


def _not_converged(lo: float, hi: float, msg: str) -> DivergenceError:
    return DivergenceError(f"integral over [{lo}, {hi}] did not converge: {msg}")


def _not_finite(lo: float, hi: float) -> DivergenceError:
    return DivergenceError(f"integral over [{lo}, {hi}] is not finite")


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    points: Sequence[float] | None = None,
    rel_tol: float = REL_TOL,
) -> float:
    """Integrate f over [lo, hi]; ``points`` marks known kinks/jumps."""
    if hi == lo:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    pts = None
    if points:
        pts = sorted({p for p in points if lo < p < hi})
        if not pts:
            pts = None

    # Quadrature nodes are interior in exact arithmetic, but can round to
    # a representable endpoint; nudge those onto the open interval so that
    # integrands with endpoint singularities stay evaluable.
    lo_open = math.nextafter(lo, hi)
    hi_open = math.nextafter(hi, lo)

    def g(u: float) -> float:
        return f(min(max(u, lo_open), hi_open))

    with _integrand_errors(lo, hi):
        value, _, _, *message = quad(
            g, lo, hi,
            points=pts,
            epsabs=ABS_TOL,
            epsrel=rel_tol,
            limit=MAX_SUBDIVISIONS,
            full_output=1,
        )
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
    # QUADPACK's scaling of |Kronrod - Gauss| by the mean absolute deviation
    scaled = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=resasc > 0)
    err = np.where(resasc > 0, resasc * np.minimum(1.0, scaled ** 1.5), err)
    roundoff = 50.0 * _EPS * (np.abs(fv) @ _KRONROD_WEIGHTS)
    return half * kronrod, half * np.maximum(err, roundoff), half * roundoff


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    *,
    rel_tol: float = REL_TOL,
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
    that tolerance divided by its panel count.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    sign = np.where(hi < lo, -1.0, 1.0)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    length = hi - lo
    lo_open = np.nextafter(lo, hi)
    hi_open = np.nextafter(hi, lo)
    m = lo.size
    result = np.zeros(m)
    span = (lo.min(initial=0.0), hi.max(initial=0.0))

    # One column per panel: problem, left and right end in t, estimate,
    # error estimate, roundoff floor.  ``kept`` holds the unfinished
    # panels of earlier rounds that were not bisected.
    rows = np.flatnonzero(hi > lo)
    left, right = np.zeros(rows.size), np.ones(rows.size)
    kept = np.empty((6, 0))
    while rows.size:
        half = 0.5 * (right - left)
        t = (left + half)[:, None] + half[:, None] * _GK21_NODES
        u = lo[rows, None] + length[rows, None] * (t * t * (3.0 - 2.0 * t))
        # Nodes can round onto an endpoint; nudge them onto the open interval.
        np.clip(u, lo_open[rows, None], hi_open[rows, None], out=u)
        with _integrand_errors(*span):
            fv = np.asarray(f(u, rows), dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            fv = fv * (6.0 * length[rows, None]) * (t * (1.0 - t))
            panel = np.array([rows, left, right, *_gk21(fv, half)])
        if not np.isfinite(panel[3:5]).all():
            k = rows[np.argmin(np.isfinite(panel[3:5]).all(axis=0))]
            raise _not_finite(lo[k], hi[k])

        table = np.concatenate([kept, panel], axis=1)
        rows = table[0].astype(int)
        value, err = table[3], table[4]
        total = np.bincount(rows, value, m)
        panels = np.bincount(rows, minlength=m)
        tol = np.maximum(ABS_TOL, rel_tol * np.abs(total))
        over_share = err > (tol / np.maximum(panels, 1))[rows]
        total_err = np.bincount(rows, err, m)
        # Without a panel over its share the summed error is within the
        # tolerance up to rounding.
        done = (
            (total_err <= tol)
            | (total_err <= np.bincount(rows, table[5], m))
            | (np.bincount(rows, over_share, m) == 0)
        )
        finished = done[rows]
        result += np.bincount(rows[finished], value[finished], m)
        split = over_share & ~finished
        kept = table[:, ~finished & ~split]

        grown = panels + np.bincount(rows[split], minlength=m)
        if grown.max() > MAX_SUBDIVISIONS:
            k = np.argmax(grown)
            raise _not_converged(
                lo[k], hi[k],
                f"maximum number of subdivisions ({MAX_SUBDIVISIONS}) reached",
            )
        rows, left, right = table[:3, split]
        rows = np.tile(rows.astype(int), 2)
        mid = 0.5 * (left + right)
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])

    return sign * result
