"""Thin adaptive-quadrature wrapper.

Backed by QUADPACK's adaptive Gauss-Kronrod rules (scipy.integrate.quad)
with the package-wide tolerances: absolute floor 1e-14, relative target
1e-10, up to 2000 subdivisions.  Integrands are only ever evaluated on
the open interval; non-convergence is surfaced as DivergenceError, and a
package error raised by the integrand passes through unchanged.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from scipy.integrate import quad

from .errors import DivergenceError, RobustLMomentsError

__all__ = ["integrate"]

ABS_TOL = 1e-14
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 2000


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

    try:
        value, _, _, *message = quad(
            g, lo, hi,
            points=pts,
            epsabs=ABS_TOL,
            epsrel=rel_tol,
            limit=MAX_SUBDIVISIONS,
            full_output=1,
        )
    except RobustLMomentsError:
        raise
    except (OverflowError, ValueError) as exc:
        raise DivergenceError(f"integrand failed on [{lo}, {hi}]: {exc}") from exc
    # Roundoff-limited accuracy is acceptable; true divergence is not.
    msg = message[0] if message else ""
    if "divergent" in msg or "maximum number of subdivisions" in msg:
        raise DivergenceError(f"integral over [{lo}, {hi}] did not converge: {msg}")
    if math.isnan(value) or math.isinf(value):
        raise DivergenceError(f"integral over [{lo}, {hi}] is not finite")
    return sign * value
