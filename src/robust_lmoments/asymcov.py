"""Asymptotic variance-covariance of trimmed/winsorized moment estimators.

Each matrix entry is the integral over (0, 1) of the product of the two
influence functions.  The evaluation routes, named by ``CovMethod``:

* ``alpha``  -- that integral in the Brownian-bridge form of each
  influence function; the reference oracle.  Both modes.
* ``kernel`` -- double integral of the uniform empirical process kernel
  min(v,w) - vw against H'_j(v) H'_i(w).  Trimmed mode.
* ``closed`` -- the paper's formula for left-nested windows
  (a_i <= a_j < 1-b_i <= 1-b_j, or the same after swapping the pair),
  over the paper's I and Ibar.  Trimmed mode.
* ``mwm-decomposition`` and trimmed ``equal-props`` -- the influence
  functions directly: H clipped to the window less its winsorized mean,
  over the retained mass if trimmed, plus a step at each winsorized edge.
* winsorized ``equal-props`` -- the step-free integral plus the paper's
  edge-atom terms over I and Ibar.

``sigma_pair(spec_i, spec_j, model, method)`` builds each coordinate's
H = h(F^-1(u)) from the model and its spec's transform: the specs alone
set the transforms and the mode.  ``_ROUTES`` owns which route applies
to a pair; ``auto`` takes the first valid route of equal-props, closed,
mwm-decomposition, kernel.  The closed routes are algebra over one
table per entry, built on the scalar ``integrate``: [0, 1] cut at the
four window ends, each side's H less its value at its window's
midpoint, so a location shift cancels, integrated once over each piece
inside its window, and the product of both sides once over each piece
inside both windows.  The paper's I(lo, hi), the integral of v H'(v),
and Ibar(lo, hi), that of (1-v) H'(v), follow from a side's integral by
parts.  H is never evaluated at an untrimmed endpoint; divergent
integrals raise DivergenceError.  The alpha and kernel routes run on the
batched engine ``integrate_batch`` and use H and H' alone: they share no
code with the closed routes they check.  Each of their outer rounds pays
for a whole inner sweep over its nodes, so each outer piece starts as
two panels.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, OrderingError
from .models import CompositeH, DistributionModel
from .moments import Mode, MomentSpec, _check_one_mode, _composite
from .quadrature import REL_TOL, integrate, integrate_batch

__all__ = [
    "CovMethod",
    "CovMatrix",
    "gamma_factor",
    "sigma_pair",
    "cov_matrix",
]

_KERNEL_REL_TOL = 1e-8
_KERNEL_INNER_REL_TOL = 1e-9
_ALPHA_REL_TOL = 1e-9
# Starting panels of each outer piece of the alpha and kernel routes.
_OUTER_PANELS = 2


class CovMethod(str, enum.Enum):
    ALPHA = "alpha"
    KERNEL = "kernel"
    CLOSED = "closed"
    EQUAL_PROPS = "equal-props"
    MWM_DECOMP = "mwm-decomposition"
    AUTO = "auto"


def _by_parts(value, a: float, b: float, integral: float, bar: bool) -> float:
    """int_a^b w H' by parts, given ``integral`` = int_a^b H and H as
    ``value``: w(b) H(b) - w(a) H(a) - int_a^b w' H, with w(v) = v, or
    1 - v if ``bar``.  H is not evaluated at an endpoint where w is 0, so an
    integrable singularity there does not poison the result."""
    if b == a:
        return 0.0
    total = integral if bar else -integral
    for t, sign in ((b, 1.0), (a, -1.0)):
        w = 1.0 - t if bar else t
        if w != 0.0:
            total += sign * w * value(t)
    return total


def gamma_factor(spec_i: MomentSpec, spec_j: MomentSpec) -> float:
    """Product of inverse retained-mass fractions for the pair."""
    return 1.0 / (spec_i.retained * spec_j.retained)


def _sweep(f, parts, rel_tol: float = REL_TOL) -> list[np.ndarray]:
    """Partial integrals at every point of x for each part
    ``(x, lo, hi, up)``, x within [lo, hi]: the integral of ``f(v, p)``
    over [lo, x] if ``up``, else over [x, hi], where p is the part's
    position in ``parts``.  ``f`` receives p as a column, one per panel.

    Every part's integrals come from one batched pass over the segments
    between the sorted distinct points of its x, summed up from lo or
    down from hi.  Parts that pass the same array x share one sort.
    """
    sorts = {}
    for x, _, _, _ in parts:
        if id(x) not in sorts:
            # the distinct points and each point's index among them
            xs = np.sort(x)
            distinct = np.empty(xs.size, dtype=bool)
            distinct[0] = True
            np.not_equal(xs[1:], xs[:-1], out=distinct[1:])
            xs = xs[distinct]
            sorts[id(x)] = xs, np.searchsorted(xs, x)
    sizes = [sorts[id(x)][0].size for x, _, _, _ in parts]
    starts = list(itertools.accumulate(sizes, initial=0))
    lows, highs = np.empty(starts[-1]), np.empty(starts[-1])
    for (x, lo, hi, up), s0, s1 in zip(parts, starts, starts[1:]):
        xs = sorts[id(x)][0]
        if up:
            lows[s0], lows[s0 + 1:s1], highs[s0:s1] = lo, xs[:-1], xs
        else:
            lows[s0:s1], highs[s0:s1 - 1], highs[s1 - 1] = xs, xs[1:], hi
    part_of = np.repeat(np.arange(len(parts)), sizes)[:, None]
    segments = integrate_batch(
        lambda v, rows: f(v, part_of[rows]), lows, highs, rel_tol=rel_tol
    )
    sums = []
    for (x, _, _, up), s0, s1 in zip(parts, starts, starts[1:]):
        seg = segments[s0:s1]
        _, index = sorts[id(x)]
        sums.append((np.cumsum(seg) if up else np.cumsum(seg[::-1])[::-1])[index])
    return sums


def _alphas(u: np.ndarray, pairs, edge_dhs) -> list[np.ndarray]:
    """The influence-style integrand alpha of each ``(spec, ch)`` of
    ``pairs``, elementwise over the array u of points in (0, 1) below
    every pair's 1-b, given each pair's ``_edge_derivs``; the pairwise
    product of two integrates to the covariance entry.

    The inner integrals of H from max(a, u) to 1-b, for every u and every
    pair, come from one batched sweep over the distinct lower limits.
    """

    def h_values(v: np.ndarray, part: np.ndarray) -> np.ndarray:
        if one_h:
            return pairs[0][1].value(v)
        out = np.empty_like(v)
        for p, (_, ch) in enumerate(pairs):
            mine = part[:, 0] == p
            out[mine] = ch.value(v[mine])
        return out

    one_h = all(ch == pairs[0][1] for _, ch in pairs)
    # lower limits max(a, u), below 1-b as u is
    xs = [np.maximum(u.ravel(), spec.a) for spec, _ in pairs]
    tails = _sweep(
        h_values, [(x, spec.a, spec.b_bar, False) for (spec, _), x in zip(pairs, xs)]
    )
    return [
        _alpha_from_tail(u, x, tail, spec, ch, dh)
        for (spec, ch), x, tail, dh in zip(pairs, xs, tails, edge_dhs)
    ]


def _alpha_from_tail(u, x, tail, spec: MomentSpec, ch: CompositeH, dh) -> np.ndarray:
    """alpha at u below 1-b, given x = max(a, u), the inner integrals
    ``tail`` of H from x to 1-b and H' at the window's edges ``dh``."""
    a, b, bb = spec.a, spec.b, spec.b_bar
    # (1-b) H(1-b) - (1-x) H(x) + int_x^{1-b} H = int_x^{1-b} (1-v) H'(v) dv
    psi = tail - (1.0 - x) * ch.value(x)
    if b != 0.0:
        psi += b * ch.value(bb)
    psi = psi.reshape(u.shape)
    if spec.mode is Mode.MTM:
        return psi / (spec.retained * (1.0 - u))
    # winsorized: indicator-weighted atoms at the window edges
    dh_a, dh_b = dh
    if a > 0.0:
        psi += np.where(u <= a, a * (1.0 - a) * dh_a, 0.0)
    if b > 0.0:
        psi += b * b * dh_b
    return psi / (1.0 - u)


def _split_at(lo: float, hi: float, kinks) -> np.ndarray:
    """[lo, hi] cut at the kinks that lie inside it."""
    return np.array(sorted({lo, hi, *(p for p in kinks if lo < p < hi)}))


def _sigma_alpha(
    spec_i: MomentSpec,
    spec_j: MomentSpec,
    ch_i: CompositeH,
    ch_j: CompositeH,
) -> float:
    """Reference oracle: integral over (0,1) of alpha_i * alpha_j."""
    upper = min(spec_i.b_bar, spec_j.b_bar)
    cuts = _split_at(0.0, upper, [spec_i.a, spec_j.a, spec_i.b_bar, spec_j.b_bar])
    # Identical coordinates share one sweep and one alpha.
    pairs = list(dict.fromkeys([(spec_i, ch_i), (spec_j, ch_j)]))
    edge_dhs = [
        _edge_derivs(spec, ch) if spec.mode is Mode.MWM else None for spec, ch in pairs
    ]

    def integrand(u: np.ndarray, _) -> np.ndarray:
        alphas = _alphas(u, pairs, edge_dhs)
        return alphas[0] * alphas[-1]

    pieces = integrate_batch(
        integrand, cuts[:-1], cuts[1:], rel_tol=_ALPHA_REL_TOL, panels=_OUTER_PANELS
    )
    return float(pieces.sum())


def _kernel_inner(w: np.ndarray, spec: MomentSpec, ch: CompositeH) -> np.ndarray:
    """int_a^{1-b} (min(v,w) - vw) H'(v) dv for every w, split at v = w into
    (1-w) int_a^x v H'(v) dv + w int_x^{1-b} (1-v) H'(v) dv, x = w clipped
    to the window.

    Both pieces come from one batched sweep over the distinct x, sorted once."""
    a, bb = spec.a, spec.b_bar
    x = np.clip(w.ravel(), a, bb)
    heads, tails = _sweep(
        lambda v, part: ch.deriv(v) * np.where(part == 0, v, 1.0 - v),
        [(x, a, bb, True), (x, a, bb, False)],
        _KERNEL_INNER_REL_TOL,
    )
    return (1.0 - w) * heads.reshape(w.shape) + w * tails.reshape(w.shape)


def _sigma_kernel(
    spec_i: MomentSpec,
    spec_j: MomentSpec,
    ch_i: CompositeH,
    ch_j: CompositeH,
) -> float:
    """Double-integral kernel route, batched nested quadrature."""
    cuts = _split_at(spec_i.a, spec_i.b_bar, [spec_j.a, spec_j.b_bar])
    pieces = integrate_batch(
        lambda w, _: ch_i.deriv(w) * _kernel_inner(w, spec_j, ch_j),
        cuts[:-1],
        cuts[1:],
        rel_tol=_KERNEL_REL_TOL,
        panels=_OUTER_PANELS,
    )
    return gamma_factor(spec_i, spec_j) * float(pieces.sum())


def _scenario_i_holds(spec_i: MomentSpec, spec_j: MomentSpec) -> bool:
    """Left-nested ordering: a_i <= a_j < 1-b_i <= 1-b_j."""
    return spec_i.a <= spec_j.a < spec_i.b_bar <= spec_j.b_bar


def _nested_pair(spec_i: MomentSpec, spec_j: MomentSpec) -> bool:
    """The left-nested ordering holds in one orientation of the pair."""
    return _scenario_i_holds(spec_i, spec_j) or _scenario_i_holds(spec_j, spec_i)


def _equal_props(spec_i: MomentSpec, spec_j: MomentSpec) -> bool:
    """Both coordinates share the same trimming proportions."""
    return spec_i.a == spec_j.a and spec_i.b == spec_j.b


def _edge_derivs(spec: MomentSpec, ch: CompositeH) -> tuple[float, float]:
    """H' at a and at 1-b, from one array call over the edge atoms; 0.0 at
    an untrimmed edge, where H' is not evaluated."""
    points = [u for u, _ in spec.edge_atoms]
    dh = dict(zip(points, ch.deriv(np.array(points)).tolist() if points else ()))
    return dh.get(spec.a, 0.0), dh.get(spec.b_bar, 0.0)


class _Side:
    """One coordinate of an entry as G = H - c, c the value of H at the
    midpoint of its own window, with the integral of G over each of the
    entry's pieces inside that window."""

    def __init__(self, spec: MomentSpec, ch: CompositeH, pieces):
        self.spec, self.ch = spec, ch
        self.centre = ch.value(0.5 * (spec.a + spec.b_bar))
        self.inside = {
            (lo, hi): integrate(self.value, lo, hi)
            for lo, hi in pieces
            if spec.a <= lo and hi <= spec.b_bar
        }

    def value(self, v):
        return self.ch.value(v) - self.centre

    def integral(self, lo: float, hi: float) -> float:
        """int_lo^hi G, for cuts lo and hi of the entry inside the window."""
        return sum((s for (p, q), s in self.inside.items() if lo <= p and q <= hi), 0.0)

    def by_parts(self, lo: float, hi: float, bar: bool = False) -> float:
        """I(lo, hi), or Ibar if ``bar``; the same for G as for H."""
        return _by_parts(self.value, lo, hi, self.integral(lo, hi), bar)

    @functools.cached_property
    def edge_dh(self) -> tuple[float, float]:
        return _edge_derivs(self.spec, self.ch)

    @functools.cached_property
    def mean(self) -> float:
        """The winsorized mean of G."""
        total = self.integral(self.spec.a, self.spec.b_bar)
        for u, mass in self.spec.edge_atoms:
            total += mass * self.value(u)
        return total

    def psi(self, lo: float, hi: float, steps: bool) -> tuple[float, float]:
        """The influence function on the piece [lo, hi], before any
        retained-mass factor, as (A, d): G - d with A its integral over the
        piece inside the window, the constant -d with A = 0 beside it.  It is
        H clipped to the window less its winsorized mean, plus, if ``steps``,
        a step w (t - 1{u <= t}) at each trimmed edge t, w = a H'(a) at a and
        b H'(1-b) at 1-b: constants on the piece that fold into d."""
        spec, d = self.spec, self.mean
        if steps:
            edges = zip((spec.a, spec.b_bar), (spec.a, spec.b), self.edge_dh)
            for t, share, dh in edges:
                d -= share * dh * (t - (hi <= t))
        if hi <= spec.a:
            return 0.0, d - self.value(spec.a)
        if lo >= spec.b_bar:
            return 0.0, d - self.value(spec.b_bar)
        return self.inside[lo, hi], d


class _Table:
    """The window integrals of one covariance entry: its sides, and G_i G_j
    integrated once over each piece inside both windows, the pieces being
    [0, 1] cut at the four window ends.  Coordinates with the same spec and
    composite share one side, whose product integral evaluates G once per
    node and squares it."""

    def __init__(self, spec_i, spec_j, ch_i, ch_j):
        cuts = sorted({0.0, 1.0, spec_i.a, spec_i.b_bar, spec_j.a, spec_j.b_bar})
        self.pieces = list(zip(cuts[:-1], cuts[1:]))
        i = self.i = _Side(spec_i, ch_i, self.pieces)
        same = (spec_i, ch_i) == (spec_j, ch_j)
        j = self.j = i if same else _Side(spec_j, ch_j, self.pieces)
        self.products = {
            piece: integrate(lambda v: (g := i.value(v)) * (g if same else j.value(v)), *piece)
            for piece in i.inside
            if piece in j.inside
        }


def _sigma_closed(spec_i, spec_j, ch_i, ch_j) -> float:
    """Closed form under the left-nested ordering, in whichever orientation
    of the pair it holds, over the entry's table: the form subtracts
    products of integrals, which an uncentred shift of H would swamp.

    The tail cross term multiplies the bracket
    ``(1-b_i) H_i(1-b_i) - a_j H_i(a_j) - int H_i`` by ``int H_j`` over
    the non-overlap strip; the H_i(a_j) factor there follows from the
    integration-by-parts identity for int w H_i'(w) dw (a widespread
    transcription writes H_j(a_j) instead, which breaks the identity
    whenever the two transforms differ; see the regression tests).
    """
    if not _scenario_i_holds(spec_i, spec_j):
        spec_i, spec_j, ch_i, ch_j = spec_j, spec_i, ch_j, ch_i
    table = _Table(spec_i, spec_j, ch_i, ch_j)
    i, j = table.i, table.j
    ai, aj = spec_i.a, spec_j.a
    bbi, bbj = spec_i.b_bar, spec_j.b_bar
    bi, bj = spec_i.b, spec_j.b
    c_i, c_j = i.integral(aj, bbi), j.integral(aj, bbi)
    value = i.by_parts(ai, aj) * j.by_parts(aj, bbj, bar=True) if ai != aj else 0.0
    if bj != 0.0:
        value += bj * j.value(bbj) * i.by_parts(aj, bbi)
    if aj != 0.0:
        value -= aj * j.value(aj) * i.by_parts(aj, bbi, bar=True)
    if bi != 0.0:
        value -= bi * i.value(bbi) * c_j
    # the overlap [a_j, 1-b_i] is one piece
    value += table.products[aj, bbi]
    if aj != 0.0:
        value -= aj * i.value(aj) * c_j
    value -= c_i * c_j
    if bbj != bbi:
        d_j = j.integral(bbi, bbj)
        bracket = bbi * i.value(bbi) - c_i
        if aj != 0.0:
            bracket -= aj * i.value(aj)
        value += bracket * d_j
    return gamma_factor(spec_i, spec_j) * value


def _psi_integral(table: _Table, steps: bool = False) -> float:
    """Integral over (0, 1) of the product of the influence functions: on
    each piece, P - d_j A_i - d_i A_j + d_i d_j (hi - lo), P the product
    integral there (0 unless inside both windows).  Without steps it is the
    kernel double integral V11 as Cov(H_i(U_i), H_j(U_j)), U_k the uniform
    clipped to window k (Chernoff, Gastwirth & Johns, 1967)."""
    value = 0.0
    for lo, hi in table.pieces:
        a_i, d_i = table.i.psi(lo, hi, steps)
        a_j, d_j = table.j.psi(lo, hi, steps)
        product = table.products.get((lo, hi), 0.0)
        value += product - d_j * a_i - d_i * a_j + d_i * d_j * (hi - lo)
    return value


def _sigma_influence(spec_i, spec_j, ch_i, ch_j) -> float:
    """The influence-function integral: trimmed, times the retained-mass
    factor; winsorized, with the edge steps."""
    table = _Table(spec_i, spec_j, ch_i, ch_j)
    if spec_i.mode is Mode.MTM:
        return gamma_factor(spec_i, spec_j) * _psi_integral(table)
    return _psi_integral(table, steps=True)


def _sigma_mwm_equal_props(spec_i, spec_j, ch_i, ch_j) -> float:
    """Winsorized covariance for equal proportions across the pair: the
    step-free V11 plus the paper's edge-atom terms."""
    a, b, bb = spec_i.a, spec_i.b, spec_i.b_bar
    table = _Table(spec_i, spec_j, ch_i, ch_j)
    i, j = table.i, table.j
    total = _psi_integral(table)
    dh_a_i, dh_b_i = i.edge_dh
    dh_a_j, dh_b_j = j.edge_dh
    if a > 0.0:
        total += a * a * (
            dh_a_j * i.by_parts(a, bb, bar=True) + dh_a_i * j.by_parts(a, bb, bar=True)
        )
        total += a ** 3 * (1.0 - a) * dh_a_i * dh_a_j
    if b > 0.0:
        total += b * b * (dh_b_j * i.by_parts(a, bb) + dh_b_i * j.by_parts(a, bb))
        total += b ** 3 * (1.0 - b) * dh_b_i * dh_b_j
    if a > 0.0 and b > 0.0:
        total += a * a * b * b * (dh_a_i * dh_b_j + dh_a_j * dh_b_i)
    return total


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric asymptotic variance-covariance matrix with the method
    used for each entry."""

    entries: np.ndarray
    methods: tuple[tuple[str, ...], ...]

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries).min())

    def __getitem__(self, idx):
        return self.entries[idx]


@dataclass(frozen=True)
class _Route:
    """A covariance route, the rule for the pairs it is valid for, and the
    refusal raised for a pair the rule rejects."""

    evaluate: Callable[[MomentSpec, MomentSpec, CompositeH, CompositeH], float]
    valid: Callable[[MomentSpec, MomentSpec], bool] = lambda spec_i, spec_j: True
    refusal: str = ""


_NOT_NESTED = (
    "closed form needs a_i <= a_j < 1-b_i <= 1-b_j (possibly after "
    "swapping the pair); use the kernel or alpha form instead"
)
_NOT_EQUAL = "equal-proportions form requires a_i=a_j and b_i=b_j"

# Every route of each mode, with its validity rule: the one place that
# decides which route applies to a pair.
_ROUTES = {
    (Mode.MTM, CovMethod.ALPHA): _Route(_sigma_alpha),
    (Mode.MTM, CovMethod.KERNEL): _Route(_sigma_kernel),
    (Mode.MTM, CovMethod.CLOSED): _Route(_sigma_closed, _nested_pair, _NOT_NESTED),
    (Mode.MTM, CovMethod.EQUAL_PROPS): _Route(
        _sigma_influence, _equal_props, _NOT_EQUAL
    ),
    (Mode.MWM, CovMethod.ALPHA): _Route(_sigma_alpha),
    (Mode.MWM, CovMethod.MWM_DECOMP): _Route(_sigma_influence),
    (Mode.MWM, CovMethod.EQUAL_PROPS): _Route(
        _sigma_mwm_equal_props, _equal_props, _NOT_EQUAL
    ),
}

# AUTO takes the first route of this order that is valid for the pair.
_AUTO_ORDER = (
    CovMethod.EQUAL_PROPS, CovMethod.CLOSED, CovMethod.MWM_DECOMP, CovMethod.KERNEL
)


def _valid_methods(spec_i: MomentSpec, spec_j: MomentSpec) -> list[CovMethod]:
    """The routes valid for a pair of one mode, in table order."""
    return [
        method
        for (mode, method), route in _ROUTES.items()
        if mode is spec_i.mode is spec_j.mode and route.valid(spec_i, spec_j)
    ]


def _as_method(method: CovMethod | str) -> CovMethod:
    """A route given as a ``CovMethod`` or as its name."""
    try:
        return CovMethod(method)
    except ValueError:
        valid = ", ".join(m.value for m in CovMethod)
        raise DomainError(
            f"unknown covariance method {method!r}; valid: {valid}"
        ) from None


def sigma_pair(
    spec_i: MomentSpec,
    spec_j: MomentSpec,
    model: DistributionModel,
    method: CovMethod | str = CovMethod.AUTO,
) -> tuple[float, str]:
    """One covariance entry of ``model`` plus the label of the route
    actually used; ``method`` is a ``CovMethod`` or its name, such as
    ``"auto"``."""
    ch_i, ch_j = _composite(model, spec_i), _composite(model, spec_j)
    method = _as_method(method)
    if spec_i.mode is not spec_j.mode:
        raise DomainError("covariance entries require a single estimation mode")
    if method is CovMethod.AUTO:
        valid = _valid_methods(spec_i, spec_j)
        method = next(m for m in _AUTO_ORDER if m in valid)
    route = _ROUTES.get((spec_i.mode, method))
    if route is None:
        mode = "trimmed" if spec_i.mode is Mode.MTM else "winsorized"
        raise DomainError(f"method {method.value} not applicable to {mode} mode")
    if not route.valid(spec_i, spec_j):
        raise OrderingError(route.refusal)
    return route.evaluate(spec_i, spec_j, ch_i, ch_j), method.value


def cov_matrix(
    specs: list[MomentSpec],
    model: DistributionModel,
    method: CovMethod | str = CovMethod.AUTO,
) -> CovMatrix:
    """Full k x k matrix, symmetrized as (M + M^T)/2 after assembly."""
    method = _as_method(method)
    _check_one_mode(specs)
    k = len(specs)
    entries = np.zeros((k, k))
    labels = [["" for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            try:
                value, used = sigma_pair(specs[i], specs[j], model, method=method)
            except Exception as exc:
                # Same object, so its type and attributes survive.
                exc.args = (f"entry ({i}, {j}): {exc}",)
                raise
            entries[i, j] = entries[j, i] = value
            labels[i][j] = labels[j][i] = used
    entries = 0.5 * (entries + entries.T)
    return CovMatrix(entries, tuple(tuple(row) for row in labels))
