"""Quadrature: divergence, integrand failures and error labels of the
scalar wrapper and of the batched engine."""

import math
import warnings

import numpy as np
import pytest

from robust_lmoments import (
    CompositeH,
    DivergenceError,
    DomainError,
    Exponential,
    Log,
    Lognormal,
    MomentSpec,
    Normal,
    Power,
    parse_transform,
    population_moment,
    register_transform,
)
from robust_lmoments import quadrature
from robust_lmoments.quadrature import integrate


def test_subdivision_limit_is_divergence():
    with pytest.raises(DivergenceError, match="did not converge"):
        integrate(lambda u: math.sin(1.0 / u), 0.0, 1.0)


def test_plain_value_error_in_integrand_is_divergence():
    with pytest.raises(DivergenceError, match="integrand failed"):
        integrate(lambda u: math.log(u - 0.5), 0.0, 1.0)


def test_arithmetic_error_in_integrand_is_divergence():
    with pytest.raises(DivergenceError, match="integrand failed on .*division by zero"):
        integrate(lambda u: 1.0 / (u - u), 0.0, 1.0)


def test_zero_division_in_custom_transform_is_divergence():
    register_transform("divide-by-zero", lambda x: x / (x - x), lambda x: 0.0)
    t = parse_transform("divide-by-zero")
    with pytest.raises(DivergenceError, match="integrand failed") as info:
        population_moment(Exponential(1.0), MomentSpec(t, 0.1, 0.1))
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_roundoff_message_keeps_the_value(monkeypatch):
    # QUADPACK reports roundoff-limited accuracy (ier=2) with a message;
    # that is not divergence, so the estimate is returned as computed.
    message = "The occurrence of roundoff error is detected, which prevents ..."
    monkeypatch.setattr(
        quadrature, "quad", lambda *args, **kwargs: (0.25, 1e-9, {}, message)
    )
    assert integrate(lambda u: u, 0.0, 1.0) == 0.25


def test_package_error_in_integrand_passes_through():
    with pytest.raises(DomainError, match="^log transform undefined") as info:
        population_moment(Normal(0.0, 1.0), MomentSpec(Log(), 0.1, 0.1))
    assert not isinstance(info.value, DivergenceError)


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan)], ids=["lo", "hi"])
def test_nan_limit_is_domain_error(lo, hi):
    with pytest.raises(DomainError, match="must not be NaN"):
        integrate(lambda u: u, lo, hi)


def test_reversed_limits_are_a_domain_error():
    with pytest.raises(DomainError, match=r"must have lo <= hi, got \[0\.9, 0\.1\]"):
        integrate(lambda u: u, 0.9, 0.1)


def test_extremely_bad_integrand_behavior_is_divergence():
    # QUADPACK ends 1/u on (0, 1) with ier=3 and a finite estimate (about
    # 709.87); the integral diverges, so that message is not roundoff.
    with pytest.raises(DivergenceError, match="bad integrand behavior"):
        integrate(lambda u: 1.0 / u, 0.0, 1.0)


# Intervals strictly inside (0, 1) at the reach of the logit map: deep in
# the lower tail, from the least subnormal, up to the last double below 1,
# and all but 1e-12 at each end.
EXTREME_INTERIOR = [
    (1e-300, 1e-290), (5e-324, 0.5), (0.5, 1.0 - 2.0**-53), (1e-12, 1.0 - 1e-12)
]


@pytest.mark.parametrize("lo, hi", EXTREME_INTERIOR, ids=["deep", "subnormal", "top", "wide"])
def test_logit_map_keeps_the_length_of_extreme_intervals(lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = integrate(lambda u: 1.0, lo, hi)
        batched = quadrature.integrate_batch(lambda u, rows: np.ones_like(u), [lo], [hi])
    assert scalar == pytest.approx(hi - lo, rel=1e-12, abs=0)
    assert batched[0] == pytest.approx(hi - lo, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "ch, lo, hi, expected",
    [
        (CompositeH(Lognormal(0.0, 0.5), Power(2.0)), 0.05, 0.95, 1.2141227360994757),
        (CompositeH(Exponential(1.0), Log()), 0.05, 0.9, -0.4938559668349177),
    ],
    ids=["lognormal-power2", "exponential-log"],
)
def test_interior_window_takes_few_points(ch, lo, hi, expected):
    # In u these took 189 and 105 points; in logit coordinates each is two
    # pieces of one 21-point rule.
    points = []

    def f(u):
        points.append(u)
        return ch.value(u)

    assert integrate(f, lo, hi) == pytest.approx(expected, rel=1e-13)
    assert len(points) <= 42


def test_problems_that_reach_an_end_keep_the_u_map():
    # Values of the u-space paths (QUADPACK's extrapolation; the cubic t-map
    # with graded end splits), unchanged by the logit map of interior problems.
    assert integrate(math.log, 0.0, 1.0).hex() == "-0x1.fffffffffffffp-1"
    assert integrate(math.exp, 0.1, 2.0).hex() == "0x1.922b2cbfe5d79p+2"

    def f(u, rows):
        return np.where(rows[:, None] == 0, np.log(u), np.exp(u))

    expected = {
        1: ["-0x1.0000000000012p+0", "0x1.922b2cbfe5d78p+2"],
        4: ["-0x1.0000000000001p+0", "0x1.922b2cbfe5d79p+2"],
    }
    for panels, values in expected.items():
        got = quadrature.integrate_batch(f, [0.0, 0.1], [1.0, 2.0], panels=panels)
        assert [x.hex() for x in got] == values


class _PanelsHeld:
    """Integrand wrapper for one problem on (0, 1) that counts the panels
    the problem holds after each round.  Each panel is known by the span of
    its nodes; a new panel's centre node lies inside the node span of the
    panel it was cut from, which the new pieces replace."""

    def __init__(self):
        self.spans = np.empty((0, 2))
        self.most = 0

    def __call__(self, u, values):
        centre = u[:, 10, None]
        inside = (self.spans[:, 0] < centre) & (centre < self.spans[:, 1])
        assert (inside.sum(axis=1) == 1).all() or not self.spans.size
        cut = inside.any(axis=0)
        self.spans = np.concatenate([self.spans[~cut], np.sort(u[:, [0, 20]], axis=1)])
        self.most = max(self.most, len(self.spans))
        return values


class TestIntegrateBatch:
    @pytest.mark.parametrize("panels", [1, 4])
    def test_matches_integrate_on_smooth_kinked_and_log_integrands(self, panels):
        # One batch with a different integrand per problem, each starting
        # as one panel or as several equal ones.
        scalar = [math.exp, lambda u: abs(u - 0.3), math.log]
        arrays = [np.exp, lambda u: np.abs(u - 0.3), np.log]

        def f(u, rows):
            out = np.empty_like(u)
            for k, g in enumerate(arrays):
                mine = rows == k
                out[mine] = g(u[mine])
            return out

        lo, hi = [0.1, 0.0, 0.0], [2.0, 1.0, 1.0]
        got = quadrature.integrate_batch(f, lo, hi, panels=panels)
        expected = [integrate(g, a, b) for g, a, b in zip(scalar, lo, hi)]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)
        assert got[2] == pytest.approx(-1.0, rel=1e-10)

    # Nodes per integrand call on the problem set above: the engine's work,
    # round for round (panels 1: 18 rounds, 1281 nodes; 4: 16, 1260).  The
    # third and fourth rounds grade the log's end panel and the kink's.
    WORK = {
        1: [63, 84, 336, 210] + [42] * 14,
        4: [252, 84, 210, 210] + [42] * 12,
    }

    @pytest.mark.parametrize("panels", [1, 4])
    def test_work_per_round_is_pinned(self, panels):
        arrays = [np.exp, lambda u: np.abs(u - 0.3), np.log]
        widths = []

        def f(u, rows):
            widths.append(u.size)
            out = np.empty_like(u)
            for k, g in enumerate(arrays):
                mine = rows == k
                out[mine] = g(u[mine])
            return out

        quadrature.integrate_batch(f, [0.1, 0.0, 0.0], [2.0, 1.0, 1.0], panels=panels)
        assert widths == self.WORK[panels]

    @pytest.mark.parametrize("g", [np.log, lambda u: np.log1p(-u)], ids=["log-u", "log-1-u"])
    def test_log_singular_end_takes_few_rounds(self, g):
        # The panel next to the singular end is cut toward it in one round;
        # bisecting it once a round took 14 rounds.
        rounds = []

        def f(u, rows):
            rounds.append(u.shape[0])
            return g(u)

        got = quadrature.integrate_batch(f, [0.0], [1.0])
        assert abs(got[0] + 1.0) <= 1e-12
        assert len(rounds) <= 5

    def test_interior_kink_is_bisected(self):
        panels = []

        def f(u, rows):
            panels.append(u.shape[0])
            return np.abs(u - 0.3)

        got = quadrature.integrate_batch(f, [0.0], [1.0])
        assert got[0] == pytest.approx(0.29, rel=1e-10)
        assert len(panels) > 10 and panels[-10:] == [2] * 10

    @pytest.mark.parametrize(
        "g, limit",
        [(lambda u: np.sin(1.0 / u), 2000), (lambda u: 1.0 / u, 40)],
        ids=["sin-1-over-u", "1-over-u"],
    )
    def test_subdivision_limit_counts_every_piece(self, g, limit, monkeypatch):
        # 1/u grades its end panel into 8 pieces a round; at the default
        # limit its nodes overflow first (see the test below).
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", limit)
        held = _PanelsHeld()
        message = rf"maximum number of subdivisions \({limit}\)"
        with np.errstate(divide="ignore", over="ignore"), \
                pytest.raises(DivergenceError, match=message):
            quadrature.integrate_batch(lambda u, rows: held(u, g(u)), [0.0], [1.0])
        assert held.most <= limit

    def test_divergent_end_is_divergence(self):
        with np.errstate(divide="ignore", over="ignore"), \
                pytest.raises(DivergenceError, match="not finite"):
            quadrature.integrate_batch(lambda u, rows: 1.0 / u, [0.0], [1.0])

    @pytest.mark.parametrize(
        "lo, hi",
        [([np.nan], [1.0]), ([0.0], [np.nan]), ([0.0, 0.0], [1.0, np.inf]),
         ([-np.inf], [0.0])],
        ids=["nan-lo", "nan-hi", "inf-hi", "inf-lo"],
    )
    def test_non_finite_limit_is_domain_error(self, lo, hi):
        # The t-map needs a finite interval; refused before any arithmetic,
        # so no overflow warning leaks either.
        with pytest.raises(DomainError, match="needs finite limits"):
            quadrature.integrate_batch(lambda u, rows: u, lo, hi)

    @pytest.mark.parametrize("panels", [0, -1])
    def test_fewer_than_one_panel_is_domain_error(self, panels):
        with pytest.raises(DomainError, match=f"panels >= 1, got {panels}"):
            quadrature.integrate_batch(lambda u, rows: u, [0.0], [1.0], panels=panels)

    @pytest.mark.parametrize("hi", [2.0, 0.9], ids=["cubic-map", "logit-map"])
    @pytest.mark.parametrize("panels", [1, 2, 4])
    def test_value_does_not_depend_on_the_rounds_of_its_batch(self, panels, hi):
        # exp on [0.1, hi] converges in round 1.  Beside two more copies the
        # whole batch does, and the engine returns straight after that round
        # with each problem's panels summed in order; beside a kink and a log
        # singularity its estimate goes through the per-problem sums of later
        # rounds.  The batch keeps its size and exp its first rows, because a
        # BLAS product can round a row differently at another position or
        # batch size.
        kinked = [np.exp, lambda u: np.abs(u - 0.3), np.log]

        def f(u, rows):
            out = np.empty_like(u)
            for k, g in enumerate(kinked):
                mine = rows == k
                out[mine] = g(u[mine])
            return out

        mixed = quadrature.integrate_batch(f, [0.1, 0.0, 0.0], [hi, 1.0, 1.0], panels=panels)
        alike = quadrature.integrate_batch(
            lambda u, rows: np.exp(u), [0.1] * 3, [hi] * 3, panels=panels
        )
        assert alike[0] == mixed[0]

    def test_integrand_failure_reports_the_limits_of_its_round(self):
        def f(u, rows):
            raise ValueError("math domain error")

        span = r"integrand failed on \[0\.2, 0\.6\]"
        with pytest.raises(DivergenceError, match=span):
            quadrature.integrate_batch(f, [0.2, 0.5], [0.3, 0.6])

    def test_reversed_limits_are_refused(self):
        with pytest.raises(DomainError, match=r"needs lo <= hi; problem 1 has \[0\.9, 0\.1\]"):
            quadrature.integrate_batch(lambda u, rows: u * u, [0.0, 0.9], [1.0, 0.1])

    def test_oscillating_singularity_is_divergence(self):
        with pytest.raises(DivergenceError, match="did not converge"):
            quadrature.integrate_batch(lambda u, rows: np.sin(1.0 / u), [0.0], [1.0])

    def test_plain_value_error_in_integrand_is_divergence(self):
        def f(u, rows):
            raise ValueError("math domain error")

        with pytest.raises(DivergenceError, match="integrand failed"):
            quadrature.integrate_batch(f, [0.0], [1.0])

    @pytest.mark.parametrize("error", [ZeroDivisionError, FloatingPointError])
    def test_arithmetic_error_in_integrand_is_divergence(self, error):
        def f(u, rows):
            raise error("divide by zero")

        with pytest.raises(DivergenceError, match="integrand failed"):
            quadrature.integrate_batch(f, [0.0], [1.0])

    def test_package_error_in_integrand_passes_through(self):
        ch = CompositeH(Normal(0.0, 1.0), Log())
        with pytest.raises(DomainError, match="^log transform undefined") as info:
            quadrature.integrate_batch(lambda u, rows: ch.value(u), [0.1], [0.9])
        assert not isinstance(info.value, DivergenceError)

    def test_non_finite_integrand_is_divergence(self):
        with pytest.raises(DivergenceError, match="not finite"):
            quadrature.integrate_batch(
                lambda u, rows: np.where(u > 0.5, np.inf, 1.0), [0.0], [1.0]
            )

    def test_overflow_in_the_integrand_is_divergence_not_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="not finite"):
                quadrature.integrate_batch(
                    lambda u, rows: np.exp(1000.0 * u), [0.5], [0.9]
                )

    @pytest.mark.parametrize("panels", [1, 4])
    def test_empty_problems_give_zero(self, panels):
        got = quadrature.integrate_batch(
            lambda u, rows: np.ones_like(u), [0.2, 0.5, 0.7], [0.2, 1.0, 0.7],
            panels=panels,
        )
        assert got.tolist() == [0.0, pytest.approx(0.5, rel=1e-14), 0.0]
        assert quadrature.integrate_batch(lambda u, rows: u, [], []).size == 0


# (integrand of a float or an array, lo, hi): smooth but peaked, so that it takes
# several subdivisions; odd about the middle of its interval, so that its
# value is 0 to rounding; and singular at an end.
UNIT_FREE_CASES = {
    "smooth": (lambda u: 1.0 / (0.01 + (u - 0.3) ** 2), 0.1, 0.9),
    "odd": (lambda u: u - 0.575, 0.25, 0.9),
    "end-singular": (lambda u: 1.0 / np.sqrt(u), 0.0, 0.5),
}


@pytest.mark.parametrize("k", [-60, 40])
@pytest.mark.parametrize("case", sorted(UNIT_FREE_CASES))
def test_tolerance_is_unit_free(case, k):
    # No absolute floor: both quadratures of 2^k f take the same steps as
    # those of f, so the values scale by 2^k exactly.
    g, lo, hi = UNIT_FREE_CASES[case]
    scale = 2.0**k

    def scalar(c):
        return integrate(lambda u: c * g(u), lo, hi)

    def batched(c):
        return quadrature.integrate_batch(lambda u, rows: c * g(u), [lo], [hi])[0]

    assert scalar(scale) == scale * scalar(1.0)
    assert batched(scale) == scale * batched(1.0)
