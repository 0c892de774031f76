"""Quadrature: divergence, integrand failures and error labels of the
scalar wrapper and of the batched engine."""

import math

import numpy as np
import pytest

from robust_lmoments import (
    CompositeH,
    DivergenceError,
    DomainError,
    Exponential,
    Log,
    MomentSpec,
    Normal,
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
    ch = CompositeH(Exponential(1.0), t)
    with pytest.raises(DivergenceError, match="integrand failed") as info:
        population_moment(ch, MomentSpec(t, 0.1, 0.1))
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
    ch = CompositeH(Normal(0.0, 1.0), Log())
    with pytest.raises(DomainError, match="^log transform undefined") as info:
        population_moment(ch, MomentSpec(Log(), 0.1, 0.1))
    assert not isinstance(info.value, DivergenceError)


def test_extremely_bad_integrand_behavior_is_divergence():
    # QUADPACK ends 1/u on (0, 1) with ier=3 and a finite estimate (about
    # 709.87); the integral diverges, so that message is not roundoff.
    with pytest.raises(DivergenceError, match="bad integrand behavior"):
        integrate(lambda u: 1.0 / u, 0.0, 1.0)


class TestIntegrateBatch:
    def test_matches_integrate_on_smooth_kinked_and_log_integrands(self):
        # One batch with a different integrand per problem.
        scalar = [math.exp, lambda u: abs(u - 0.3), math.log]
        arrays = [np.exp, lambda u: np.abs(u - 0.3), np.log]

        def f(u, rows):
            out = np.empty_like(u)
            for k, g in enumerate(arrays):
                mine = rows == k
                out[mine] = g(u[mine])
            return out

        lo, hi = [0.1, 0.0, 0.0], [2.0, 1.0, 1.0]
        got = quadrature.integrate_batch(f, lo, hi)
        expected = [integrate(g, a, b) for g, a, b in zip(scalar, lo, hi)]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)
        assert got[2] == pytest.approx(-1.0, rel=1e-10)

    def test_reversed_limits_change_the_sign(self):
        got = quadrature.integrate_batch(lambda u, rows: u * u, [1.0], [0.0])
        assert got[0] == pytest.approx(-1.0 / 3.0, rel=1e-12)

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

    def test_empty_problems_give_zero(self):
        got = quadrature.integrate_batch(
            lambda u, rows: np.ones_like(u), [0.2, 0.5, 0.7], [0.2, 1.0, 0.7]
        )
        assert got.tolist() == [0.0, pytest.approx(0.5, rel=1e-14), 0.0]
        assert quadrature.integrate_batch(lambda u, rows: u, [], []).size == 0
