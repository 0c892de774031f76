"""Quadrature wrapper: divergence, integrand failures and error labels."""

import math

import pytest

from robust_lmoments import (
    CompositeH,
    DivergenceError,
    DomainError,
    Log,
    MomentSpec,
    Normal,
    population_moment,
)
from robust_lmoments import quadrature
from robust_lmoments.quadrature import integrate


def test_subdivision_limit_is_divergence():
    with pytest.raises(DivergenceError, match="did not converge"):
        integrate(lambda u: math.sin(1.0 / u), 0.0, 1.0)


def test_plain_value_error_in_integrand_is_divergence():
    with pytest.raises(DivergenceError, match="integrand failed"):
        integrate(lambda u: math.log(u - 0.5), 0.0, 1.0)


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
