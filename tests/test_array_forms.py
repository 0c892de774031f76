"""Array forms of the quantile, the quantile density, the transform, its
derivative and the composite H against their scalar twins."""

import math

import numpy as np
import pytest

from robust_lmoments import (
    CompositeH,
    DomainError,
    Exponential,
    Identity,
    Log,
    Lognormal,
    Normal,
    Pareto,
    Power,
    RobustLMomentsError,
    Shifted,
    SingularityError,
    UnboundedQuantileError,
    Uniform,
    register_transform,
)

MODELS = [
    Uniform(-1.0, 3.0),
    Exponential(1.5),
    Pareto(2.5, 1.0),
    Lognormal(0.2, 0.5),
    Normal(0.5, 2.0),
]
CUBE_ROOT = register_transform(
    "signed-cube-root",
    lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x),
    lambda x: abs(x) ** (-2.0 / 3.0) / 3.0,
)
TRANSFORMS = [Identity(), Power(2.0), Power(2.5), Log(), Shifted(1.0), CUBE_ROOT]


def _grid(model):
    u = list(np.linspace(0.001, 0.999, 201))
    if model.bounded_below:
        u.append(0.0)
    if model.bounded_above:
        u.append(1.0)
    return np.array(u)


def _error_class(fn, *args):
    try:
        fn(*args)
    except RobustLMomentsError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_quantiles_match_scalar(model):
    u = _grid(model)
    expected = np.array([model.quantile(float(p)) for p in u])
    np.testing.assert_allclose(model.quantiles(u), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_values_match_scalar_or_raise_alike(model, transform):
    x = model.quantiles(_grid(model))
    scalar_error = None
    for point in x:
        scalar_error = scalar_error or _error_class(transform.value, float(point))
    if scalar_error is not None:
        assert _error_class(transform.values, x) is scalar_error
        return
    expected = np.array([transform.value(float(p)) for p in x])
    np.testing.assert_allclose(transform.values(x), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "scalar, array, bad",
    [
        (Log().value, Log().values, -0.5),
        (Power(2.5).value, Power(2.5).values, -0.5),
        (Normal(0.0, 1.0).quantile, Normal(0.0, 1.0).quantiles, 1.0),
        (Exponential(1.0).quantile, Exponential(1.0).quantiles, 1.0),
        (Uniform(0.0, 1.0).quantile, Uniform(0.0, 1.0).quantiles, 1.5),
        (Normal(0.0, 1.0).quantile, Normal(0.0, 1.0).quantiles, math.nan),
    ],
    ids=["log-negative", "power-negative", "normal-u1", "exponential-u1",
         "uniform-u-out-of-range", "nan-probability"],
)
def test_same_error_class_on_invalid_input(scalar, array, bad):
    expected = _error_class(scalar, bad)
    assert expected is not None and issubclass(expected, DomainError)
    if bad == 1.0:  # both families are unbounded above
        assert expected is UnboundedQuantileError
    assert _error_class(array, np.array([0.5, bad, 0.25])) is expected


def test_log_of_zero_is_minus_infinity_in_both_forms():
    assert Log().value(0.0) == -math.inf
    assert Log().values(np.array([0.0, 1.0])).tolist() == [-math.inf, 0.0]


def test_empty_arrays():
    assert Normal(0.0, 1.0).quantiles(np.array([])).size == 0
    assert Log().values(np.array([])).size == 0
    assert CUBE_ROOT.values(np.array([])).size == 0


INTERIOR = np.linspace(0.001, 0.999, 201)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_quantile_densities_match_scalar(model):
    expected = np.array([model.quantile_density(float(p)) for p in INTERIOR])
    np.testing.assert_allclose(
        model.quantile_densities(INTERIOR), expected, rtol=1e-14, atol=0
    )


@pytest.mark.parametrize("end", [0.0, 1.0])
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_quantile_densities_at_the_ends_raise_alike(model, end):
    expected = _error_class(model.quantile_density, end)
    got = _error_class(model.quantile_densities, np.array([0.5, end]))
    assert got is expected
    if expected is None:
        assert model.quantile_densities(np.array([end]))[0] == model.quantile_density(end)
    elif type(model) is not Uniform:
        assert expected is SingularityError


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_derivs_match_scalar_or_raise_alike(model, transform):
    x = model.quantiles(INTERIOR)
    scalar_error = None
    for point in x:
        scalar_error = scalar_error or _error_class(transform.deriv, float(point))
    if scalar_error is not None:
        assert _error_class(transform.derivs, x) is scalar_error
        return
    expected = np.array([transform.deriv(float(p)) for p in x])
    np.testing.assert_allclose(transform.derivs(x), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_log_derivative_at_non_positive_x_is_a_domain_error(bad):
    assert _error_class(Log().deriv, bad) is DomainError
    assert _error_class(Log().derivs, np.array([1.0, bad])) is DomainError


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_composite_arrays_match_scalar_or_raise_alike(model, transform):
    ch = CompositeH(model, transform)
    u = INTERIOR.reshape(3, 67)  # any shape, elementwise
    for scalar, array in ((ch.value, ch.value), (ch.deriv, ch.deriv)):
        scalar_error = None
        for point in INTERIOR:
            scalar_error = scalar_error or _error_class(scalar, float(point))
        if scalar_error is not None:
            assert _error_class(array, u) is scalar_error
            continue
        expected = np.array([scalar(float(p)) for p in INTERIOR]).reshape(u.shape)
        # The log of a quantile near 1 turns a one-ulp difference between
        # numpy's and math's exp or pow into a larger relative one, hence
        # the absolute floor of a few ulps of 1.
        np.testing.assert_allclose(array(u), expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("end", [0.0, 1.0])
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_composite_derivative_at_the_ends_raises_alike(model, end):
    ch = CompositeH(model, Identity())
    expected = _error_class(ch.deriv, end)
    assert _error_class(ch.deriv, np.array([0.5, end])) is expected
    if expected is None:
        assert ch.deriv(np.array([end]))[0] == ch.deriv(end)


def test_empty_derivative_arrays():
    assert Normal(0.0, 1.0).quantile_densities(np.array([])).size == 0
    assert Log().derivs(np.array([])).size == 0
    assert CUBE_ROOT.derivs(np.array([])).size == 0
    assert CompositeH(Normal(0.0, 1.0), Log()).deriv(np.array([])).size == 0
