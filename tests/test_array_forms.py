"""Array forms of the quantile and the transform against their scalar twins."""

import math

import numpy as np
import pytest

from robust_lmoments import (
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
