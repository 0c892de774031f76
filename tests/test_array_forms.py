"""The quantile, the transform and the composite H on an array against
the same expressions on each float; the quantile density, the transform
derivative and the composite H', which have array forms only, against
central differences and closed forms."""

import math

import numpy as np
import pytest

from robust_lmoments import (
    CompositeH,
    DistributionModel,
    DomainError,
    Exponential,
    HTransform,
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
    expected = np.array([model.quantiles(float(p)) for p in u])
    np.testing.assert_allclose(model.quantiles(u), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_values_match_scalar_or_raise_alike(model, transform):
    x = model.quantiles(_grid(model))
    scalar_error = None
    for point in x:
        scalar_error = scalar_error or _error_class(transform.values, float(point))
    if scalar_error is not None:
        assert _error_class(transform.values, x) is scalar_error
        return
    expected = np.array([transform.values(float(p)) for p in x])
    np.testing.assert_allclose(transform.values(x), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "fn, bad",
    [
        (Log().values, -0.5),
        (Power(2.5).values, -0.5),
        (Normal(0.0, 1.0).quantiles, 1.0),
        (Exponential(1.0).quantiles, 1.0),
        (Uniform(0.0, 1.0).quantiles, 1.5),
        (Normal(0.0, 1.0).quantiles, math.nan),
    ],
    ids=["log-negative", "power-negative", "normal-u1", "exponential-u1",
         "uniform-u-out-of-range", "nan-probability"],
)
def test_same_error_class_on_invalid_input(fn, bad):
    expected = _error_class(fn, bad)
    assert expected is not None and issubclass(expected, DomainError)
    if bad == 1.0:  # both families are unbounded above
        assert expected is UnboundedQuantileError
    assert _error_class(fn, np.array([0.5, bad, 0.25])) is expected


def test_log_of_zero_is_minus_infinity_in_both_forms():
    assert Log().values(0.0) == -math.inf
    assert Log().values(np.array([0.0, 1.0])).tolist() == [-math.inf, 0.0]


def test_empty_arrays():
    assert Normal(0.0, 1.0).quantiles(np.array([])).size == 0
    assert Log().values(np.array([])).size == 0
    assert CUBE_ROOT.values(np.array([])).size == 0


INTERIOR = np.linspace(0.001, 0.999, 201)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_a_float_and_a_one_element_array_give_the_same_h(model, transform):
    # The float path runs through math and the array path through numpy,
    # which may differ by an ulp; a float comes back as a Python float.
    ch = CompositeH(model, transform)
    for p in (0.0, *np.linspace(0.0005, 0.9995, 401).tolist(), 1.0):
        scalar_error = _error_class(ch.value, p)
        if scalar_error is not None:
            assert _error_class(ch.value, np.array([p])) is scalar_error
            continue
        got = ch.value(p)
        assert type(got) is float
        np.testing.assert_allclose(ch.value(np.array([p])), [got], rtol=1e-15, atol=1e-15)



@pytest.mark.parametrize("model", MODELS, ids=str)
def test_quantile_densities_match_a_central_difference(model):
    step = 1e-4 * np.minimum(INTERIOR, 1.0 - INTERIOR)
    difference = (
        model.quantiles(INTERIOR + step) - model.quantiles(INTERIOR - step)
    ) / (2.0 * step)
    np.testing.assert_allclose(
        model.quantile_densities(INTERIOR), difference, rtol=1e-7, atol=0
    )


# q at an end of the unit interval: its value, or the refusal where it
# diverges; the composite of identity adds the unbounded quantile's
# refusal, which comes first.
DENSITY_AT_ENDS = {
    "uniform(-1,3)": (4.0, 4.0),
    "exponential(1.5)": (1.5, SingularityError),
    "pareto(2.5,1)": (0.4, SingularityError),
    "lognormal(0.2,0.5)": (SingularityError, SingularityError),
    "normal(0.5,2)": (SingularityError, SingularityError),
}
IDENTITY_DERIV_AT_ENDS = {
    "uniform(-1,3)": (4.0, 4.0),
    "exponential(1.5)": (1.5, UnboundedQuantileError),
    "pareto(2.5,1)": (0.4, UnboundedQuantileError),
    "lognormal(0.2,0.5)": (SingularityError, UnboundedQuantileError),
    "normal(0.5,2)": (UnboundedQuantileError, UnboundedQuantileError),
}


def _check_at_end(fn, end, expected):
    if isinstance(expected, float):
        assert fn(np.array([0.5, end]))[1] == expected
    else:
        assert _error_class(fn, np.array([0.5, end])) is expected


@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_quantile_densities_at_the_ends(model, end):
    _check_at_end(model.quantile_densities, float(end), DENSITY_AT_ENDS[str(model)][end])


@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_composite_derivative_at_the_ends(model, end):
    _check_at_end(
        CompositeH(model, Identity()).deriv,
        float(end),
        IDENTITY_DERIV_AT_ENDS[str(model)][end],
    )


@pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_quantile_densities_refuse_u_outside_the_unit_interval(model, bad):
    assert _error_class(model.quantile_densities, np.array([0.5, bad])) is DomainError


def _anywhere(x):
    return True


# h' in closed form and the domain of x it is defined on, per point.
DERIVS = {
    "identity": (lambda x: 1.0, _anywhere),
    "power(2)": (lambda x: 2.0 * x, _anywhere),
    "power(2.5)": (lambda x: 2.5 * math.sqrt(x) ** 3, lambda x: x >= 0.0),
    "log": (lambda x: 1.0 / x, lambda x: x > 0.0),
    "shifted(1)": (lambda x: 1.0, _anywhere),
    "signed-cube-root": (lambda x: 1.0 / (3.0 * (x * x) ** (1.0 / 3.0)), _anywhere),
}


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_derivs_match_closed_forms_or_refuse_outside_the_domain(model, transform):
    x = model.quantiles(INTERIOR)
    closed_form, defined = DERIVS[str(transform)]
    if not all(defined(p) for p in x):
        assert _error_class(transform.derivs, x) is DomainError
        return
    expected = np.array([closed_form(float(p)) for p in x])
    np.testing.assert_allclose(transform.derivs(x), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_log_derivative_at_non_positive_x_is_a_domain_error(bad):
    assert _error_class(Log().derivs, np.array([1.0, bad])) is DomainError


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_composite_values_match_scalar_or_raise_alike(model, transform):
    ch = CompositeH(model, transform)
    u = INTERIOR.reshape(3, 67)  # any shape, elementwise
    scalar_error = None
    for point in INTERIOR:
        scalar_error = scalar_error or _error_class(ch.value, float(point))
    if scalar_error is not None:
        assert _error_class(ch.value, u) is scalar_error
        return
    expected = np.array([ch.value(float(p)) for p in INTERIOR]).reshape(u.shape)
    # The log of a quantile near 1 turns a one-ulp difference between
    # numpy's and math's exp or pow into a larger relative one, hence
    # the absolute floor of a few ulps of 1.
    np.testing.assert_allclose(ch.value(u), expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=str)
@pytest.mark.parametrize("model", MODELS, ids=str)
def test_composite_derivative_is_elementwise_in_any_shape(model, transform):
    ch = CompositeH(model, transform)
    u = INTERIOR.reshape(3, 67)
    error = _error_class(ch.deriv, INTERIOR)
    if error is not None:
        assert _error_class(ch.deriv, u) is error
        return
    one_at_a_time = np.array([ch.deriv(float(p)) for p in INTERIOR]).reshape(u.shape)
    # numpy's pow may differ by an ulp between an array and a scalar.
    np.testing.assert_allclose(ch.deriv(u), one_at_a_time, rtol=1e-14, atol=0)


def test_a_family_or_transform_without_an_array_derivative_refuses():
    class Bare(DistributionModel):
        param_bounds = ()

    class BareTransform(HTransform):
        pass

    with pytest.raises(NotImplementedError):
        Bare().quantile_densities(np.array([0.5]))
    with pytest.raises(NotImplementedError):
        BareTransform().derivs(np.array([0.5]))
    for value in (0.5, np.array([0.5])):  # no fallback for the values either
        with pytest.raises(NotImplementedError):
            Bare().quantiles(value)
        with pytest.raises(NotImplementedError):
            BareTransform().values(value)


def test_empty_derivative_arrays():
    assert Normal(0.0, 1.0).quantile_densities(np.array([])).size == 0
    assert Log().derivs(np.array([])).size == 0
    assert CUBE_ROOT.derivs(np.array([])).size == 0
    assert CompositeH(Normal(0.0, 1.0), Log()).deriv(np.array([])).size == 0
