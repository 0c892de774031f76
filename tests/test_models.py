"""Distribution families, transforms, and the composite H function."""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats

from robust_lmoments import (
    CompositeH,
    CustomTransform,
    DistributionModel,
    DomainError,
    Exponential,
    Identity,
    Log,
    Lognormal,
    ModelTemplate,
    Normal,
    Pareto,
    Power,
    Shifted,
    Uniform,
    UnboundedQuantileError,
    parse_model,
    parse_model_template,
    parse_transform,
    register_transform,
)
from robust_lmoments.models import _check_unit, central_difference

ALL_MODELS = [
    Uniform(0.0, 1.0),
    Uniform(-2.0, 5.0),
    Exponential(1.0),
    Exponential(2.5),
    Pareto(2.5, 1.0),
    Lognormal(0.0, 0.5),
    Lognormal(0.3, 1.0),
    Normal(0.0, 1.0),
    Normal(1.5, 0.7),
]


def scipy_frozen(model):
    """The same member from ``scipy.stats``, an independent reference."""
    if isinstance(model, Uniform):
        return stats.uniform(loc=model.lo, scale=model.hi - model.lo)
    if isinstance(model, Exponential):
        return stats.expon(scale=model.scale)
    if isinstance(model, Pareto):
        return stats.pareto(model.shape, scale=model.xm)
    if isinstance(model, Lognormal):
        return stats.lognorm(model.sigma, scale=math.exp(model.mu))
    return stats.norm(model.mu, model.sigma)


def transforms_for(model):
    ts = [Identity(), Shifted(1.0)]
    if model.quantiles(1e-6) > 0:
        ts += [Power(2.0), Log()]
    elif isinstance(model, Normal):
        ts += [Power(2.0)]
    return ts


class TestQuantiles:
    def test_uniform_identity_quantile(self):
        assert Uniform(0, 1).quantiles(0.3) == 0.3

    def test_exponential_median(self):
        assert Exponential(1.0).quantiles(0.5) == pytest.approx(math.log(2), rel=1e-12)

    def test_exponential_scale_quantile(self):
        assert Exponential(2.0).quantiles(0.75) == pytest.approx(
            2.0 * math.log(4), rel=1e-12
        )

    def test_pareto_quantile(self):
        m = Pareto(2.0, 3.0)
        assert m.quantiles(0.75) == pytest.approx(3.0 * 4 ** 0.5, rel=1e-12)

    def test_normal_median(self):
        assert Normal(1.0, 2.0).quantiles(0.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_monotone(self, model):
        us = np.linspace(0.001, 0.999, 200)
        qs = [model.quantiles(u) for u in us]
        assert all(x <= y + 1e-12 for x, y in zip(qs, qs[1:]))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_scipy_ppf(self, model):
        ppf = scipy_frozen(model).ppf
        for u in np.linspace(0.001, 0.999, 97):
            assert model.quantiles(u) == pytest.approx(ppf(u), rel=1e-10)

    def test_unbounded_endpoints_raise(self):
        with pytest.raises(UnboundedQuantileError):
            Normal(0, 1).quantiles(0.0)
        with pytest.raises(UnboundedQuantileError):
            Exponential(1.0).quantiles(1.0)
        assert Exponential(1.0).quantiles(0.0) == 0.0
        assert Uniform(0, 1).quantiles(1.0) == 1.0

    def test_out_of_range_u(self):
        with pytest.raises(DomainError):
            Uniform(0, 1).quantiles(1.5)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            Uniform(1.0, 0.0)
        with pytest.raises(DomainError):
            Exponential(-1.0)
        with pytest.raises(DomainError):
            Normal(0.0, 0.0)


class TestCompositeH:
    def test_uniform_identity(self):
        ch = CompositeH(Uniform(0, 1), Identity())
        assert ch.value(0.7) == 0.7
        assert ch.deriv(0.3) == 1.0

    def test_exponential_power_value(self):
        ch = CompositeH(Exponential(1.0), Power(2.0))
        assert ch.value(0.5) == pytest.approx(math.log(2) ** 2, rel=1e-12)

    def test_lognormal_log_median(self):
        ch = CompositeH(Lognormal(0.0, 1.0), Log())
        assert ch.value(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_identity_deriv(self):
        ch = CompositeH(Exponential(1.0), Identity())
        assert ch.deriv(0.5) == pytest.approx(2.0, rel=1e-12)

    def test_exponential_power_deriv(self):
        ch = CompositeH(Exponential(1.0), Power(2.0))
        assert ch.deriv(0.5) == pytest.approx(2.0 * math.log(2) * 2.0, rel=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_deriv_matches_finite_difference(self, model):
        rng = np.random.default_rng(1234)
        us = rng.uniform(0.001, 0.999, size=1000)
        step = 1e-6
        for transform in transforms_for(model):
            ch = CompositeH(model, transform)
            for u in us:
                num = (ch.value(u + step) - ch.value(u - step)) / (2 * step)
                exact = ch.deriv(u)
                assert num == pytest.approx(
                    exact, rel=1e-5, abs=1e-8
                ), f"{model} {transform} u={u}"

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_value_monotone_for_nondecreasing_h(self, model):
        us = np.linspace(0.01, 0.99, 150)
        for transform in transforms_for(model):
            if isinstance(transform, Power) and model.quantiles(0.01) < 0:
                continue  # x^2 is not monotone across a sign change
            ch = CompositeH(model, transform)
            vals = [ch.value(u) for u in us]
            assert all(x <= y + 1e-10 for x, y in zip(vals, vals[1:]))


def differenced_grads(model, u, step=1e-6):
    """Central difference of ``quantiles`` in each parameter, the
    reference for the closed-form gradients."""
    columns = []
    for j, p in enumerate(model.params):
        h = step * (1.0 + abs(p))
        up, dn = list(model.params), list(model.params)
        up[j] += h
        dn[j] -= h
        columns.append(
            (type(model)(*up).quantiles(u) - type(model)(*dn).quantiles(u)) / (2 * h)
        )
    return np.stack(columns)


@dataclass(frozen=True)
class UserGumbel(DistributionModel):
    """A user family with a quantile only, so ``quantile_grads`` takes the
    base-class difference; d Q / d mu = 1 and d Q / d beta = -log(-log u)."""

    mu: float = 0.0
    beta: float = 1.0

    family = "scalar-gumbel"
    param_bounds = ((-math.inf, math.inf), (0.0, math.inf))

    def quantiles(self, u):
        u = _check_unit(u, self._infinite_ends)
        return self.mu - self.beta * np.log(-np.log(u))


@dataclass(frozen=True)
class BoundedGumbel(UserGumbel):
    """A beta domain with an upper end."""

    param_bounds = ((-math.inf, math.inf), (0.0, 1.0))


@dataclass(frozen=True)
class SteepGumbel(UserGumbel):
    """A beta domain with a lower end away from 0."""

    param_bounds = ((-math.inf, math.inf), (1.0, math.inf))


@dataclass(frozen=True)
class NarrowGumbel(UserGumbel):
    """A beta domain narrower than any difference step at beta = 1."""

    param_bounds = ((-math.inf, math.inf), (1.0 - 1e-7, 1.0 + 1e-7))


class TestQuantileGrads:
    U = np.linspace(0.001, 0.999, 201).reshape(3, 67)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=str)
    def test_closed_forms_match_a_difference(self, model):
        got = model.quantile_grads(self.U)
        assert got.shape == (len(model.params),) + self.U.shape
        np.testing.assert_allclose(
            got, differenced_grads(model, self.U), rtol=1e-7, atol=1e-7
        )

    @pytest.mark.parametrize("model", [Exponential(1.0), Pareto(2.5, 1.0), Normal()], ids=str)
    def test_unbounded_endpoint_raises(self, model):
        with pytest.raises(UnboundedQuantileError):
            model.quantile_grads(np.array([0.5, 1.0]))

    def test_fallback_on_a_user_family(self):
        u = np.array([0.01, 0.3, 0.5, 0.99])
        got = UserGumbel(0.5, 2.0).quantile_grads(u)
        exact = np.stack([np.ones_like(u), -np.log(-np.log(u))])
        np.testing.assert_allclose(got, exact, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize(
        "model",
        [BoundedGumbel(0.5, 1.0 - 1e-7), SteepGumbel(0.5, 1.0 + 1e-7)],
        ids=["backward", "forward"],
    )
    def test_fallback_is_one_sided_at_a_domain_edge(self, model):
        # a step of 1e-6 beta leaves (0, 1) above and (1, inf) below: a
        # one-sided difference, exact up to rounding because Q is linear in beta
        u = np.array([0.01, 0.3, 0.99])
        np.testing.assert_allclose(model.quantile_grads(u)[1], -np.log(-np.log(u)), rtol=1e-7)

    @pytest.mark.parametrize("mu", [0.0, 1e-17, 0.5])
    def test_a_location_steps_with_the_model_scale(self, mu):
        # A step of 1e-6 |mu| would not move Q at mu = 1e-17, nor exist at 0.
        u = np.array([0.01, 0.3, 0.99])
        got = UserGumbel(mu, 2.0).quantile_grads(u)
        np.testing.assert_allclose(got[0], np.ones_like(u), rtol=1e-7)

    def test_a_positive_parameter_steps_relative_to_itself(self):
        # d beta^2 / d beta at beta = 1e-7: a step of 1e-6 (1 + beta) leaves
        # beta > 0, and its forward difference reads 1.2e-6; 1e-6 beta stays inside.
        template = ModelTemplate.all_free(UserGumbel())
        got = central_difference(lambda q: q[1] ** 2, template, [0.5, 1e-7])
        np.testing.assert_allclose(got, [0.0, 2e-7], rtol=1e-8, atol=1e-15)

    def test_fallback_refuses_a_parameter_it_cannot_step(self):
        with pytest.raises(DomainError, match="cannot difference parameter 1"):
            NarrowGumbel(0.5, 1.0).quantile_grads(np.array([0.5]))


class TestParsing:
    def test_parse_model_case_insensitive(self):
        assert parse_model("Exponential(1.0)") == Exponential(1.0)
        assert parse_model("PARETO(2.5, 1.0)") == Pareto(2.5, 1.0)

    def test_parse_model_malformed(self):
        with pytest.raises(DomainError):
            parse_model("exponential")
        with pytest.raises(DomainError):
            parse_model("gamma(2.0)")
        with pytest.raises(DomainError):
            parse_model("normal(a,b)")

    def test_parse_template_free_slots(self):
        t = parse_model_template("lognormal(?, 0.5)")
        assert t.free_count == 1
        assert t.free_indices == (0,)
        assert t.bind([0.3]) == Lognormal(0.3, 0.5)

    def test_parse_template_all_free(self):
        t = parse_model_template("normal(?,?)")
        assert t.free_count == 2
        assert t.bind([1.0, 2.0]) == Normal(1.0, 2.0)

    def test_template_bind_wrong_length(self):
        t = parse_model_template("exponential(?)")
        with pytest.raises(DomainError):
            t.bind([1.0, 2.0])

    def test_parse_transform(self):
        assert parse_transform("identity") == Identity()
        assert parse_transform("Power(2)") == Power(2.0)
        assert parse_transform("log") == Log()
        assert parse_transform("shifted(1.5)") == Shifted(1.5)
        with pytest.raises(DomainError):
            parse_transform("cube")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_model, "normal(0,1,2)"),
            (parse_model_template, "exponential(?,1)"),
            (parse_transform, "power(1,2)"),
            (parse_transform, "log(1)"),
        ],
    )
    def test_too_many_parameters(self, parse, text):
        with pytest.raises(DomainError, match="takes at most"):
            parse(text)

    def test_omitted_parameters_keep_their_defaults(self):
        assert parse_model("normal(2)") == Normal(2.0, 1.0)
        assert parse_transform("power()") == Power(2.0)

    def test_free_parameter_is_not_a_model(self):
        with pytest.raises(DomainError, match="non-numeric"):
            parse_model("normal(?,1)")
        with pytest.raises(DomainError, match="non-numeric"):
            parse_transform("power(?)")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_model, "normal(nan,1)"),
            (parse_model, "normal(inf,1)"),
            (parse_model, "lognormal(nan,1)"),
            (parse_model, "uniform(0,inf)"),
            (parse_model_template, "normal(?,-inf)"),
            (parse_transform, "power(nan)"),
            (parse_transform, "shifted(nan)"),
        ],
    )
    def test_non_finite_parameter_is_a_domain_error(self, parse, text):
        # These used to parse and then fail as a DivergenceError of the
        # first integral over H.
        with pytest.raises(DomainError, match="^non-finite parameter in"):
            parse(text)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Normal(math.nan, 1.0),
            lambda: Lognormal(math.inf, 1.0),
            lambda: Normal(0.0, math.inf),
            lambda: Uniform(0.0, math.inf),
            lambda: Pareto(math.inf, 1.0),
            lambda: Exponential(-math.inf),
            lambda: Power(math.nan),
            lambda: Shifted(math.nan),
        ],
        ids=[
            "normal-nan-mu", "lognormal-inf-mu", "normal-inf-sigma", "uniform-inf-hi",
            "pareto-inf-shape", "exponential-minus-inf", "power-nan", "shifted-nan",
        ],
    )
    def test_non_finite_parameter_is_refused_on_construction(self, make):
        # These used to construct and then fail as a DivergenceError of the
        # first integral over H.
        with pytest.raises(DomainError, match="must be finite, got"):
            make()

    def test_bare_name_only_for_parameterless_transform(self):
        with pytest.raises(DomainError, match="unknown transform"):
            parse_transform("power")

    def test_power_exponent_floor(self):
        with pytest.raises(DomainError):
            Power(0.5)

    def test_register_custom_transform(self):
        t = register_transform("expm1", math.expm1, math.exp)
        assert isinstance(t, CustomTransform)
        back = parse_transform("expm1")
        assert back.values(0.0) == 0.0
        assert back.derivs(np.array([0.0, 1.0])).tolist() == [1.0, math.e]
        ch = CompositeH(Uniform(0, 1), back)
        step = 1e-6
        num = (ch.value(0.5 + step) - ch.value(0.5 - step)) / (2 * step)
        assert num == pytest.approx(ch.deriv(0.5), rel=1e-6)

    @pytest.mark.parametrize("name", ["identity", "Identity", "POWER", "log", "Shifted"])
    def test_a_built_in_transform_name_is_refused(self, name):
        # Registered, "Identity" made every later parse_transform("identity")
        # return the custom transform.
        with pytest.raises(DomainError, match=rf"^transform name '{name}' is built in$"):
            register_transform(name, math.expm1, math.exp)
        assert parse_transform("identity") == Identity()

    @pytest.mark.parametrize(
        "name, built_in",
        [("power(2)", Power(2.0)), ("Shifted(1)", Shifted(1.0)), ("IDENTITY()", Identity())],
        ids=["power", "shifted", "identity"],
    )
    def test_a_call_of_a_built_in_transform_is_refused(self, name, built_in):
        # Registered, "power(2)" made parse_transform("power(2)") return the
        # custom transform while "power(2.0)" still parsed as Power(2.0).
        message = rf"^transform name {re.escape(repr(name))} is built in$"
        with pytest.raises(DomainError, match=message):
            register_transform(name, abs, abs)
        assert parse_transform(name) == built_in

    def test_model_str_round_trip(self):
        m = Pareto(2.5, 1.0)
        assert parse_model(str(m)) == m
