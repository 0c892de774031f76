"""Moment-matching fits and delta-method covariance propagation."""

import math

import numpy as np
import pytest

import robust_lmoments.estimate as estimate_module
from robust_lmoments import (
    CompositeH,
    ConvergenceError,
    DivergenceError,
    DomainError,
    Exponential,
    Identity,
    Mode,
    MomentSpec,
    Normal,
    Power,
    Shifted,
    Uniform,
    delta_cov,
    fit,
    moment_jacobian,
    parse_model_template,
    population_trimmed_moment,
)

IDENT = Identity()


class TestFit:
    def test_exponential_untrimmed_is_sample_mean(self):
        result = fit(parse_model_template("exponential(?)"), [1, 2, 3, 4], [MomentSpec(IDENT)])
        assert result.theta_hat[0] == pytest.approx(2.5, rel=1e-9)
        assert result.residual_norm < 1e-9

    def test_exponential_trimmed(self):
        # trimmed sample moment 2.5 equals theta times the trimmed moment
        # of the unit-scale family, so theta = 2.5 / that factor
        result = fit(
            parse_model_template("exponential(?)"),
            [1, 2, 3, 4],
            [MomentSpec(IDENT, 0.25, 0.25)],
        )
        factor = population_trimmed_moment(
            CompositeH(Exponential(1.0), IDENT), MomentSpec(IDENT, 0.25, 0.25)
        )
        assert result.theta_hat[0] == pytest.approx(2.5 / factor, rel=1e-8)

    def test_uniform_two_moments(self):
        rng = np.random.default_rng(11)
        sample = rng.uniform(0.0, 2.0, size=4000)
        result = fit(
            parse_model_template("uniform(?,?)"),
            sample,
            [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)],
        )
        assert result.theta_hat[0] == pytest.approx(0.0, abs=0.1)
        assert result.theta_hat[1] == pytest.approx(2.0, abs=0.1)

    def test_normal_two_moments(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(1.0, 2.0, size=5000)
        result = fit(
            parse_model_template("normal(?,?)"),
            sample,
            [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)],
        )
        assert result.theta_hat[0] == pytest.approx(1.0, abs=0.15)
        assert result.theta_hat[1] == pytest.approx(2.0, abs=0.15)

    def test_fixed_point(self):
        # fitting data simulated exactly at the population moments recovers
        # the generating parameter to solver tolerance
        theta = 1.7
        spec = MomentSpec(IDENT, 0.1, 0.2)
        mu = population_trimmed_moment(CompositeH(Exponential(theta), IDENT), spec)
        # a two-point sample whose trimmed mean equals mu exactly
        sample = [mu, mu]
        result = fit(parse_model_template("exponential(?)"), sample, [spec])
        assert result.theta_hat[0] == pytest.approx(theta, rel=1e-7)

    def test_partially_fixed_template(self):
        rng = np.random.default_rng(3)
        sample = rng.lognormal(0.4, 0.5, size=3000)
        result = fit(
            parse_model_template("lognormal(?, 0.5)"),
            sample,
            [MomentSpec(IDENT, 0.05, 0.05)],
        )
        assert result.theta_hat[0] == pytest.approx(0.4, abs=0.1)
        assert result.model.sigma == 0.5

    def test_spec_count_mismatch(self):
        with pytest.raises(DomainError):
            fit(parse_model_template("normal(?,?)"), [1, 2, 3], [MomentSpec(IDENT)])

    def test_no_free_parameters(self):
        with pytest.raises(DomainError):
            fit(parse_model_template("exponential(1.0)"), [1, 2, 3], [])

    def test_model_instance_means_all_free(self):
        result = fit(Exponential(1.0), [1.0, 3.0], [MomentSpec(IDENT)])
        assert result.theta_hat[0] == pytest.approx(2.0, rel=1e-9)


class TestFailurePropagation:
    """Only package errors count as a failed trial point; any other
    exception is a fault and leaves ``fit`` unchanged."""

    @staticmethod
    def _residual_failing_after_first_call(monkeypatch):
        residual = estimate_module._residual
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) > 1:
                raise TypeError("fault inside the moment map")
            return residual(*args)

        monkeypatch.setattr(estimate_module, "_residual", failing)
        return calls

    def test_line_search_lets_a_fault_through(self, monkeypatch):
        sample = np.random.default_rng(5).normal(1.0, 2.0, size=500)
        calls = self._residual_failing_after_first_call(monkeypatch)
        with pytest.raises(TypeError, match="fault inside the moment map"):
            fit(
                parse_model_template("normal(?,?)"),
                sample,
                [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)],
            )
        assert len(calls) == 2  # the start, then the first line-search candidate

    def test_bracketing_lets_a_fault_through(self, monkeypatch):
        def stalled(*args):
            raise ConvergenceError("line search stalled")

        monkeypatch.setattr(estimate_module, "_newton", stalled)
        calls = self._residual_failing_after_first_call(monkeypatch)
        with pytest.raises(TypeError, match="fault inside the moment map"):
            fit(parse_model_template("exponential(?)"), [1.0, 2.0, 4.0], [MomentSpec(IDENT)])
        assert len(calls) == 2  # the start, then the first bracket end

    def test_line_search_retries_after_a_package_error(self, monkeypatch):
        template = parse_model_template("normal(?,?)")
        sample = np.random.default_rng(5).normal(1.0, 2.0, size=500)
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        expected = fit(template, sample, specs).theta_hat
        residual = estimate_module._residual
        calls = []

        def failing_once(*args):
            calls.append(args)
            if len(calls) == 2:  # the first line-search candidate
                raise DivergenceError("integral over [0.1, 0.9] did not converge")
            return residual(*args)

        monkeypatch.setattr(estimate_module, "_residual", failing_once)
        got = fit(template, sample, specs).theta_hat
        np.testing.assert_allclose(got, expected, rtol=1e-6)


class TestBisection:
    """The one-parameter fallback once Newton fails from every start."""

    SAMPLE = Exponential(2.0).quantiles(np.random.default_rng(300).random(300))

    @staticmethod
    def _count_bisections(monkeypatch):
        bisect = estimate_module._bisect_1d
        calls = []

        def counted(*args):
            calls.append(args)
            return bisect(*args)

        monkeypatch.setattr(estimate_module, "_bisect_1d", counted)
        return calls

    @pytest.mark.parametrize(
        "template, spec",
        [
            ("normal(0,?)", MomentSpec(Power(3.0), 0.01, 0.01)),
            ("normal(3,?)", MomentSpec(IDENT, 0.05, 0.05)),
        ],
        ids=["power3", "identity"],
    )
    def test_sign_change_of_rounding_noise_is_no_root(self, template, spec, monkeypatch):
        # The residual changes sign only where rounding noise does, at a
        # sigma of 1e5 and more; it never comes near zero.
        calls = self._count_bisections(monkeypatch)
        with pytest.raises(ConvergenceError, match="^bisection collapsed at theta="):
            fit(parse_model_template(template), self.SAMPLE, [spec])
        assert len(calls) == 1

    def test_real_root_found_where_newton_fails(self, monkeypatch):
        calls = self._count_bisections(monkeypatch)
        result = fit(
            parse_model_template("normal(3,?)"),
            self.SAMPLE,
            [MomentSpec(Power(3.0), 0.1, 0.25, Mode.MWM)],
        )
        assert len(calls) == 1
        assert result.theta_hat[0] == pytest.approx(15.6635, abs=1e-4)
        assert result.residual_norm <= 1e-9


class TestJacobian:
    def test_exponential_identity_slope(self):
        # population moment is linear in the scale, slope = unit-scale moment
        template = parse_model_template("exponential(?)")
        spec = MomentSpec(IDENT, 0.1, 0.1)
        jac = moment_jacobian(template, [2.0], [spec])
        unit = population_trimmed_moment(CompositeH(Exponential(1.0), IDENT), spec)
        assert jac[0, 0] == pytest.approx(unit, rel=1e-6)

    def test_square_shape(self):
        template = parse_model_template("normal(?,?)")
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        jac = moment_jacobian(template, [0.0, 1.0], specs)
        assert jac.shape == (2, 2)


class TestDeltaCov:
    def test_untrimmed_exponential_theta_squared(self):
        # the untrimmed moment map is mu = theta, so parameter variance
        # equals the moment variance theta^2
        model = Exponential(2.5)
        specs = [MomentSpec(IDENT)]
        from robust_lmoments import cov_matrix

        cov_mu = cov_matrix(specs, model)
        cov_th = delta_cov(model, specs, cov_mu)
        assert cov_th.entries[0, 0] == pytest.approx(2.5 ** 2, rel=1e-8)
        assert cov_th.methods[0][0] == "delta"

    def test_invariant_under_transform_rescale(self):
        # doubling h doubles the moment and its Jacobian; the parameter
        # covariance is unchanged
        model = Exponential(1.3)
        from robust_lmoments import CustomTransform, cov_matrix

        doubled = CustomTransform("doubled", lambda x: 2.0 * x, lambda x: 2.0)
        specs_a = [MomentSpec(IDENT, 0.1, 0.1)]
        specs_b = [MomentSpec(doubled, 0.1, 0.1)]
        cov_a = delta_cov(model, specs_a, cov_matrix(specs_a, model))
        cov_b = delta_cov(model, specs_b, cov_matrix(specs_b, model))
        assert cov_b.entries[0, 0] == pytest.approx(cov_a.entries[0, 0], rel=1e-6)

    def test_symmetric_output(self):
        model = Normal(0.0, 1.0)
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        from robust_lmoments import cov_matrix

        cov_th = delta_cov(model, specs, cov_matrix(specs, model))
        assert np.allclose(cov_th.entries, cov_th.entries.T)
