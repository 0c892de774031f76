"""Moment-matching fits and delta-method covariance propagation."""

import math
import warnings

import numpy as np
import pytest

import robust_lmoments.estimate as estimate_module
import robust_lmoments.moments as moments_module
from robust_lmoments import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    Exponential,
    Identity,
    Log,
    Lognormal,
    Mode,
    MomentSpec,
    Normal,
    Pareto,
    Power,
    Shifted,
    Uniform,
    delta_cov,
    fit,
    moment_jacobian,
    parse_model_template,
    population_moment,
    sample_moment,
)
from robust_lmoments.models import ModelTemplate

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
        factor = population_moment(Exponential(1.0), MomentSpec(IDENT, 0.25, 0.25))
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
        mu = population_moment(Exponential(theta), spec)
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

    def test_sample_is_validated_and_sorted_once_for_all_specs(self, monkeypatch):
        sorts = []
        ascending = moments_module._ascending

        def counted(values):
            sorts.append(len(values))
            return ascending(values)

        for module in (moments_module, estimate_module):
            monkeypatch.setattr(module, "_ascending", counted)
        sample = np.random.default_rng(3).lognormal(0.4, 0.5, size=3000)
        specs = [
            MomentSpec(IDENT, 0.05, 0.05, Mode.MWM),
            MomentSpec(Log(), 0.10, 0.25, Mode.MWM),
        ]
        result = fit(parse_model_template("lognormal(?,?)"), sample, specs)
        assert sorts == [3000]
        expected = [sample_moment(sample, spec) for spec in specs]
        assert result.mu_hat.tolist() == expected

    def test_non_finite_sample_is_refused_before_any_moment(self):
        with pytest.raises(DomainError, match="non-finite sample values at indices"):
            fit(Exponential(1.0), [1.0, math.nan], [MomentSpec(IDENT)])

    def test_a_column_sample_is_refused(self):
        # Sorted along its last axis, each row would be its own sample.
        with pytest.raises(DomainError, match=r"^sample must be one-dimensional, got shape \(500, 1\)$"):
            fit(parse_model_template("exponential(?)"), np.ones((500, 1)), [MomentSpec(IDENT, 0.1, 0.1)])


class TestFailurePropagation:
    """Only package errors count as a failed trial point; any other
    exception is a fault and leaves ``fit`` unchanged."""

    @staticmethod
    def _map_failing_after_first_call(monkeypatch):
        moment_map = estimate_module._moment_map
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) > 1:
                raise TypeError("fault inside the moment map")
            return moment_map(*args)

        monkeypatch.setattr(estimate_module, "_moment_map", failing)
        return calls

    def test_line_search_lets_a_fault_through(self, monkeypatch):
        sample = np.random.default_rng(5).normal(1.0, 2.0, size=500)
        calls = self._map_failing_after_first_call(monkeypatch)
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
        calls = self._map_failing_after_first_call(monkeypatch)
        with pytest.raises(TypeError, match="fault inside the moment map"):
            fit(parse_model_template("exponential(?)"), [1.0, 2.0, 4.0], [MomentSpec(IDENT)])
        assert len(calls) == 2  # the start, then the first bracket end

    def test_line_search_retries_after_a_package_error(self, monkeypatch):
        template = parse_model_template("normal(?,?)")
        sample = np.random.default_rng(5).normal(1.0, 2.0, size=500)
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        expected = fit(template, sample, specs).theta_hat
        moment_map = estimate_module._moment_map
        calls = []

        def failing_once(*args):
            calls.append(args)
            if len(calls) == 2:  # the first line-search candidate
                raise DivergenceError("integral over [0.1, 0.9] did not converge")
            return moment_map(*args)

        monkeypatch.setattr(estimate_module, "_moment_map", failing_once)
        got = fit(template, sample, specs).theta_hat
        assert len(calls) > 2  # the search went on past the failed candidate
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_a_start_that_raises_a_package_error_is_one_failed_start(self, monkeypatch):
        newton = estimate_module._newton
        starts = []

        def first_start_diverges(template, specs, target, theta0):
            starts.append(theta0)
            if len(starts) == 1:
                raise DivergenceError("integral over [0.1, 1.0] did not converge")
            return newton(template, specs, target, theta0)

        monkeypatch.setattr(estimate_module, "_newton", first_start_diverges)
        sample = np.random.default_rng(5).normal(1.0, 2.0, size=500)
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        result = fit(parse_model_template("normal(?,?)"), sample, specs)
        assert len(starts) == 2
        assert result.residual_norm <= 1e-9

    def test_every_start_failing_raises_the_last_failure(self, monkeypatch):
        def diverging(template, specs, target, theta0):
            raise DivergenceError(f"diverged from {theta0.tolist()}")

        monkeypatch.setattr(estimate_module, "_newton", diverging)
        sample = np.random.default_rng(5).normal(1.0, 2.0, size=500)
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        with pytest.raises(DivergenceError, match=r"diverged from \[0.0, 1.0\]"):
            fit(parse_model_template("normal(?,?)"), sample, specs)


def test_an_overflowing_moment_map_fails_the_fit_without_a_warning():
    # sigma grows along the bracket until exp overflows in the quantiles.
    sample = np.random.default_rng(1).lognormal(0.0, 1.0, 500)
    template = ModelTemplate(Lognormal, (2.0, None))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            fit(template, sample, [MomentSpec(IDENT, 0.05, 0.05)])


def test_an_overflowing_winsorized_edge_atom_is_divergence_not_a_warning():
    # x^2 stays finite at every node inside [0.45, 0.55] and overflows at
    # the edge atom at 0.55.
    model = Uniform(0.0, 1.00001 * math.sqrt(np.finfo(float).max) / 0.55)
    spec = MomentSpec(Power(2.0), 0.45, 0.45, Mode.MWM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="^winsorized moment of power"):
            moment_jacobian(ModelTemplate.all_free(model), model.params, [spec])


def test_a_diverging_start_leaves_the_fit_to_the_other():
    # From the method-of-moments start (0.138, 0.00095) the untrimmed
    # upper tail of the identity moment diverges along the way; the
    # default start (2, 1) converges.
    sample = Pareto(3.0, 1.0).quantiles(np.random.default_rng(4).random(4000))
    sample[:20] = 1e-3
    specs = [MomentSpec(Log(), 0.1, 0.1), MomentSpec(IDENT, 0.1, 0.0)]
    result = fit(parse_model_template("pareto(?,?)"), sample, specs)
    np.testing.assert_allclose(result.theta_hat, [3.0657125831414, 1.0097329324774382], rtol=1e-8)
    assert result.iterations == 6


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
        # The sample moment lies outside what the family attains: the
        # residual changes sign, if at all, only where rounding noise
        # does, at a sigma of 1e5 and more, and never comes near zero.
        # Which of the two refusals ends the search depends on that noise.
        calls = self._count_bisections(monkeypatch)
        with pytest.raises(
            ConvergenceError,
            match="^(bisection collapsed at theta=|could not bracket a root)",
        ):
            fit(parse_model_template(template), self.SAMPLE, [spec])
        assert len(calls) == 1

    def test_sign_change_without_a_root_collapses(self, monkeypatch):
        # A moment map whose residual jumps from -1e-6 to 1e-6 at pi and
        # whose Jacobian is singular, so that Newton fails from every start.
        def jump(template, theta, specs):
            # the untrimmed mean of the sample below
            mu_hat = sample_moment([1.0, 2.0, 4.0], specs[0])
            residual = np.where(np.asarray(theta) > math.pi, 1e-6, -1e-6)
            return mu_hat * (1.0 + residual), np.zeros((1, 1))

        monkeypatch.setattr(estimate_module, "_moment_map", jump)
        calls = self._count_bisections(monkeypatch)
        with pytest.raises(ConvergenceError, match="^bisection collapsed at theta=") as info:
            fit(parse_model_template("exponential(?)"), [1.0, 2.0, 4.0], [MomentSpec(IDENT)])
        assert len(calls) == 1
        theta = float(str(info.value).split("theta=")[1].split()[0])
        assert theta == pytest.approx(math.pi, rel=1e-13)

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
        unit = population_moment(Exponential(1.0), spec)
        assert jac[0, 0] == pytest.approx(unit, rel=1e-6)

    def test_square_shape(self):
        template = parse_model_template("normal(?,?)")
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        jac = moment_jacobian(template, [0.0, 1.0], specs)
        assert jac.shape == (2, 2)


def differenced_moment_jacobian(template, theta, specs, step=1e-6):
    """Central difference of the scalar population moments in each free
    parameter: the reference for the analytic Jacobian."""

    def moments(t):
        model = template.bind(t)
        return np.array([population_moment(model, s) for s in specs])

    columns = []
    for j, value in enumerate(theta):
        h = step * (1.0 + abs(value))
        up, dn = list(theta), list(theta)
        up[j] += h
        dn[j] -= h
        columns.append((moments(up) - moments(dn)) / (2 * h))
    return moments(theta), np.column_stack(columns)


MAP_CASES = [
    ("uniform(?,?)", [-1.0, 3.0], [IDENT, Power(2.0)]),
    ("exponential(?)", [2.5], [Log()]),
    ("pareto(?,?)", [2.5, 1.5], [IDENT, Log()]),
    ("lognormal(?,?)", [0.3, 0.7], [Log(), IDENT]),
    ("normal(?,?)", [1.0, 2.0], [Shifted(1.0), Power(2.0)]),
    ("lognormal(0.3,?)", [0.7], [Power(2.0)]),
]


class TestMomentMap:
    """The batched moments and their analytic Jacobian against the scalar
    moments and their central difference."""

    @pytest.mark.parametrize("mode", [Mode.MTM, Mode.MWM])
    @pytest.mark.parametrize("text, theta, transforms", MAP_CASES, ids=[c[0] for c in MAP_CASES])
    def test_matches_the_difference_of_scalar_moments(self, text, theta, transforms, mode):
        template = parse_model_template(text)
        windows = [(0.1, 0.2), (0.05, 0.3)]
        specs = [MomentSpec(t, a, b, mode) for t, (a, b) in zip(transforms, windows)]
        mu, jac = estimate_module._moment_map(template, theta, specs)
        ref_mu, ref_jac = differenced_moment_jacobian(template, theta, specs)
        np.testing.assert_allclose(mu, ref_mu, rtol=1e-10)
        np.testing.assert_allclose(jac, ref_jac, rtol=1e-7, atol=1e-9)
        np.testing.assert_array_equal(moment_jacobian(template, theta, specs), jac)


def _untrimmed_tail_fit(text, model, seed, specs):
    sample = model.quantiles(np.random.default_rng(seed).random(2000))
    return fit(parse_model_template(text), sample, specs)


def _pareto_specs(mode):
    return [MomentSpec(Log(), 0.1, 0.1, mode), MomentSpec(IDENT, 0.1, 0.0, mode)]


# Fits with a window that reaches an unbounded tail: theta-hat as the
# central-difference Jacobian over QUADPACK moments gave it before the
# analytic moment map.  The Pareto identity moment with b = 0 needs the
# endpoint extrapolation of QUADPACK; the batched engine fails on it.
UNTRIMMED_TAIL_FITS = [
    ("pareto(?,?)", Pareto(2.2, 1.5), 30, _pareto_specs(Mode.MTM),
     [2.122352633408349, 1.5038434978050121]),
    ("pareto(?,?)", Pareto(2.2, 1.5), 31, _pareto_specs(Mode.MWM),
     [2.2777986346828683, 1.5372117611929075]),
    ("pareto(?,?)", Pareto(3.0, 1.5), 32, _pareto_specs(Mode.MTM),
     [2.9132836260544708, 1.4944705133210645]),
    ("pareto(?,?)", Pareto(3.0, 1.5), 33, _pareto_specs(Mode.MWM),
     [3.0574593507822234, 1.4962381711090131]),
    ("pareto(?,?)", Pareto(5.0, 1.5), 34, _pareto_specs(Mode.MTM),
     [5.233686186804497, 1.506476404219606]),
    ("pareto(?,?)", Pareto(5.0, 1.5), 35, _pareto_specs(Mode.MWM),
     [5.129978562952623, 1.5121001523892375]),
    ("normal(?,?)", Normal(1.0, 2.0), 36, [MomentSpec(IDENT), MomentSpec(Power(2.0))],
     [1.0272209281132028, 1.9609533814927307]),
    ("lognormal(?,?)", Lognormal(0.5, 0.6), 37,
     [MomentSpec(IDENT, 0.1, 0.0), MomentSpec(Log(), 0.05, 0.1)],
     [0.5031996671053192, 0.5846683313561966]),
    ("normal(?,?)", Normal(1.0, 2.0), 38,
     [MomentSpec(IDENT, mode=Mode.MWM), MomentSpec(Power(2.0), mode=Mode.MWM)],
     [1.0002857861849297, 2.014508374453481]),
    ("lognormal(?,?)", Lognormal(0.5, 0.6), 39,
     [MomentSpec(IDENT, 0.1, 0.0, Mode.MWM), MomentSpec(Log(), 0.05, 0.1, Mode.MWM)],
     [0.48947755854990743, 0.6119478864501366]),
    ("exponential(?)", Exponential(2.0), 40, [MomentSpec(IDENT)], [1.9651582226909472]),
]


@pytest.mark.parametrize(
    "text, model, seed, specs, expected",
    UNTRIMMED_TAIL_FITS,
    ids=[f"{c[1]}-{c[3][0].mode.value}" for c in UNTRIMMED_TAIL_FITS],
)
def test_untrimmed_tail_fits_keep_their_estimates(text, model, seed, specs, expected):
    result = _untrimmed_tail_fit(text, model, seed, specs)
    np.testing.assert_allclose(result.theta_hat, expected, rtol=1e-8)


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

    def test_the_same_spec_twice_is_refused(self):
        # two equal rows: D is singular however its rows and columns are scaled
        from robust_lmoments import SingularJacobianError, cov_matrix

        model, rng = Normal(1.0, 2.0), np.random.default_rng(1)
        specs = [MomentSpec(IDENT, 0.1, 0.1)] * 2
        with pytest.raises(SingularJacobianError):
            delta_cov(model, specs, cov_matrix(specs, model))
        with pytest.raises(SingularJacobianError):
            fit(parse_model_template("normal(?,?)"), rng.normal(1.0, 2.0, 500), specs)

    def test_a_spec_count_other_than_the_parameter_count_is_refused(self):
        # It used to let numpy's LinAlgError out of the sandwich.
        from robust_lmoments import cov_matrix

        model = Exponential(1.0)
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        with pytest.raises(DomainError, match="^need exactly 1 moment specs"):
            delta_cov(model, specs, cov_matrix(specs, model))

    def test_a_cov_mu_of_another_shape_is_refused(self):
        from robust_lmoments import cov_matrix

        model = Normal(0.0, 1.0)
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        cov_mu = cov_matrix(specs[:1], model)
        with pytest.raises(DomainError, match=r"^cov_mu must be 2 x 2 for 2 specs"):
            delta_cov(model, specs, cov_mu)


    def test_a_cov_mu_that_is_not_a_cov_matrix_is_refused(self):
        # An ndarray has no .entries: an AttributeError, not a DomainError.
        with pytest.raises(DomainError, match="^cov_mu must be a CovMatrix, got ndarray$"):
            delta_cov(Exponential(1.0), [MomentSpec(IDENT, 0.1, 0.1)], np.eye(1))


class TestUnitEquivariance:
    """Fitting the data c x in any unit c gives c times the unit-scale
    estimates and standard errors of location and scale parameters, and the
    same shape, with no spurious second root."""

    # template, power of c in each parameter, sample draw
    FAMILIES = {
        "normal": ("normal(?,?)", (1, 1), lambda g: g.normal(1.0, 2.0, 2000)),
        "exponential": ("exponential(?)", (1,), lambda g: g.exponential(2.0, 2000)),
        "pareto": ("pareto(?,?)", (0, 1), lambda g: 1.5 * (1.0 + g.pareto(4.0, 2000))),
    }
    # (transform, a, b) per family: windows inside both tails (the batched
    # moment map), and windows that reach an unbounded tail (QUADPACK)
    WINDOWS = {
        "bounded": {
            "normal": [(IDENT, 0.1, 0.1), (Power(2.0), 0.05, 0.2)],
            "exponential": [(IDENT, 0.05, 0.1)],
            "pareto": [(IDENT, 0.05, 0.1), (Power(2.0), 0.1, 0.05)],
        },
        "tail": {
            "normal": [(IDENT, 0.0, 0.0), (Power(2.0), 0.0, 0.0)],
            "exponential": [(IDENT, 0.0, 0.0)],
            "pareto": [(IDENT, 0.0, 0.0), (Power(2.0), 0.1, 0.0)],
        },
    }

    @staticmethod
    def _estimates(result) -> np.ndarray:
        return np.concatenate(
            [result.theta_hat, np.sqrt(np.diag(result.cov_theta.entries))]
        )

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("windows", list(WINDOWS))
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_fit_scales_with_the_data(self, family, windows, mode):
        text, powers, draw = self.FAMILIES[family]
        template = parse_model_template(text)
        specs = [MomentSpec(t, a, b, mode) for t, a, b in self.WINDOWS[windows][family]]
        x = draw(np.random.default_rng(3))
        unit = self._estimates(fit(template, x, specs))
        for c in (1e-7, 1e-3, 1e3):
            result = fit(template, c * x, specs)
            assert not result.non_unique
            scale = np.tile(c ** np.array(powers, dtype=float), 2)
            np.testing.assert_allclose(self._estimates(result), scale * unit, rtol=1e-6)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_standardized_data_step_the_location_with_the_scale(self, mode):
        # The start's location is about 1e-17: a step relative to it alone
        # would not move a quantile, and the location's column of D would read 0.
        template = parse_model_template("normal(?,?)")
        specs = [MomentSpec(IDENT, 0.0, 0.0, mode), MomentSpec(Power(2.0), 0.0, 0.0, mode)]
        x = np.random.default_rng(1).normal(1.0, 2.0, 2000)
        m, s = x.mean(), x.std()
        raw, std = fit(template, x, specs), fit(template, (x - m) / s, specs)
        np.testing.assert_allclose(std.theta_hat, (raw.theta_hat - [m, 0.0]) / s, atol=1e-9)
        se_raw, se_std = self._estimates(raw)[2:], self._estimates(std)[2:]
        np.testing.assert_allclose(se_std, se_raw / s, rtol=1e-6)

    def test_a_tiny_unit_is_not_judged_singular(self):
        # At c = 1e-13 the raw D has condition 1.2e13; row and column scaling
        # bring it to that of the unit-scale fit.
        template = parse_model_template("normal(?,?)")
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        x = np.random.default_rng(1).normal(0.0, 1.0, 2000)
        unit = self._estimates(fit(template, x, specs))
        result = fit(template, 1e-13 * x, specs)
        assert not result.non_unique
        np.testing.assert_allclose(self._estimates(result), 1e-13 * unit, rtol=1e-6)
