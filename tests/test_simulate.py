"""Monte Carlo harness: determinism, seeding, and convergence."""

import math
import sys
import threading
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy.special import ndtri

from robust_lmoments import (
    DistributionModel,
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
    RobustLMomentsError,
    SimulationConfig,
    Uniform,
    coverage_check,
    fit,
    parse_model_template,
    population_moment,
    replication_seed,
    run_mc,
)
from robust_lmoments import simulate
from robust_lmoments.models import CustomTransform, ModelTemplate, Shifted, _check_unit
from robust_lmoments.moments import sorted_sample_moment
from robust_lmoments.simulate import _DEV_FLOOR, splitmix64

IDENT = Identity()


@dataclass(frozen=True)
class Gumbel(DistributionModel):
    """A user family with one numpy quantile expression for a float or
    an array, and the array quantile density every family codes."""

    mu: float = 0.0
    beta: float = 1.0

    family = "gumbel"
    param_bounds = ((-math.inf, math.inf), (0.0, math.inf))

    def quantiles(self, u):
        u = _check_unit(u, self._infinite_ends)
        return self.mu - self.beta * np.log(-np.log(u))

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        return self.beta / (u * -np.log(u))


@dataclass(frozen=True)
class LeftCutGumbel(Gumbel):
    """A Gumbel whose quantile refuses the lowest 2% of probabilities."""

    def quantiles(self, u):
        if np.min(u) < 0.02:
            raise DomainError(f"quantile undefined below 0.02, got {np.min(u)}")
        return super().quantiles(u)


RATIO = CustomTransform(
    "ratio", lambda x: x / (1.0 + x), lambda x: 1.0 / (1.0 + x) ** 2
)

# Positive support throughout, so log and power(2.5) are defined on
# every draw; normal(10, 1) is negative with probability about 8e-24.
POSITIVE_FAMILIES = [
    Uniform(0.5, 2.0),
    Exponential(2.0),
    Pareto(3.0, 1.5),
    Lognormal(0.2, 0.5),
    Normal(10.0, 1.0),
]

# (transform, a, b) triples: the first set's windows together cover every
# order statistic, the second leaves both tails outside their union.
SPEC_SETS = {
    "covering": ((Power(2.5), 0.0, 0.1), (Log(), 0.05, 0.2), (RATIO, 0.2, 0.0)),
    "interior": ((Log(), 0.1, 0.05), (Power(2.5), 0.25, 0.25), (RATIO, 0.05, 0.4)),
}


def _reference_draws(config: SimulationConfig):
    """Each replication's ascending sample as drawn before the quantile
    moved behind the sort: quantile of the raw uniforms, then sort."""
    for r in range(config.replications):
        rng = np.random.Generator(
            np.random.PCG64(replication_seed(config.master_seed, r))
        )
        yield np.sort(config.model.quantiles(rng.random(config.n)))


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestSeeding:
    def test_splitmix_is_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_splitmix_mixes(self):
        outputs = {splitmix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    def test_replication_seeds_distinct(self):
        seeds = {replication_seed(0, r) for r in range(5000)}
        assert len(seeds) == 5000

    def test_master_seed_changes_streams(self):
        a = [replication_seed(1, r) for r in range(10)]
        b = [replication_seed(2, r) for r in range(10)]
        assert a != b


class TestConfigValidation:
    def test_tiny_n_rejected(self):
        with pytest.raises(DomainError):
            SimulationConfig(Uniform(0, 1), (MomentSpec(IDENT),), n=5, replications=100)

    def test_single_replication_rejected(self):
        with pytest.raises(DomainError):
            SimulationConfig(Uniform(0, 1), (MomentSpec(IDENT),), n=100, replications=1)

    def test_no_spec_rejected(self):
        with pytest.raises(DomainError, match="^at least one moment spec required$"):
            SimulationConfig(Uniform(0, 1), (), n=100, replications=100)

    def test_mixed_modes_rejected(self):
        specs = (MomentSpec(IDENT, 0.1, 0.1), MomentSpec(IDENT, 0.1, 0.1, Mode.MWM))
        with pytest.raises(DomainError, match="^all specs must share one mode$"):
            SimulationConfig(Uniform(0, 1), specs, n=100, replications=100)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 100.5), ("n", 100.0), ("replications", 150.5), ("replications", "200"),
         ("master_seed", 1.5), ("master_seed", "1")],
    )
    def test_non_integer_size_rejected(self, field, value):
        # A non-integer master_seed reached replication_seed as a bare TypeError.
        sizes = {"n": 100, "replications": 100, field: value}
        with pytest.raises(DomainError, match=f"^{field} must be an integer, got "):
            SimulationConfig(Uniform(0, 1), (MomentSpec(IDENT),), **sizes)

    def test_numpy_integer_sizes_accepted(self):
        SimulationConfig(
            Uniform(0, 1), (MomentSpec(IDENT),), n=np.int64(100), replications=np.int32(100)
        )

    # Both used to run: coverage 0.0 and 1.0 at n=500, R=100, seed 1.
    def test_template_of_another_family_rejected(self):
        with pytest.raises(
            DomainError,
            match=r"^template normal\(\?,\?\) does not describe the model lognormal\(0,1\)$",
        ):
            SimulationConfig(
                Lognormal(0.0, 1.0), (MomentSpec(IDENT, 0.1, 0.1),), n=500,
                replications=100, master_seed=1,
                template=parse_model_template("normal(?,?)"),
            )

    def test_template_fixing_another_parameter_value_rejected(self):
        with pytest.raises(
            DomainError,
            match=r"^template normal\(\?,5\) does not describe the model normal\(0,1\)$",
        ):
            SimulationConfig(
                Normal(0.0, 1.0), (MomentSpec(IDENT, 0.1, 0.1),), n=500,
                replications=100, master_seed=1,
                template=parse_model_template("normal(?,5)"),
            )


class TestRunMc:
    CFG = dict(n=500, replications=200, master_seed=99)

    def test_bit_identical_reruns(self):
        cfg = SimulationConfig(
            Uniform(0, 1), (MomentSpec(IDENT, 0.25, 0.25),), **self.CFG
        )
        a = run_mc(cfg)
        b = run_mc(cfg)
        assert np.array_equal(a.empirical_cov.entries, b.empirical_cov.entries)
        assert a.max_rel_dev == b.max_rel_dev

    def test_seed_changes_results(self):
        base = dict(self.CFG)
        cfg_a = SimulationConfig(Uniform(0, 1), (MomentSpec(IDENT),), **base)
        base["master_seed"] = 100
        cfg_b = SimulationConfig(Uniform(0, 1), (MomentSpec(IDENT),), **base)
        assert not np.array_equal(
            run_mc(cfg_a).empirical_cov.entries, run_mc(cfg_b).empirical_cov.entries
        )

    def test_empirical_approaches_theory(self):
        devs = []
        for n in (200, 5000):
            cfg = SimulationConfig(
                Uniform(0, 1),
                (MomentSpec(IDENT, 0.25, 0.25),),
                n=n,
                replications=1500,
                master_seed=7,
            )
            devs.append(run_mc(cfg).max_rel_dev)
        assert devs[1] < 0.1
        assert devs[1] <= devs[0] + 0.05

    def test_winsorized_mode(self):
        cfg = SimulationConfig(
            Uniform(0, 1),
            (MomentSpec(IDENT, 0.25, 0.25, Mode.MWM),),
            n=4000,
            replications=1000,
            master_seed=21,
        )
        report = run_mc(cfg)
        assert report.theoretical_cov.entries[0, 0] == pytest.approx(13.0 / 96.0)
        assert report.max_rel_dev < 0.15

    def test_trimming_that_removes_nothing_is_refused(self):
        # floor(50 * 0.01) = 0: the sample moment would be untrimmed while
        # the formulas assume the upper 1% is cut.
        specs = (MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(3.0), 0.0, 0.01))
        with pytest.raises(
            DomainError,
            match=r"^coordinate 1: b=0.01 trims no observation of n=50; "
            r"n >= 100 trims at least one$",
        ):
            SimulationConfig(Pareto(0.5, 1.0), specs, n=50, replications=200)
        SimulationConfig(Pareto(0.5, 1.0), specs, n=100, replications=200)

    def test_replication_failures_abort_with_cause(self):
        # log of a normal sample: some windows hold negative values
        cfg = SimulationConfig(
            Normal(0.0, 1.0),
            (MomentSpec(Log(), 0.6, 0.1),),
            n=10,
            replications=100,
            master_seed=0,
        )
        with pytest.raises(RobustLMomentsError, match="12/100 replications") as exc:
            run_mc(cfg)
        assert isinstance(exc.value.__cause__, DomainError)

    def test_an_overflowing_sample_sum_fails_its_replication_without_a_warning(self):
        # A constant h = 1e308 has a finite moment and a zero variance, but
        # eight retained values sum past the largest double.  Under the
        # suite's error::RuntimeWarning filter numpy's overflow warning used
        # to escape the replication instead of failing it.
        big = CustomTransform("big", lambda x: 1e308 + 0.0 * x, lambda x: 0.0 * x)
        cfg = SimulationConfig(Uniform(0.0, 1.0), (MomentSpec(big, 0.1, 0.1),), n=10, replications=100)
        message = r"^100/100 replications failed; first cause: moment over order statistics 2 \.\. 9 of n=10"
        with pytest.raises(RobustLMomentsError, match=message) as exc:
            run_mc(cfg)
        assert isinstance(exc.value.__cause__, DomainError)

    def test_divergent_covariance_refused_before_drawing(self, monkeypatch):
        def no_draws(config, task, rows, workers):
            raise AssertionError("drew replications")

        monkeypatch.setattr(simulate, "_run_replications", no_draws)
        cfg = SimulationConfig(
            Pareto(3.0, 1.5),
            (MomentSpec(Power(2.5), 0.1, 0.0),),
            n=10_000,
            replications=2000,
        )
        with pytest.raises(DivergenceError, match=r"^entry \(0, 0\): "):
            run_mc(cfg)

    def test_report_fields(self):
        cfg = SimulationConfig(
            Exponential(2.0), (MomentSpec(IDENT, 0.1, 0.1),), **self.CFG
        )
        report = run_mc(cfg)
        assert report.failures == 0
        assert report.per_entry_dev.shape == (1, 1)
        assert report.skewness.shape == (1,)
        assert report.runtime_ms > 0
        assert report.normality_stat == abs(report.skewness).max()


class TestSortThenQuantile:
    """The draw sorts the uniforms before the quantile and evaluates it
    only on the order statistics the moments read; the results are
    bitwise those of quantile-then-sort."""

    @pytest.mark.parametrize(
        "model",
        [Uniform(-1.0, 2.0), Exponential(2.0), Pareto(3.0, 1.5), Lognormal(0.2, 0.5),
         Normal(0.3, 1.5), Gumbel(1.0, 2.0)],
        ids=str,
    )
    def test_quantile_commutes_with_sort(self, model):
        for seed in range(20):
            u = np.random.default_rng(seed).random(2000)
            assert _bits(model.quantiles(np.sort(u))) == _bits(
                np.sort(model.quantiles(u))
            )

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("spec_set", sorted(SPEC_SETS))
    @pytest.mark.parametrize("model", POSITIVE_FAMILIES, ids=str)
    def test_run_mc_matches_quantile_then_sort(self, model, spec_set, mode):
        specs = tuple(MomentSpec(t, a, b, mode) for t, a, b in SPEC_SETS[spec_set])
        cfg = SimulationConfig(model, specs, n=200, replications=100, master_seed=31)
        mu = np.array([population_moment(model, s) for s in specs])
        rows = []
        for xs in _reference_draws(cfg):
            rows.append(
                math.sqrt(cfg.n) * (np.array([sorted_sample_moment(xs, s) for s in specs]) - mu)
            )
        devs = np.vstack(rows)
        empirical = np.cov(devs, rowvar=False, ddof=1)
        centered = devs - devs.mean(axis=0)
        sd = centered.std(axis=0, ddof=0)

        report = run_mc(cfg)
        theory = report.theoretical_cov.entries
        assert report.failures == 0
        assert _bits(report.empirical_cov.entries) == _bits(empirical)
        assert _bits(report.per_entry_dev) == _bits(
            np.abs(empirical - theory) / np.maximum(np.abs(theory), _DEV_FLOOR)
        )
        assert _bits(report.skewness) == _bits((centered**3).mean(axis=0) / sd**3)
        assert _bits(report.excess_kurtosis) == _bits(
            (centered**4).mean(axis=0) / sd**4 - 3.0
        )

    @pytest.mark.parametrize(
        "model, template, spec",
        [
            (Exponential(1.5), None, MomentSpec(IDENT, 0.1, 0.1)),
            (Normal(1.0, 2.0), "normal(?,2)", MomentSpec(IDENT, 0.05, 0.3, Mode.MWM)),
        ],
        ids=["exponential", "normal-location"],
    )
    def test_coverage_matches_quantile_then_sort(self, model, template, spec):
        template = (
            parse_model_template(template) if template else ModelTemplate.all_free(model)
        )
        cfg = SimulationConfig(
            model, (spec,), n=300, replications=100, master_seed=4, template=template
        )
        theta_true = np.array([model.params[i] for i in template.free_indices])
        z = float(ndtri(0.5 + 0.9 / 2.0))
        covered = []
        for xs in _reference_draws(cfg):
            result = fit(template, xs, [spec])
            se = np.sqrt(np.diag(result.cov_theta.entries)) / math.sqrt(cfg.n)
            covered.append(bool(np.all(np.abs(result.theta_hat - theta_true) <= z * se)))
        assert coverage_check(cfg, 0.9) == float(np.mean(covered))

    def test_quantile_is_not_evaluated_in_trimmed_tails(self):
        # Every draw of n=500 has order statistics below 0.02; only the
        # trimmed lower 5% reaches them.
        cfg = SimulationConfig(
            LeftCutGumbel(1.0, 2.0),
            (MomentSpec(IDENT, 0.05, 0.05, Mode.MWM),),
            n=500,
            replications=100,
            master_seed=8,
        )
        assert run_mc(cfg).failures == 0


def _rows_per_block(monkeypatch, rows, n):
    """Make each block of ``_run_replications`` hold ``rows`` rows at n."""
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", rows * 8 * n)


def _report_bits(report) -> dict:
    """Every field of a report but its run time, as bytes or repr."""
    bits = {}
    for f in fields(report):
        value = getattr(report, f.name)
        value = getattr(value, "entries", value)  # a CovMatrix
        bits[f.name] = _bits(value) if isinstance(value, (np.ndarray, float)) else repr(value)
    del bits["runtime_ms"]
    return bits


class TestBlocks:
    """With the package's own family and transforms, replications are drawn
    in blocks of rows on every usable core; every report is bitwise that of
    one replication at a time on the calling thread, which is how user
    code runs."""

    @pytest.mark.parametrize(
        "model, specs",
        [
            (Pareto(3.0, 1.5), (MomentSpec(IDENT, 0.05, 0.2), MomentSpec(Log(), 0.1, 0.1))),
            (Lognormal(0.2, 0.5), (MomentSpec(Power(2.0), 0.0, 0.1, Mode.MWM),
                                   MomentSpec(Log(), 0.05, 0.3, Mode.MWM))),
            (Normal(10.0, 1.0), (MomentSpec(Shifted(-10.0), 0.1, 0.05),)),
        ],
        ids=["pareto-mtm", "lognormal-mwm", "normal-mtm"],
    )
    def test_reports_are_bitwise_equal_for_any_block_and_worker_count(
        self, monkeypatch, model, specs
    ):
        cfg = SimulationConfig(model, specs, n=500, replications=200, master_seed=17)
        reports = {}
        # Five workers on fewer cores, switching threads every microsecond.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rows in (1, 3, None):  # None: the default, two blocks here
                for workers in (1, 2, 5):
                    with monkeypatch.context() as m:
                        if rows is not None:
                            _rows_per_block(m, rows, cfg.n)
                        m.setattr(simulate, "_usable_cores", lambda w=workers: w)
                        reports[rows, workers] = _report_bits(run_mc(cfg))
        finally:
            sys.setswitchinterval(interval)
        assert all(bits == reports[1, 1] for bits in reports.values())

    def test_failures_mid_block_and_on_the_second_worker_keep_count_and_cause(
        self, monkeypatch
    ):
        n, count = 100, 1000
        cfg = SimulationConfig(Uniform(0.0, 1.0), (MomentSpec(IDENT),), n=n, replications=count, master_seed=5)
        # Each replication's index, read off its least uniform.
        index = {
            float(np.random.Generator(np.random.PCG64(replication_seed(5, r))).random(n).min()): r
            for r in range(count)
        }
        assert len(index) == count

        def run(failing, rows, workers):
            barrier = threading.Barrier(workers, timeout=30)
            started, placed = set(), {}

            def task(block):
                me = threading.get_ident()
                if me not in started:  # each worker holds its first block
                    started.add(me)
                    barrier.wait()
                replications = [index[float(row[0])] for row in block]
                placed[replications[0]] = me
                bad = [r for r in replications if r in failing]
                if bad:
                    raise DomainError(f"replication {bad[0]} failed")
                return replications

            return simulate._run_replications(cfg, task, rows, workers), placed

        # 4 and 7 lie mid-block of 3, and 4 and 5 fail in one block; with
        # the first block held until the second worker starts, 3 .. 5 is
        # that worker's first block.
        failing = {4, 5, 7, 500, 998}
        (results, failures), placed = run(failing, 3, 2)
        assert placed[0] != placed[3]
        assert (results, failures) == run(failing, 1, 1)[0]
        assert results == [r for r in range(count) if r not in failing]
        assert failures == 5

        aborting = failing | set(range(600, 611))
        causes = []
        for rows, workers in ((3, 2), (1, 1)):
            with pytest.raises(RobustLMomentsError) as exc:
                run(aborting, rows, workers)
            causes.append((str(exc.value), str(exc.value.__cause__)))
        assert causes[0] == causes[1] == (
            "16/1000 replications failed; first cause: replication 4 failed",
            "replication 4 failed",
        )

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_an_overflowing_sum_on_worker_blocks_fails_without_a_warning(self, monkeypatch, mode):
        # Values of 1e308 whose window sums overflow, on 34 blocks over two
        # workers: numpy's error state is per thread, so each block enters
        # the moments' own.
        _rows_per_block(monkeypatch, 3, 10)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        cfg = SimulationConfig(
            Uniform(0.0, 1.0), (MomentSpec(Shifted(1e308), 0.1, 0.1, mode),), n=10, replications=100
        )
        message = r"^100/100 replications failed; first cause: moment over order statistics 2 \.\. 9 of n=10"
        with pytest.raises(RobustLMomentsError, match=message) as exc:
            run_mc(cfg)
        assert isinstance(exc.value.__cause__, DomainError)

    @pytest.mark.parametrize("user", ["custom-transform", "user-family"])
    def test_user_code_runs_on_the_calling_thread(self, monkeypatch, user):
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        callers = set()
        if user == "custom-transform":
            def value(x):
                callers.add(threading.get_ident())
                return x / (1.0 + x)

            model = Exponential(2.0)
            transform = CustomTransform("seen-ratio", value, lambda x: 1.0 / (1.0 + x) ** 2)
        else:
            quantiles = Gumbel.quantiles

            def seen(self, u):
                callers.add(threading.get_ident())
                return quantiles(self, u)

            monkeypatch.setattr(Gumbel, "quantiles", seen)
            model, transform = Gumbel(1.0, 2.0), IDENT
        draws = []
        run_replications = simulate._run_replications

        def recorded(config, task, rows, workers):
            draws.append((rows, workers))
            return run_replications(config, task, rows, workers)

        monkeypatch.setattr(simulate, "_run_replications", recorded)
        cfg = SimulationConfig(model, (MomentSpec(transform, 0.1, 0.1),), n=200, replications=100)
        before = threading.active_count()
        run_mc(cfg)
        assert draws == [(1, 1)]  # one replication at a time
        assert callers == {threading.get_ident()}
        assert threading.active_count() == before

    def test_blocks_run_on_workers_that_end_with_the_run(self, monkeypatch):
        _rows_per_block(monkeypatch, 3, 200)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
        callers = set()
        quantiles = Exponential.quantiles

        def seen(self, u):
            callers.add(threading.get_ident())
            return quantiles(self, u)

        monkeypatch.setattr(Exponential, "quantiles", seen)
        cfg = SimulationConfig(Exponential(2.0), (MomentSpec(IDENT, 0.1, 0.1),), n=200, replications=100)
        before = threading.active_count()
        run_mc(cfg)
        assert callers - {threading.get_ident()}
        assert threading.active_count() == before


class TestCoverage:
    def test_exponential_coverage_near_nominal(self):
        cfg = SimulationConfig(
            Exponential(1.0),
            (MomentSpec(IDENT, 0.1, 0.1),),
            n=1000,
            replications=300,
            master_seed=13,
        )
        coverage = coverage_check(cfg, 0.95)
        assert 0.90 <= coverage <= 0.99

    def test_full_confidence_always_covers(self):
        cfg = SimulationConfig(
            Exponential(1.0),
            (MomentSpec(IDENT, 0.1, 0.1),),
            n=200,
            replications=100,
            master_seed=3,
        )
        assert coverage_check(cfg, 1.0) == 1.0

    def test_spec_count_refused_before_drawing(self, monkeypatch):
        def no_draws(config, task, rows, workers):
            raise AssertionError("drew replications")

        monkeypatch.setattr(simulate, "_run_replications", no_draws)
        cfg = SimulationConfig(
            Lognormal(0.0, 1.0), (MomentSpec(IDENT, 0.1, 0.1),), n=100, replications=200
        )
        with pytest.raises(
            DomainError,
            match=r"^need exactly 2 moment specs for 2 free parameters, got 1$",
        ):
            coverage_check(cfg, 0.95)

    def test_bad_confidence(self):
        cfg = SimulationConfig(
            Exponential(1.0), (MomentSpec(IDENT),), n=100, replications=100
        )
        with pytest.raises(DomainError):
            coverage_check(cfg, 1.5)
