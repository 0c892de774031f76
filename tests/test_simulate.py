"""Monte Carlo harness: determinism, seeding, and convergence."""

import numpy as np
import pytest

from robust_lmoments import (
    DomainError,
    Exponential,
    Identity,
    Log,
    Mode,
    MomentSpec,
    Normal,
    RobustLMomentsError,
    SimulationConfig,
    Uniform,
    coverage_check,
    replication_seed,
    run_mc,
)
from robust_lmoments.simulate import splitmix64

IDENT = Identity()


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

    def test_bad_confidence(self):
        cfg = SimulationConfig(
            Exponential(1.0), (MomentSpec(IDENT),), n=100, replications=100
        )
        with pytest.raises(DomainError):
            coverage_check(cfg, 1.5)
