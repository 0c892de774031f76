"""Equivalence audit plumbing on reduced corpora (the full-corpus runs
live in the acceptance tests)."""

import pytest

from robust_lmoments import audit
from robust_lmoments import (
    AuditCase,
    CovMethod,
    Exponential,
    Identity,
    Mode,
    MomentSpec,
    Power,
    Uniform,
    run_mtm_audit,
    run_mwm_audit,
    run_mwm_equal_props_audit,
)
from robust_lmoments.audit import (
    build_equal_props_corpus,
    build_mtm_corpus,
    build_mwm_corpus,
    relative_deviation,
)


class TestRelativeDeviation:
    def test_plain(self):
        assert relative_deviation(1.0, 1.1) == pytest.approx(0.1 / 1.1)

    def test_symmetric(self):
        assert relative_deviation(2.0, 3.0) == relative_deviation(3.0, 2.0)

    def test_near_zero_floor(self):
        assert relative_deviation(1e-14, -1e-14) == 0.0

    def test_identical(self):
        assert relative_deviation(0.5, 0.5) == 0.0


class TestCorpus:
    def test_mtm_corpus_size(self):
        corpus = build_mtm_corpus() + build_equal_props_corpus()
        assert len(corpus) >= 200

    def test_corpus_respects_mass_condition(self):
        for case in build_mtm_corpus() + build_equal_props_corpus():
            assert case.spec_i.a + case.spec_i.b < 1
            assert case.spec_j.a + case.spec_j.b < 1

    def test_corpus_covers_all_orderings(self):
        seen = set()
        for case in build_mtm_corpus():
            si, sj = case.spec_i, case.spec_j
            nested_ij = si.a <= sj.a < si.b_bar and si.b_bar <= sj.b_bar
            nested_ji = sj.a <= si.a < sj.b_bar and sj.b_bar <= si.b_bar
            disjoint = si.b_bar <= sj.a or sj.b_bar <= si.a
            if disjoint:
                seen.add("disjoint")
            elif nested_ij:
                seen.add("nested-ij")
            elif nested_ji:
                seen.add("nested-ji")
            else:
                seen.add("staggered")
        assert seen == {"disjoint", "nested-ij", "nested-ji", "staggered"}

    def test_unbounded_tails_always_trimmed(self):
        for case in build_mtm_corpus() + build_equal_props_corpus():
            for spec in (case.spec_i, case.spec_j):
                if not case.model.bounded_above:
                    assert spec.b > 0
                if not case.model.bounded_below:
                    assert spec.a > 0

    def test_mwm_corpus_mode(self):
        assert all(
            c.spec_i.mode is Mode.MWM and c.spec_j.mode is Mode.MWM
            for c in build_mwm_corpus()
        )


class TestAuditRuns:
    SMALL = [
        AuditCase(
            Uniform(0, 1),
            MomentSpec(Identity(), 0.05, 0.25),
            MomentSpec(Power(2.0), 0.10, 0.10),
        ),
        AuditCase(
            Exponential(1.0),
            MomentSpec(Identity(), 0.10, 0.10),
            MomentSpec(Identity(), 0.10, 0.10),
        ),
    ]

    def test_mtm_subset_passes(self):
        result = run_mtm_audit(self.SMALL)
        assert result.passed
        assert result.cases == 2
        assert result.comparisons > 0

    def test_mwm_subset_passes(self):
        cases = [
            AuditCase(
                c.model,
                MomentSpec(c.spec_i.transform, c.spec_i.a, c.spec_i.b, Mode.MWM),
                MomentSpec(c.spec_j.transform, c.spec_j.a, c.spec_j.b, Mode.MWM),
            )
            for c in self.SMALL
        ]
        result = run_mwm_audit(cases)
        assert result.passed

    def test_equal_props_subset_tight(self):
        cases = [
            AuditCase(
                Exponential(1.0),
                MomentSpec(Identity(), 0.1, 0.25, Mode.MWM),
                MomentSpec(Power(2.0), 0.1, 0.25, Mode.MWM),
            )
        ]
        result = run_mwm_equal_props_audit(cases)
        assert result.max_deviation <= 1e-10


@pytest.mark.parametrize(
    "run_audit, route, passed",
    [
        (run_mwm_equal_props_audit, CovMethod.EQUAL_PROPS, False),
        (run_mwm_audit, CovMethod.MWM_DECOMP, True),
    ],
    ids=["equal-props", "mwm"],
)
def test_pass_uses_each_audits_tolerance(monkeypatch, run_audit, route, passed):
    """A 1e-8 relative error breaks the 1e-10 equal-props gate but not
    the 1e-6 gate of the decomposition audit."""
    original = audit.sigma_pair

    def perturbed(*args, **kwargs):
        value, used = original(*args, **kwargs)
        return (value * (1.0 + 1e-8) if used == route.value else value), used

    monkeypatch.setattr(audit, "sigma_pair", perturbed)
    case = AuditCase(
        Exponential(1.0),
        MomentSpec(Identity(), 0.1, 0.25, Mode.MWM),
        MomentSpec(Power(2.0), 0.1, 0.25, Mode.MWM),
    )
    result = run_audit([case])
    assert 5e-9 < result.max_deviation < 1e-7
    assert result.passed is passed
