"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.
"""

import time

import numpy as np
import pytest

from robust_lmoments import (
    CompositeH,
    CovMethod,
    Exponential,
    Identity,
    Log,
    Mode,
    MomentSpec,
    Power,
    SimulationConfig,
    Uniform,
    coverage_check,
    run_mc,
    run_mtm_audit,
    run_mwm_audit,
    run_mwm_equal_props_audit,
    sample_moment,
    sigma_pair,
)
from robust_lmoments.asymcov import gamma_factor
from robust_lmoments.audit import build_equal_props_corpus, build_mtm_corpus
from robust_lmoments.quadrature import integrate

IDENT = Identity()


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def test_criterion_1_trimmed_route_equivalence():
    start = time.perf_counter()
    corpus = build_mtm_corpus() + build_equal_props_corpus()
    assert len(corpus) >= 200
    result = run_mtm_audit(corpus)
    elapsed = time.perf_counter() - start
    ok = result.max_deviation <= 1e-6 and elapsed <= 120.0
    report(
        1,
        ok,
        f"{result.cases} configs, {result.comparisons} route comparisons, "
        f"max relative deviation {result.max_deviation:.3e} (tol 1e-6), "
        f"{elapsed:.1f}s (limit 120s)",
    )
    assert result.max_deviation <= 1e-6
    assert elapsed <= 120.0


def test_criterion_2_winsorized_decomposition():
    start = time.perf_counter()
    general = run_mwm_audit()
    equal = run_mwm_equal_props_audit()
    elapsed = time.perf_counter() - start
    ok = (
        general.max_deviation <= 1e-6
        and equal.max_deviation <= 1e-10
        and elapsed <= 120.0
    )
    report(
        2,
        ok,
        f"decomposition vs reference {general.max_deviation:.3e} (tol 1e-6) on "
        f"{general.cases} configs; equal-proportions shortcut "
        f"{equal.max_deviation:.3e} (tol 1e-10) on {equal.cases}; "
        f"{elapsed:.1f}s (limit 120s)",
    )
    assert general.max_deviation <= 1e-6
    assert equal.max_deviation <= 1e-10
    assert elapsed <= 120.0


def test_criterion_3_analytic_goldens():
    model = Uniform(0.0, 1.0)
    untrimmed = MomentSpec(IDENT)
    worst = 0.0
    for method in (
        CovMethod.ALPHA,
        CovMethod.KERNEL,
        CovMethod.CLOSED,
        CovMethod.EQUAL_PROPS,
    ):
        v, _ = sigma_pair(untrimmed, untrimmed, model, method)
        worst = max(worst, abs(v - 1.0 / 12.0))
    trimmed = MomentSpec(IDENT, 0.25, 0.25)
    v, _ = sigma_pair(trimmed, trimmed, model, CovMethod.EQUAL_PROPS)
    worst_trim = abs(v - 1.0 / 6.0)
    ok = worst <= 1e-9 and worst_trim <= 1e-9
    report(
        3,
        ok,
        f"uniform untrimmed vs 1/12 max error {worst:.2e}, symmetric-trim "
        f"vs 1/6 error {worst_trim:.2e} (tol 1e-9)",
    )
    assert worst <= 1e-9
    assert worst_trim <= 1e-9


def test_criterion_4_monte_carlo_normality():
    start = time.perf_counter()
    devs = []
    skews = []
    for mode in (Mode.MTM, Mode.MWM):
        cfg = SimulationConfig(
            Uniform(0.0, 1.0),
            (MomentSpec(IDENT, 0.25, 0.25, mode),),
            n=10_000,
            replications=2000,
            master_seed=20260823,
        )
        rep = run_mc(cfg)
        devs.append(rep.max_rel_dev)
        skews.append(float(np.max(np.abs(rep.skewness))))
    elapsed = time.perf_counter() - start
    ok = max(devs) <= 0.10 and max(skews) <= 0.15 and elapsed <= 60.0
    report(
        4,
        ok,
        f"variance deviation mtm {devs[0]:.3f} / mwm {devs[1]:.3f} (tol 0.10), "
        f"|skewness| max {max(skews):.3f} (tol 0.15), {elapsed:.1f}s (limit 60s)",
    )
    assert max(devs) <= 0.10
    assert max(skews) <= 0.15
    assert elapsed <= 60.0


def test_criterion_5_coverage():
    start = time.perf_counter()
    cfg = SimulationConfig(
        Exponential(1.0),
        (MomentSpec(IDENT, 0.1, 0.1),),
        n=5000,
        replications=1000,
        master_seed=424242,
    )
    coverage = coverage_check(cfg, 0.95)
    elapsed = time.perf_counter() - start
    ok = 0.93 <= coverage <= 0.97 and elapsed <= 60.0
    report(
        5,
        ok,
        f"95% CI coverage {coverage:.3f} (target [0.93, 0.97]), "
        f"{elapsed:.1f}s (limit 60s)",
    )
    assert 0.93 <= coverage <= 0.97
    assert elapsed <= 60.0


def test_criterion_6_transcription_fix_regression():
    # Fifty left-nested configurations with strictly unequal proportions.
    # The shipped closed form must track the kernel quadrature; the
    # variant with the transposed endpoint factor in the tail bracket
    # (the other coordinate's H evaluated at a_j) must visibly diverge.
    rng = np.random.default_rng(60)
    model = Exponential(1.0)
    transform_pairs = [(IDENT, Power(2.0)), (IDENT, Log()), (Power(2.0), Log())]
    worst_shipped = 0.0
    worst_literal = 0.0
    for idx in range(50):
        ai = rng.uniform(0.02, 0.12)
        aj = ai + rng.uniform(0.02, 0.10)
        bj = rng.uniform(0.02, 0.12)
        bi = bj + rng.uniform(0.02, 0.10)
        ti, tj = transform_pairs[idx % len(transform_pairs)]
        si = MomentSpec(ti, ai, bi)
        sj = MomentSpec(tj, aj, bj)
        ch_i = CompositeH(model, ti)
        ch_j = CompositeH(model, tj)

        shipped, _ = sigma_pair(si, sj, model, CovMethod.CLOSED)
        kernel, _ = sigma_pair(si, sj, model, CovMethod.KERNEL)
        worst_shipped = max(worst_shipped, abs(shipped - kernel) / abs(kernel))

        # literal variant: same closed form, except the tail bracket
        # carries a_j H_j(a_j) in place of a_j H_i(a_j)
        tail = integrate(ch_j.value, si.b_bar, sj.b_bar)
        literal = shipped + gamma_factor(si, sj) * aj * (
            ch_i.value(aj) - ch_j.value(aj)
        ) * tail
        worst_literal = max(worst_literal, abs(literal - kernel) / abs(kernel))

    ok = worst_shipped <= 1e-7 and worst_literal > 1e-3
    report(
        6,
        ok,
        f"proof-consistent form within {worst_shipped:.2e} of quadrature "
        f"(tol 1e-7) on 50 configs; transposed-factor variant deviates by "
        f"up to {worst_literal:.2e} (must exceed 1e-3)",
    )
    assert worst_shipped <= 1e-7
    assert worst_literal > 1e-3


def test_criterion_7_sample_estimator_exactness():
    trimmed = sample_moment([1, 2, 3, 4], MomentSpec(IDENT, 0.25, 0.25))
    winsorized_sym = sample_moment(
        [1, 2, 3, 4], MomentSpec(IDENT, 0.25, 0.25, Mode.MWM)
    )
    winsorized_top = sample_moment(
        [1, 2, 3, 10], MomentSpec(IDENT, 0.0, 0.25, Mode.MWM)
    )
    ok = trimmed == 2.5 and winsorized_sym == 2.5 and winsorized_top == 2.25
    report(
        7,
        ok,
        f"trimmed [1,2,3,4] -> {trimmed} (want 2.5), winsorized [1,2,3,4] -> "
        f"{winsorized_sym} (want 2.5), winsorized [1,2,3,10] -> "
        f"{winsorized_top} (want 2.25), all bit-exact",
    )
    assert trimmed == 2.5
    assert winsorized_sym == 2.5
    assert winsorized_top == 2.25
