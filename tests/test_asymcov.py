"""Asymptotic covariance routes: goldens, identities, and cross-checks."""

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from robust_lmoments import (
    CompositeH,
    CovMethod,
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
    OrderingError,
    Pareto,
    Power,
    Shifted,
    SingularJacobianError,
    Uniform,
    cov_matrix,
    register_transform,
    sigma_pair,
)
import robust_lmoments.asymcov as asymcov_module
import robust_lmoments.moments as moments_module
from robust_lmoments import quadrature
from robust_lmoments.asymcov import (
    _by_parts,
    _equal_props,
    _nested_pair,
    gamma_factor,
)
from robust_lmoments.audit import (
    AuditCase,
    build_equal_props_corpus,
    build_mtm_corpus,
    build_mwm_corpus,
    run_mtm_audit,
    run_mwm_equal_props_audit,
)
from robust_lmoments.models import CustomTransform

IDENT = Identity()
UNIF = Uniform(0.0, 1.0)
EXP = Exponential(1.0)
CH_UNIF = CompositeH(UNIF, IDENT)
CH_EXP = CompositeH(EXP, IDENT)


def int_I(a, b, ch, bar=False):
    """The paper's I(a, b) = int_a^b v H'(v) dv, or Ibar with (1-v) for v
    if ``bar``, by the by-parts step of the routes' table."""
    return _by_parts(ch.value, a, b, quadrature.integrate(ch.value, a, b), bar)


def int_Ibar(a, b, ch):
    return int_I(a, b, ch, bar=True)


MTM_METHODS = [
    CovMethod.ALPHA,
    CovMethod.KERNEL,
    CovMethod.CLOSED,
    CovMethod.EQUAL_PROPS,
]


class TestIntegralIdentities:
    def test_exp_tail_weighted_integral(self):
        # int_{1/4}^{3/4} (1-v) d(-log(1-v)) = integral of dv = 1/2 exactly
        assert int_Ibar(0.25, 0.75, CH_EXP) == pytest.approx(0.5, rel=1e-10)

    def test_complementary_sum(self):
        # I + Ibar telescopes to H(b) - H(a)
        for a, b in [(0.1, 0.6), (0.25, 0.75), (0.01, 0.99)]:
            total = int_I(a, b, CH_EXP) + int_Ibar(a, b, CH_EXP)
            assert total == pytest.approx(
                CH_EXP.value(b) - CH_EXP.value(a), rel=1e-9
            )

    def test_uniform_weighted_integrals(self):
        # For H(v) = v: I = int v dv, Ibar = int (1-v) dv
        assert int_I(0.2, 0.8, CH_UNIF) == pytest.approx(0.3, rel=1e-10)
        assert int_Ibar(0.2, 0.8, CH_UNIF) == pytest.approx(0.3, rel=1e-10)

    def test_degenerate_interval(self):
        assert int_I(0.4, 0.4, CH_EXP) == 0.0
        assert int_Ibar(0.4, 0.4, CH_EXP) == 0.0

    def test_gamma_factor(self):
        si = MomentSpec(IDENT, 0.1, 0.2)
        sj = MomentSpec(IDENT, 0.0, 0.5)
        assert gamma_factor(si, sj) == pytest.approx(1.0 / (0.7 * 0.5), rel=1e-12)


class TestGoldens:
    @pytest.mark.parametrize("method", MTM_METHODS)
    def test_uniform_untrimmed_one_twelfth(self, method):
        spec = MomentSpec(IDENT)
        v, _ = sigma_pair(spec, spec, UNIF, method)
        assert v == pytest.approx(1.0 / 12.0, abs=1e-9)

    @pytest.mark.parametrize("method", MTM_METHODS)
    def test_uniform_symmetric_trim_one_sixth(self, method):
        spec = MomentSpec(IDENT, 0.25, 0.25)
        v, _ = sigma_pair(spec, spec, UNIF, method)
        assert v == pytest.approx(1.0 / 6.0, abs=1e-9)

    @pytest.mark.parametrize(
        "method", [CovMethod.ALPHA, CovMethod.MWM_DECOMP, CovMethod.EQUAL_PROPS]
    )
    def test_uniform_winsorized_thirteen_ninety_sixths(self, method):
        spec = MomentSpec(IDENT, 0.25, 0.25, Mode.MWM)
        v, _ = sigma_pair(spec, spec, UNIF, method)
        assert v == pytest.approx(13.0 / 96.0, abs=1e-9)

    @pytest.mark.parametrize("method", MTM_METHODS)
    def test_exponential_symmetric_trim(self, method):
        # frozen from the agreeing kernel/alpha/closed evaluations
        spec = MomentSpec(IDENT, 0.25, 0.25)
        v, _ = sigma_pair(spec, spec, EXP, method)
        assert v == pytest.approx(0.8027754226637804, rel=1e-9)

    @pytest.mark.parametrize(
        "method", [CovMethod.ALPHA, CovMethod.MWM_DECOMP, CovMethod.EQUAL_PROPS]
    )
    def test_exponential_winsorized_five_sixths(self, method):
        spec = MomentSpec(IDENT, 0.25, 0.25, Mode.MWM)
        v, _ = sigma_pair(spec, spec, EXP, method)
        assert v == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_lognormal_power_regression(self):
        spec = MomentSpec(Power(2.0), 0.05, 0.1)
        v, _ = sigma_pair(spec, spec, Lognormal(0.0, 0.5), CovMethod.EQUAL_PROPS)
        assert v == pytest.approx(1.6144404505107566, rel=1e-8)


class TestRouteAgreement:
    def test_mixed_proportions_all_routes(self):
        si = MomentSpec(IDENT, 0.05, 0.25)
        sj = MomentSpec(Power(2.0), 0.10, 0.10)
        values = [
            sigma_pair(si, sj, UNIF, m)[0]
            for m in (CovMethod.ALPHA, CovMethod.KERNEL, CovMethod.CLOSED)
        ]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-8)

    def test_closed_symmetric_in_pair(self):
        si = MomentSpec(IDENT, 0.05, 0.25)
        sj = MomentSpec(Log(), 0.10, 0.10)
        a, _ = sigma_pair(si, sj, EXP, CovMethod.CLOSED)
        b, _ = sigma_pair(sj, si, EXP, CovMethod.CLOSED)
        assert a == pytest.approx(b, rel=1e-10)

    def test_equal_props_matches_closed(self):
        for a, b in [(0.05, 0.05), (0.1, 0.25), (0.25, 0.1)]:
            si = MomentSpec(IDENT, a, b)
            sj = MomentSpec(Power(2.0), a, b)
            x, _ = sigma_pair(si, sj, UNIF, CovMethod.EQUAL_PROPS)
            y, _ = sigma_pair(si, sj, UNIF, CovMethod.CLOSED)
            assert x == pytest.approx(y, rel=1e-10)

    def test_ordering_error_when_windows_staggered(self):
        si = MomentSpec(IDENT, 0.05, 0.05)
        sj = MomentSpec(IDENT, 0.10, 0.25)
        with pytest.raises(OrderingError):
            sigma_pair(si, sj, EXP, CovMethod.CLOSED)

    def test_auto_falls_back_to_kernel(self):
        si = MomentSpec(IDENT, 0.05, 0.05)
        sj = MomentSpec(IDENT, 0.10, 0.25)
        v, label = sigma_pair(si, sj, EXP, CovMethod.AUTO)
        ref, _ = sigma_pair(si, sj, EXP, CovMethod.ALPHA)
        assert label == "kernel"
        assert v == pytest.approx(ref, rel=1e-7)


class TestScaling:
    def test_variance_scales_quadratically(self):
        spec = MomentSpec(IDENT, 0.1, 0.1)
        base, _ = sigma_pair(spec, spec, EXP, CovMethod.EQUAL_PROPS)
        scaled, _ = sigma_pair(spec, spec, Exponential(3.0), CovMethod.EQUAL_PROPS)
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)

    def test_shift_invariance(self):
        spec_a = MomentSpec(IDENT, 0.1, 0.1)
        spec_b = MomentSpec(Shifted(5.0), 0.1, 0.1)
        a, _ = sigma_pair(spec_a, spec_a, EXP, CovMethod.EQUAL_PROPS)
        b, _ = sigma_pair(spec_b, spec_b, EXP, CovMethod.EQUAL_PROPS)
        assert b == pytest.approx(a, rel=1e-9)


# Windows (a, b) of the normal-family shift and scale checks: the pairs of
# (0.05, 0.25), (0.10, 0.10) and (0.40, 0.10) are left-nested, (0.05, 0.05)
# holds the last two inside it, (0.05, 0.70) and (0.40, 0.10) are disjoint,
# and the diagonal has equal windows.
SHIFT_WINDOWS = [(0.05, 0.25), (0.10, 0.10), (0.40, 0.10), (0.05, 0.05), (0.05, 0.70)]
NESTED_WINDOWS = SHIFT_WINDOWS[:3]


def _normal_cov(windows, mode, method, loc, scale):
    specs = [MomentSpec(IDENT, a, b, mode) for a, b in windows]
    return cov_matrix(specs, Normal(loc, scale), method).entries


def _route_id(route) -> str:
    mode, method, windows = route
    if len(windows) == 1:
        shape = "equal(%g,%g)" % windows[0]
    else:
        shape = "nested" if windows == NESTED_WINDOWS else "all"
    return f"{mode.value}-{method.value}-{shape}"


class TestLocationScale:
    """For the identity transform of a normal family, every entry is
    unchanged by a shift and scales by c^2 with the scale c."""

    ROUTES = [
        (Mode.MTM, CovMethod.ALPHA, SHIFT_WINDOWS),
        (Mode.MTM, CovMethod.KERNEL, SHIFT_WINDOWS),
        (Mode.MTM, CovMethod.CLOSED, NESTED_WINDOWS),
        (Mode.MTM, CovMethod.AUTO, SHIFT_WINDOWS),
        (Mode.MWM, CovMethod.ALPHA, SHIFT_WINDOWS),
        (Mode.MWM, CovMethod.MWM_DECOMP, SHIFT_WINDOWS),
        (Mode.MWM, CovMethod.AUTO, SHIFT_WINDOWS),
        *[(mode, CovMethod.EQUAL_PROPS, [w]) for mode in Mode for w in SHIFT_WINDOWS],
    ]

    @pytest.mark.parametrize("mode, method, windows", ROUTES, ids=map(_route_id, ROUTES))
    def test_shift_by_1e5(self, mode, method, windows):
        base = _normal_cov(windows, mode, method, 0.0, 1.0)
        shifted = _normal_cov(windows, mode, method, 1e5, 1.0)
        np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("mode, method, windows", ROUTES, ids=map(_route_id, ROUTES))
    def test_scale_by_3(self, mode, method, windows):
        base = _normal_cov(windows, mode, method, 0.0, 1.0)
        scaled = _normal_cov(windows, mode, method, 0.0, 3.0)
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-9, atol=0.0)


class TestCovMatrix:
    def test_symmetric_and_psd(self):
        specs = [
            MomentSpec(IDENT, 0.1, 0.1),
            MomentSpec(Power(2.0), 0.1, 0.1),
            MomentSpec(Log(), 0.05, 0.25),
        ]
        cov = cov_matrix(specs, Exponential(1.0))
        assert np.allclose(cov.entries, cov.entries.T)
        assert cov.min_eigenvalue() > -1e-9

    def test_method_labels(self):
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.1, 0.1)]
        cov = cov_matrix(specs, UNIF)
        assert cov.methods[0][0] == "equal-props"
        assert cov.k == 2
        assert cov[0, 1] == cov[1, 0]

    def test_mode_mix_rejected(self):
        specs = [
            MomentSpec(IDENT, 0.1, 0.1),
            MomentSpec(IDENT, 0.1, 0.1, Mode.MWM),
        ]
        with pytest.raises(DomainError):
            cov_matrix(specs, UNIF)

    def test_normal_two_sided(self):
        specs = [MomentSpec(IDENT, 0.1, 0.1), MomentSpec(Power(2.0), 0.05, 0.05)]
        cov = cov_matrix(specs, Normal(0.0, 1.0))
        ref, _ = sigma_pair(specs[0], specs[1], Normal(0.0, 1.0), CovMethod.ALPHA)
        assert cov[0, 1] == pytest.approx(ref, rel=1e-7, abs=1e-9)


# The cases of the three audits.
OVER_AUDIT_CORPORA = pytest.mark.parametrize(
    "corpus",
    [
        build_mtm_corpus() + build_equal_props_corpus(),
        build_mwm_corpus(),
        build_equal_props_corpus(Mode.MWM),
    ],
    ids=["mtm", "mwm", "mwm-equal-props"],
)

# The routes each mode accepts; AUTO resolves to one of them.
APPLICABLE = {
    Mode.MTM: set(MTM_METHODS),
    Mode.MWM: {CovMethod.ALPHA, CovMethod.MWM_DECOMP, CovMethod.EQUAL_PROPS},
}


UNEQUAL = "equal-proportions form requires a_i=a_j and b_i=b_j"
NOT_NESTED = (
    "closed form needs a_i <= a_j < 1-b_i <= 1-b_j (possibly after swapping "
    "the pair); use the kernel or alpha form instead"
)


class TestRouteTable:
    @pytest.mark.parametrize("method", list(CovMethod), ids=lambda m: m.value)
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_every_mode_method_pair(self, mode, method):
        # Equal proportions, so every route of the mode is valid for the pair.
        si = MomentSpec(IDENT, 0.1, 0.2, mode)
        sj = MomentSpec(Power(2.0), 0.1, 0.2, mode)
        if method is CovMethod.AUTO:
            assert sigma_pair(si, sj, UNIF, method)[1] == "equal-props"
        elif method in APPLICABLE[mode]:
            assert sigma_pair(si, sj, UNIF, method)[1] == method.value
        else:
            name = "trimmed" if mode is Mode.MTM else "winsorized"
            message = f"method {method.value} not applicable to {name} mode"
            with pytest.raises(DomainError, match=f"^{message}$"):
                sigma_pair(si, sj, UNIF, method)

    @staticmethod
    def expected_auto(si, sj):
        if si.a == sj.a and si.b == sj.b:
            return "equal-props"
        if si.mode is Mode.MWM:
            return "mwm-decomposition"
        nested_ij = si.a <= sj.a < si.b_bar and si.b_bar <= sj.b_bar
        nested_ji = sj.a <= si.a < sj.b_bar and sj.b_bar <= si.b_bar
        return "closed" if nested_ij or nested_ji else "kernel"

    @OVER_AUDIT_CORPORA
    def test_auto_label_over_audit_corpora(self, corpus):
        for case in corpus:
            _, label = sigma_pair(case.spec_i, case.spec_j, case.model)
            assert label == self.expected_auto(case.spec_i, case.spec_j), case

    @pytest.mark.parametrize("method", list(CovMethod), ids=lambda m: m.value)
    def test_mixed_modes_refused(self, method):
        si = MomentSpec(IDENT, 0.1, 0.2, Mode.MTM)
        sj = MomentSpec(IDENT, 0.1, 0.2, Mode.MWM)
        with pytest.raises(
            DomainError, match="^covariance entries require a single estimation mode$"
        ):
            sigma_pair(si, sj, UNIF, method)

    @pytest.mark.parametrize(
        "mode, method, message",
        [
            (Mode.MTM, "equal-props", UNEQUAL),
            (Mode.MWM, "equal-props", UNEQUAL),
            (Mode.MTM, "closed", NOT_NESTED),
        ],
        ids=["mtm-equal-props", "mwm-equal-props", "closed"],
    )
    def test_refusal_text(self, mode, method, message):
        # Staggered windows: neither nested nor of equal proportions.
        si = MomentSpec(IDENT, 0.05, 0.05, mode)
        sj = MomentSpec(IDENT, 0.10, 0.25, mode)
        with pytest.raises(OrderingError) as info:
            sigma_pair(si, sj, UNIF, method)
        assert str(info.value) == message

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_valid_methods_are_the_routes_that_run(self, mode):
        pairs = [
            ((0.05, 0.05), (0.10, 0.25)),  # staggered
            ((0.05, 0.25), (0.10, 0.10)),  # nested
            ((0.10, 0.20), (0.10, 0.20)),  # equal
        ]
        for (ai, bi), (aj, bj) in pairs:
            si = MomentSpec(IDENT, ai, bi, mode)
            sj = MomentSpec(IDENT, aj, bj, mode)
            valid = asymcov_module._valid_methods(si, sj)
            assert set(valid) <= APPLICABLE[mode]
            for method in APPLICABLE[mode]:
                if method in valid:
                    sigma_pair(si, sj, UNIF, method)
                else:
                    with pytest.raises(OrderingError):
                        sigma_pair(si, sj, UNIF, method)


CLOSED_ROUTES = {
    CovMethod.CLOSED: lambda si, sj: si.mode is Mode.MTM and _nested_pair(si, sj),
    CovMethod.EQUAL_PROPS: _equal_props,
    CovMethod.MWM_DECOMP: lambda si, sj: si.mode is Mode.MWM,
}


@OVER_AUDIT_CORPORA
def test_closed_routes_never_reach_the_batched_engine(corpus, monkeypatch):
    """The closed routes run on scalar quadrature alone; the batched
    engine belongs to the alpha and kernel references they are checked
    against."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a closed route called integrate_batch")

    monkeypatch.setattr(asymcov_module, "integrate_batch", forbidden)
    evaluated = 0
    for case in corpus:
        for method, applies in CLOSED_ROUTES.items():
            if applies(case.spec_i, case.spec_j):
                sigma_pair(case.spec_i, case.spec_j, case.model, method)
                evaluated += 1
    assert evaluated >= len(corpus)


# Window pairs of every ordering, one of them untrimmed at a lower edge.
EDGE_WINDOWS = [
    ((0.05, 0.25), (0.10, 0.10)),
    ((0.05, 0.05), (0.10, 0.25)),
    ((0.40, 0.10), (0.05, 0.70)),
    ((0.00, 0.10), (0.10, 0.25)),
    ((0.10, 0.20), (0.10, 0.20)),
]


@pytest.mark.parametrize("windows", EDGE_WINDOWS, ids=str)
def test_mwm_decomposition_takes_h_prime_once_per_trimmed_edge(windows, monkeypatch):
    calls = []
    deriv = CompositeH.deriv

    def counted(ch, u):
        calls.extend((ch.transform, point) for point in np.ravel(u).tolist())
        return deriv(ch, u)

    monkeypatch.setattr(CompositeH, "deriv", counted)
    (ai, bi), (aj, bj) = windows
    si = MomentSpec(IDENT, ai, bi, Mode.MWM)
    sj = MomentSpec(Log(), aj, bj, Mode.MWM)
    sigma_pair(si, sj, EXP, CovMethod.MWM_DECOMP)
    for spec in (si, sj):
        edges = {u for u, share in ((spec.a, spec.a), (spec.b_bar, spec.b)) if share}
        mine = [u for transform, u in calls if transform == spec.transform]
        assert sorted(mine) == sorted(edges)


@pytest.mark.parametrize(
    "method", [CovMethod.MWM_DECOMP, CovMethod.EQUAL_PROPS], ids=lambda m: m.value
)
def test_a_diagonal_entry_takes_h_prime_once_per_trimmed_edge(method, monkeypatch):
    """Both coordinates of a diagonal entry are one side of its table, so
    H' is read once at each trimmed edge, not once per coordinate."""
    points = []
    deriv = CompositeH.deriv

    def counted(ch, u):
        points.extend(np.ravel(u).tolist())
        return deriv(ch, u)

    monkeypatch.setattr(CompositeH, "deriv", counted)
    spec = MomentSpec(IDENT, 0.1, 0.2, Mode.MWM)
    # sigma_pair builds two equal composites, not one object
    sigma_pair(spec, spec, EXP, method)
    assert sorted(points) == [0.1, 0.8]


def _quadpack_calls(monkeypatch, run) -> int:
    """The scalar QUADPACK calls that ``run()`` makes."""
    calls = []

    def counted(f, lo, hi):
        calls.append((lo, hi))
        return quadrature.integrate(f, lo, hi)

    for module in (asymcov_module, moments_module):
        monkeypatch.setattr(module, "integrate", counted)
    run()
    return len(calls)


def _entry(model, transforms, windows, mode, method):
    """``sigma_pair`` arguments: one spec per transform."""
    specs = [MomentSpec(t, a, b, mode) for t, (a, b) in zip(transforms, windows)]
    return (*specs, model, method)


LOGNORMAL = Lognormal(0.0, 0.5)
EQUAL_MWM = (
    LOGNORMAL, [Log(), Log()], [(0.10, 0.25)] * 2, Mode.MWM, CovMethod.EQUAL_PROPS
)


class TestWindowIntegralsOncePerEntry:
    """The closed forms read one table per covariance entry: [0, 1] cut at
    the window ends, each side's integral over each piece inside its
    window and the product's over each piece inside both, each taken once,
    with a side that both coordinates share built once."""

    # id, sigma_pair arguments, QUADPACK calls (sides' pieces + products)
    CASES = [
        ("closed-staggered",
         (LOGNORMAL, [Power(2.0), Log()], [(0.05, 0.25), (0.10, 0.10)], Mode.MTM,
          CovMethod.CLOSED), 5),
        ("closed-staggered-swapped",
         (LOGNORMAL, [Log(), Power(2.0)], [(0.10, 0.10), (0.05, 0.25)], Mode.MTM,
          CovMethod.CLOSED), 5),
        ("closed-equal",
         (LOGNORMAL, [Power(2.0), Log()], [(0.10, 0.10)] * 2, Mode.MTM,
          CovMethod.CLOSED), 3),
        ("equal-props-diagonal", EQUAL_MWM, 2),
        ("equal-props-diagonal-untrimmed-below",
         (Exponential(1.0), [IDENT, IDENT], [(0.0, 0.10)] * 2, Mode.MWM,
          CovMethod.EQUAL_PROPS), 2),
        ("equal-props-two-transforms",
         (LOGNORMAL, [Power(2.0), Log()], [(0.10, 0.25)] * 2, Mode.MWM,
          CovMethod.EQUAL_PROPS), 3),
    ]

    @pytest.mark.parametrize(
        "entry, calls", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_quadpack_calls_per_entry(self, entry, calls, monkeypatch):
        assert _quadpack_calls(monkeypatch, lambda: sigma_pair(*_entry(*entry))) == calls


@dataclass
class PlainExponential(DistributionModel):
    """A user family written as a plain dataclass: mutable, so unhashable."""

    scale: float = 1.0

    family = "plain-exponential"
    param_bounds = ((0.0, math.inf),)
    bounded_below = True

    def quantiles(self, u):
        return -self.scale * np.log1p(-np.asarray(u, dtype=float))

    def quantile_densities(self, u):
        return self.scale / (1.0 - np.asarray(u, dtype=float))


def _evaluated_cold(*entry) -> float:
    """``sigma_pair(*entry)``'s value with no table kept from before."""
    asymcov_module._last_table = None
    return sigma_pair(*entry)[0]


class TestLastTable:
    """The last entry's table is kept, so the closed routes that the audits
    evaluate back to back on one entry integrate its windows once; an entry
    that differs in anything builds its own."""

    @pytest.mark.parametrize(
        "audit, mode",
        [(run_mtm_audit, Mode.MTM), (run_mwm_equal_props_audit, Mode.MWM)],
        ids=["mtm", "mwm-equal-props"],
    )
    @pytest.mark.parametrize(
        "transforms, calls",
        [([Power(2.0), Log()], 3), ([Log(), Log()], 2)],
        ids=["two-transforms", "shared-side"],
    )
    def test_an_audit_case_integrates_one_table(
        self, audit, mode, transforms, calls, monkeypatch
    ):
        # mtm runs closed and equal-props; mwm-equal-props runs
        # mwm-decomposition and equal-props: two closed routes each.
        specs = [MomentSpec(t, 0.10, 0.25, mode) for t in transforms]
        case = AuditCase(LOGNORMAL, *specs)
        assert _quadpack_calls(monkeypatch, lambda: audit([case])) == calls

    def test_a_repeated_spec_shares_one_table_across_its_entries(self, monkeypatch):
        spec = MomentSpec(Log(), 0.10, 0.25, Mode.MWM)
        assert _quadpack_calls(monkeypatch, lambda: cov_matrix([spec, spec], LOGNORMAL)) == 2

    ENTRY_A = (
        MomentSpec(IDENT, 0.10, 0.25), MomentSpec(Power(2.0), 0.10, 0.25), LOGNORMAL
    )
    # Each differs from ENTRY_A in one input only; auto takes a closed route.
    ENTRIES_B = {
        "parameter": (*ENTRY_A[:2], Lognormal(0.0, 0.6)),
        "class": (*ENTRY_A[:2], Normal(0.0, 0.5)),
        "proportion": (ENTRY_A[0], MomentSpec(Power(2.0), 0.10, 0.20), LOGNORMAL),
        "mode": (
            MomentSpec(IDENT, 0.10, 0.25, Mode.MWM),
            MomentSpec(Power(2.0), 0.10, 0.25, Mode.MWM),
            LOGNORMAL,
        ),
        "transform": (ENTRY_A[0], MomentSpec(Power(3.0), 0.10, 0.25), LOGNORMAL),
    }

    @pytest.mark.parametrize("entry_b", ENTRIES_B.values(), ids=ENTRIES_B.keys())
    def test_an_entry_after_another_is_its_own(self, entry_b):
        cold = _evaluated_cold(*entry_b)
        a = _evaluated_cold(*self.ENTRY_A)
        b, used = sigma_pair(*entry_b)
        assert used in ("closed", "equal-props")
        assert b.hex() == cold.hex()
        assert b != a

    def test_a_divergent_table_diverges_again_on_the_next_route(self):
        # H = 1/u on uniform(0, 1) is not integrable at the untrimmed end 0.
        reciprocal = CustomTransform("reciprocal", lambda x: 1.0 / x, lambda x: -1.0 / x**2)
        spec = MomentSpec(reciprocal, 0.0, 0.1)
        with pytest.raises(DivergenceError) as first:
            sigma_pair(spec, spec, UNIF, CovMethod.EQUAL_PROPS)
        with pytest.raises(DivergenceError) as second:
            sigma_pair(spec, spec, UNIF, CovMethod.CLOSED)
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)

    def test_threads_racing_on_the_slot_each_get_their_own_entry(self):
        # Four threads, one entry each, switching often: a slot whose entry
        # and table were stored apart could hand a thread another's table.
        entries = [
            (MomentSpec(Log(), 0.10, b), MomentSpec(Power(2.0), 0.10, b), LOGNORMAL)
            for b in (0.15, 0.20, 0.25, 0.30)
        ]
        methods = (CovMethod.CLOSED, CovMethod.EQUAL_PROPS)
        cold = {(k, m): _evaluated_cold(*e, m) for k, e in enumerate(entries) for m in methods}
        wrong = []

        def evaluate(k):
            for _ in range(1000):
                for m in methods:
                    try:
                        value, _ = sigma_pair(*entries[k], m)
                    except Exception as exc:  # a torn table fails to index
                        value = exc
                    if value != cold[k, m]:
                        wrong.append((k, m, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_an_unhashable_family_runs_the_closed_routes(self):
        assert PlainExponential.__hash__ is None
        spec = MomentSpec(Log(), 0.10, 0.25)
        values = [
            sigma_pair(spec, spec, model, method)[0]
            for model in (PlainExponential(2.0), Exponential(2.0))
            for method in (CovMethod.CLOSED, CovMethod.EQUAL_PROPS)
        ]
        assert values[:2] == pytest.approx(values[2:], rel=1e-12)

    def test_a_mutable_family_changed_in_place_gets_a_fresh_table(self):
        spec = MomentSpec(Log(), 0.10, 0.25)
        model = PlainExponential(1.0)
        closed, _ = sigma_pair(spec, spec, model, CovMethod.CLOSED)
        model.scale = 2.0
        changed, _ = sigma_pair(spec, spec, model, CovMethod.EQUAL_PROPS)
        assert changed == _evaluated_cold(spec, spec, model, CovMethod.EQUAL_PROPS)
        # a scale moves log H by a constant, which the covariance ignores
        assert closed == pytest.approx(1.87295, abs=5e-6)
        assert changed == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_alpha_sweeps_identical_coordinates_once(mode, monkeypatch):
    widths = []
    alphas = asymcov_module._alphas

    def recorded(u, pairs, edge_dhs):
        widths.append(len(pairs))
        return alphas(u, pairs, edge_dhs)

    monkeypatch.setattr(asymcov_module, "_alphas", recorded)
    spec = MomentSpec(Log(), 0.10, 0.25, mode)
    # sigma_pair builds two equal composites, not one object
    entry = (spec, spec, LOGNORMAL)
    alpha, _ = sigma_pair(*entry, CovMethod.ALPHA)
    assert set(widths) == {1}
    influence, _ = sigma_pair(*entry, CovMethod.EQUAL_PROPS)
    assert alpha == pytest.approx(influence, rel=1e-8)


def _nested_work(monkeypatch, *entry) -> tuple[int, int, int]:
    """Outer rounds, inner rounds and nodes of ``sigma_pair(*entry)``
    on the batched engine: a round is one integrand call, and a round
    of an inner sweep runs inside an outer one."""
    engine = asymcov_module.integrate_batch
    work = {"outer": 0, "inner": 0, "nodes": 0}
    depth = [0]

    def counted(f, lo, hi, **kwargs):
        level = "outer" if depth[0] == 0 else "inner"

        def g(u, rows):
            work[level] += 1
            work["nodes"] += u.size
            depth[0] += 1
            try:
                return f(u, rows)
            finally:
                depth[0] -= 1

        return engine(g, lo, hi, **kwargs)

    monkeypatch.setattr(asymcov_module, "integrate_batch", counted)
    sigma_pair(*entry)
    return work["outer"], work["inner"], work["nodes"]


class TestNestedWork:
    """The alpha and kernel routes start each outer piece as two panels;
    one panel takes (2, 4, 3318) for alpha and (2, 4, 2793) for kernel on
    this entry, so a drift back shows up here.  Its pieces and inner
    segments lie inside (0, 1), so the engine integrates them in logit
    coordinates; in u they took (1, 2, 2856) and (1, 2, 1848).

    The log entry has a log singularity at the untrimmed end u = 0, where
    the engine cuts the end panel toward 0 in graded steps; bisecting it
    took (14, 84, 16590) for alpha and (9, 45, 19530) for kernel.  Its
    interior pieces and segments take the logit map; with every piece in
    u it took (4, 11, 10080) and (3, 9, 11802)."""

    ENTRY = (Pareto(2.5, 1.0), [IDENT, Power(2.0)], [(0.10, 0.25), (0.05, 0.05)],
             Mode.MTM)
    WORK = {CovMethod.ALPHA: (1, 1, 2814), CovMethod.KERNEL: (1, 1, 1806)}

    @pytest.mark.parametrize("method", list(WORK), ids=lambda m: m.value)
    def test_work_is_pinned(self, method, monkeypatch):
        entry = _entry(*self.ENTRY, method)
        assert _nested_work(monkeypatch, *entry) == self.WORK[method]

    LOG_ENTRY = (UNIF, [Log(), Log()], [(0.0, 0.1), (0.0, 0.1)], Mode.MTM)
    LOG_WORK = {CovMethod.ALPHA: (4, 7, 9366), CovMethod.KERNEL: (3, 3, 10836)}

    @pytest.mark.parametrize("method", list(LOG_WORK), ids=lambda m: m.value)
    def test_log_singular_work_is_pinned(self, method, monkeypatch):
        entry = _entry(*self.LOG_ENTRY, method)
        assert _nested_work(monkeypatch, *entry) == self.LOG_WORK[method]

    def test_kernel_inner_sorts_its_points_once(self, monkeypatch):
        spec = MomentSpec(Log(), 0.10, 0.25)
        ch = CompositeH(LOGNORMAL, Log())
        w = np.linspace(0.01, 0.99, 42).reshape(2, 21)
        sorts = []
        sort = np.sort

        def counted(*args, **kwargs):
            sorts.append(args[0].size)
            return sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counted)
        inner = asymcov_module._kernel_inner(w, spec, ch)
        assert sorts == [w.size]
        # Equal points in two arrays are sorted apart, to the same segments.
        x = np.clip(w.ravel(), spec.a, spec.b_bar)
        heads, tails = asymcov_module._sweep(
            lambda v, part: ch.deriv(v) * np.where(part == 0, v, 1.0 - v),
            [(x, spec.a, spec.b_bar, True), (x.copy(), spec.a, spec.b_bar, False)],
            asymcov_module._KERNEL_INNER_REL_TOL,
        )
        assert len(sorts) == 3
        apart = (1.0 - w) * heads.reshape(w.shape) + w * tails.reshape(w.shape)
        assert inner.tolist() == apart.tolist()


class CodedError(Exception):
    """An exception whose constructor does not take a single message."""

    def __init__(self, code: int, detail: str):
        super().__init__(code, detail)
        self.code = code


def _raising_transform(exc: Exception) -> CustomTransform:
    def fail(x):
        raise exc

    return CustomTransform("failing", fail, fail)


class TestCovMatrixErrors:
    def test_exception_object_kept_with_entry_context(self):
        exc = SingularJacobianError("flat", condition=5.0)
        specs = [MomentSpec(_raising_transform(exc), 0.1, 0.1)]
        with pytest.raises(SingularJacobianError) as info:
            cov_matrix(specs, UNIF)
        assert str(info.value) == "entry (0, 0): flat"
        assert info.value.condition == 5.0

    @pytest.mark.parametrize(
        "method", [CovMethod.AUTO, CovMethod.ALPHA], ids=lambda m: m.value
    )
    def test_divergent_window_integral_is_refused_with_its_entry(self, method):
        # H = 1/u on uniform(0, 1) is not integrable at the untrimmed end 0.
        reciprocal = register_transform(
            "reciprocal", lambda x: 1.0 / x, lambda x: -1.0 / (x * x)
        )
        specs = [MomentSpec(reciprocal, 0.0, 0.1)]
        with pytest.raises(DivergenceError, match=r"^entry \(0, 0\): "):
            cov_matrix(specs, UNIF, method)

    def test_exception_with_other_constructor_keeps_its_type(self):
        specs = [MomentSpec(_raising_transform(CodedError(7, "bad")), 0.1, 0.1)]
        with pytest.raises(CodedError, match=r"^entry \(0, 0\): ") as info:
            cov_matrix(specs, UNIF)
        assert info.value.code == 7


class TestMethodNames:
    def test_cov_matrix_takes_a_method_name(self):
        spec = MomentSpec(IDENT, 0.25, 0.25)
        by_name = cov_matrix([spec], UNIF, "auto")
        by_enum = cov_matrix([spec], UNIF, CovMethod.AUTO)
        assert by_name.entries.tolist() == by_enum.entries.tolist()
        assert by_name.methods == by_enum.methods == (("equal-props",),)

    @pytest.mark.parametrize("method", [m.value for m in MTM_METHODS])
    def test_sigma_pair_takes_a_method_name(self, method):
        spec = MomentSpec(IDENT, 0.25, 0.25)
        value, used = sigma_pair(spec, spec, UNIF, method)
        assert used == method
        assert value == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_unknown_name_lists_the_valid_ones(self):
        spec = MomentSpec(IDENT, 0.25, 0.25)
        valid = "alpha, kernel, closed, equal-props, mwm-decomposition, auto"
        with pytest.raises(DomainError, match=f"'fast'; valid: {valid}$"):
            sigma_pair(spec, spec, UNIF, "fast")
        with pytest.raises(DomainError, match="^unknown covariance method 'fast'"):
            cov_matrix([spec], UNIF, "fast")


class TestModelArgument:
    @pytest.mark.parametrize(
        "model",
        [CH_UNIF, "uniform(0,1)", None],
        ids=lambda m: type(m).__name__,
    )
    def test_a_model_that_is_not_a_distribution_model_is_refused(self, model):
        # The old call sigma_pair(spec_i, spec_j, ch_i, ch_j) passes a
        # composite where the model goes; it used to fail deep in a route
        # with an AttributeError.
        spec = MomentSpec(IDENT, 0.25, 0.25)
        message = f"model must be a DistributionModel, got {type(model).__name__}"
        with pytest.raises(DomainError, match=f"^{message}$"):
            sigma_pair(spec, spec, model)
        with pytest.raises(DomainError, match=rf"^entry \(0, 0\): {message}$"):
            cov_matrix([spec], model)
