"""Properties of the covariance routes over randomly drawn specs: family,
transforms, trimming windows in any ordering, and mode."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_lmoments import (
    CovMethod,
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
    cov_matrix,
    delta_cov,
    sigma_pair,
)
from robust_lmoments.audit import relative_deviation

POSITIVE = [Identity(), Power(2.0), Log()]
FAMILIES = [
    (Uniform(0.0, 1.0), POSITIVE),
    (Exponential(1.0), POSITIVE),
    (Pareto(2.5, 1.0), POSITIVE),
    (Lognormal(0.0, 0.5), POSITIVE),
    (Normal(0.0, 1.0), [Identity(), Power(2.0), Shifted(1.0)]),
]


@st.composite
def spec_lists(draw, mode=None, min_size=1, max_size=3):
    """A family and specs of one mode on it.  Proportions are multiples of
    0.01 up to 0.45; a side is left untrimmed only where the family's
    quantile is bounded, as in the audit corpora, so every moment exists."""
    model, transforms = draw(st.sampled_from(FAMILIES))
    mode = mode or draw(st.sampled_from(list(Mode)))
    a_lo = 0 if model.bounded_below else 1
    b_lo = 0 if model.bounded_above else 1
    size = draw(st.integers(min_size, max_size))
    specs = [
        MomentSpec(
            draw(st.sampled_from(transforms)),
            draw(st.integers(a_lo, 45)) / 100,
            draw(st.integers(b_lo, 45)) / 100,
            mode,
        )
        for _ in range(size)
    ]
    return model, specs


@settings(max_examples=20, deadline=None)
@given(spec_lists())
def test_cov_matrix_is_symmetric_and_psd(drawn):
    model, specs = drawn
    cov = cov_matrix(specs, model)
    assert np.array_equal(cov.entries, cov.entries.T)
    assert cov.min_eigenvalue() >= -1e-9 * np.abs(cov.entries).max()


@settings(max_examples=20, deadline=None)
@given(spec_lists(Mode.MWM, min_size=2, max_size=2))
def test_mwm_decomposition_matches_alpha(drawn):
    model, (si, sj) = drawn
    decomposition, _ = sigma_pair(si, sj, model, CovMethod.MWM_DECOMP)
    alpha, _ = sigma_pair(si, sj, model, CovMethod.ALPHA)
    assert relative_deviation(decomposition, alpha) <= 1e-8


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from(POSITIVE), min_size=1, max_size=3))
def test_mtm_equals_mwm_untrimmed_on_uniform(transforms):
    # Different routes on each side, so the check is not one code path
    # against itself: the kernel double integral for trimmed moments, the
    # influence-function integral for winsorized ones.
    model = Uniform(0.0, 1.0)
    mtm = cov_matrix([MomentSpec(t) for t in transforms], model, CovMethod.KERNEL)
    mwm = cov_matrix(
        [MomentSpec(t, mode=Mode.MWM) for t in transforms],
        model,
        CovMethod.MWM_DECOMP,
    )
    for x, y in zip(mtm.entries.ravel(), mwm.entries.ravel()):
        assert relative_deviation(x, y) <= 1e-8


# The power of the data's scale c by which each transform's H scales:
# identity and shifted(1) are affine in the data, power(2) is
# homogeneous of degree 2, and log turns the scale into a shift of H.
DEGREE = {Identity(): 1, Shifted(1.0): 1, Power(2.0): 2, Log(): 0}
# The families with a location parameter, with the transforms that carry a
# shift of the data into a shift of H.
LOCATED = [
    (Uniform(0.0, 1.0), [Identity(), Shifted(1.0)]),
    (Normal(0.0, 1.0), [Identity(), Shifted(1.0)]),
]
ROUTES = {
    CovMethod.CLOSED: [Mode.MTM],
    CovMethod.EQUAL_PROPS: list(Mode),
    CovMethod.MWM_DECOMP: [Mode.MWM],
    CovMethod.AUTO: list(Mode),
}


def _scaled(model, c):
    """The family member of c times a variable of ``model``."""
    if isinstance(model, Uniform):
        return Uniform(c * model.lo, c * model.hi)
    if isinstance(model, Exponential):
        return Exponential(c * model.scale)
    if isinstance(model, Pareto):
        return Pareto(model.shape, c * model.xm)
    if isinstance(model, Lognormal):
        return Lognormal(model.mu + np.log(c), model.sigma)
    return Normal(c * model.mu, c * model.sigma)


def _shifted(model, d):
    """The family member of d plus a variable of ``model``."""
    if isinstance(model, Uniform):
        return Uniform(model.lo + d, model.hi + d)
    return Normal(model.mu + d, model.sigma)


@st.composite
def route_pairs(draw, method, families=FAMILIES):
    """A family and a pair of specs that ``method`` is valid for: windows
    nested left for ``closed``, equal ones for ``equal-props``, any pair
    otherwise, in one of the route's modes.  Proportions are multiples of
    0.01, and a side is untrimmed only where the quantile is bounded."""
    model, transforms = draw(st.sampled_from(families))
    mode = draw(st.sampled_from(ROUTES[method]))
    a_lo = 0 if model.bounded_below else 1
    b_lo = 0 if model.bounded_above else 1
    if method is CovMethod.CLOSED:
        # a_i <= a_j < 1-b_i <= 1-b_j, in either orientation of the pair
        a_i = draw(st.integers(a_lo, 30))
        a_j = draw(st.integers(a_i, 40))
        b_i = draw(st.integers(b_lo, 45))
        windows = [(a_i, b_i), (a_j, draw(st.integers(b_lo, b_i)))]
        windows = draw(st.permutations(windows))
    elif method is CovMethod.EQUAL_PROPS:
        windows = [(draw(st.integers(a_lo, 45)), draw(st.integers(b_lo, 45)))] * 2
    else:
        windows = [
            (draw(st.integers(a_lo, 45)), draw(st.integers(b_lo, 45)))
            for _ in range(2)
        ]
    specs = [
        MomentSpec(draw(st.sampled_from(transforms)), a / 100, b / 100, mode)
        for a, b in windows
    ]
    return model, specs


def _entry(model, specs, method) -> float:
    return sigma_pair(*specs, model, method)[0]


def _assert_within_bound(got, expected, model, specs, method, factor):
    """``got`` is ``expected`` up to 1e-8 of the Cauchy-Schwarz bound
    sqrt(sigma_ii sigma_jj) of the pair, times ``factor``."""
    variances = [_entry(model, [spec, spec], method) for spec in specs]
    bound = np.sqrt(abs(variances[0] * variances[1]))
    assert abs(got - expected) <= 1e-8 * factor * bound


@pytest.mark.parametrize("method", list(ROUTES), ids=lambda m: m.value)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), c=st.floats(0.25, 4.0))
def test_scaling_the_data_by_c_scales_each_entry_by_its_power_of_c(method, data, c):
    model, specs = data.draw(route_pairs(method))
    power = sum(DEGREE[spec.transform] for spec in specs)
    base = _entry(model, specs, method)
    scaled = _entry(_scaled(model, c), specs, method)
    _assert_within_bound(scaled, c**power * base, model, specs, method, c**power)


@pytest.mark.parametrize("method", list(ROUTES), ids=lambda m: m.value)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), d=st.floats(-1e5, 1e5))
def test_a_location_shift_leaves_each_entry_unchanged(method, data, d):
    model, specs = data.draw(route_pairs(method, LOCATED))
    base = _entry(model, specs, method)
    shifted = _entry(_shifted(model, d), specs, method)
    _assert_within_bound(shifted, base, model, specs, method, 1.0)


# Members of c times a variable of each family, with the power of c by which
# each parameter scales: a location or scale by c, a shape not at all, and
# lognormal's mu by a shift of log c.
UNIT_FREE_MEMBERS = {
    "uniform": (lambda c: Uniform(c, 3.0 * c), (1, 1)),
    "exponential": (lambda c: Exponential(c), (1,)),
    "pareto": (lambda c: Pareto(6.0, c), (0, 1)),
    "lognormal": (lambda c: Lognormal(math.log(c), 0.5), (0, 0)),
    "normal": (lambda c: Normal(c, 2.0 * c), (1, 1)),
}
UNIT_FREE_WINDOWS = [
    (Mode.MTM, 0.0, 0.0),
    (Mode.MTM, 0.1, 0.1),
    (Mode.MTM, 0.05, 0.2),
    (Mode.MWM, 0.1, 0.1),
    (Mode.MWM, 0.05, 0.2),
]


@pytest.mark.parametrize(
    "mode, a, b", UNIT_FREE_WINDOWS, ids=[f"{m.value}-{a}-{b}" for m, a, b in UNIT_FREE_WINDOWS]
)
@pytest.mark.parametrize("family", sorted(UNIT_FREE_MEMBERS))
def test_covariances_do_not_depend_on_the_units_of_the_data(family, mode, a, b):
    # Entry (i, j) of identity and power(2) scales by c^(p_i + p_j), and each
    # delta-method standard error by its parameter's power of c, however
    # small the data's units: the quadratures keep no absolute floor.
    member, degrees = UNIT_FREE_MEMBERS[family]
    specs = [MomentSpec(Identity(), a, b, mode), MomentSpec(Power(2.0), a, b, mode)]
    powers = np.add.outer([1, 2], [1, 2])
    own = specs[: len(degrees)]  # one spec per parameter for delta_cov

    def unit_free(c):
        model = member(c)
        cov = cov_matrix(specs, model).entries / c**powers
        se = np.sqrt(np.diag(delta_cov(model, own, cov_matrix(own, model)).entries))
        return cov, se / c ** np.array(degrees)

    cov_1, se_1 = unit_free(1.0)
    for c in (1e-7, 1e-3, 1e3):
        cov, se = unit_free(c)
        assert np.abs(cov - cov_1).max() <= 1e-11 * np.abs(cov_1).max(), c
        np.testing.assert_allclose(se, se_1, rtol=1e-6, atol=0, err_msg=f"c = {c}")
