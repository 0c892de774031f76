"""Properties of the covariance routes over randomly drawn specs: family,
transforms, trimming windows in any ordering, and mode."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_lmoments import (
    CompositeH,
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
    chs = CompositeH(model, si.transform), CompositeH(model, sj.transform)
    decomposition, _ = sigma_pair(si, sj, *chs, CovMethod.MWM_DECOMP)
    alpha, _ = sigma_pair(si, sj, *chs, CovMethod.ALPHA)
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
