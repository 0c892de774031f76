"""The batched oracle routes against values frozen from the per-node
QUADPACK implementation they replaced.

One case per family x window ordering (nested, staggered, disjoint, equal
proportions) x mode.  Each row holds the alpha value and, for trimmed
moments, the kernel value; for winsorized moments, the mwm-decomposition
value, a piecewise scalar integral of the product of the influence
functions with no nested quadrature.  Equal proportions start at a = 0
wherever the family allows it, so the integrable endpoint singularities
of H and H' are covered.
"""

import pytest

from robust_lmoments import CovMethod, Mode, MomentSpec, sigma_pair
from robust_lmoments.audit import relative_deviation
from robust_lmoments.models import CompositeH, parse_model, parse_transform

# (family, transform_i, transform_j, (a_i, b_i), (a_j, b_j), mode,
#  alpha, kernel or mwm-decomposition)
FROZEN = [
    ("uniform(0,1)", "identity", "log", (0.05, 0.25), (0.1, 0.1), "mtm", 0.31054715558326684, 0.31054715558326684),
    ("uniform(0,1)", "identity", "log", (0.05, 0.25), (0.1, 0.1), "mwm", 0.27855698269105866, 0.27855698269105866),
    ("uniform(0,1)", "identity", "log", (0.05, 0.05), (0.1, 0.25), "mtm", 0.3151390961099524, 0.3151390961099523),
    ("uniform(0,1)", "identity", "log", (0.05, 0.05), (0.1, 0.25), "mwm", 0.2673102954423445, 0.2673102954423443),
    ("uniform(0,1)", "identity", "log", (0.4, 0.1), (0.05, 0.7), "mtm", 0.3500000000000002, 0.35000000000000003),
    ("uniform(0,1)", "identity", "log", (0.4, 0.1), (0.05, 0.7), "mwm", 0.425, 0.425),
    ("uniform(0,1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mtm", 0.2999999999999995, 0.3),
    ("uniform(0,1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mwm", 0.25749999999999995, 0.2575000000000002),
    ("exponential(1)", "identity", "log", (0.05, 0.25), (0.1, 0.1), "mtm", 0.844060845209567, 0.844060845209567),
    ("exponential(1)", "identity", "log", (0.05, 0.25), (0.1, 0.1), "mwm", 0.9334662525634503, 0.9334662525634502),
    ("exponential(1)", "identity", "log", (0.05, 0.05), (0.1, 0.25), "mtm", 1.0288268100831144, 1.0288268100831144),
    ("exponential(1)", "identity", "log", (0.05, 0.05), (0.1, 0.25), "mwm", 1.0037292606297488, 1.003729260629749),
    ("exponential(1)", "identity", "log", (0.4, 0.1), (0.05, 0.7), "mtm", 1.1063565582231085, 1.106356558223108),
    ("exponential(1)", "identity", "log", (0.4, 0.1), (0.05, 0.7), "mwm", 1.1689956566103468, 1.1689956566103468),
    ("exponential(1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mtm", 0.9328842099082991, 0.9328842099082986),
    ("exponential(1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mwm", 1.0000000000000018, 1.0000000000000007),
    ("pareto(2.5,1)", "power(2)", "log", (0.05, 0.25), (0.1, 0.1), "mtm", 0.37728392805344696, 0.37728392805344685),
    ("pareto(2.5,1)", "power(2)", "log", (0.05, 0.25), (0.1, 0.1), "mwm", 0.5962927495844544, 0.5962927495844543),
    ("pareto(2.5,1)", "power(2)", "log", (0.05, 0.05), (0.1, 0.25), "mtm", 0.6121865058626164, 0.6121865058626164),
    ("pareto(2.5,1)", "power(2)", "log", (0.05, 0.05), (0.1, 0.25), "mwm", 0.967940710036064, 0.967940710036064),
    ("pareto(2.5,1)", "power(2)", "log", (0.4, 0.1), (0.05, 0.7), "mtm", 0.19276224275108209, 0.19276224275108203),
    ("pareto(2.5,1)", "power(2)", "log", (0.4, 0.1), (0.05, 0.7), "mwm", 0.29700699306656086, 0.2970069930665608),
    ("pareto(2.5,1)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mtm", 0.5857683581545959, 0.5857683581545963),
    ("pareto(2.5,1)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mwm", 1.0927150352429962, 1.0927150352429966),
    ("lognormal(0,0.5)", "power(2)", "log", (0.05, 0.25), (0.1, 0.1), "mtm", 0.4675706655734433, 0.4675706655734424),
    ("lognormal(0,0.5)", "power(2)", "log", (0.05, 0.25), (0.1, 0.1), "mwm", 0.5688005146846011, 0.5688005146846012),
    ("lognormal(0,0.5)", "power(2)", "log", (0.05, 0.05), (0.1, 0.25), "mtm", 0.6220597115157038, 0.6220597115157028),
    ("lognormal(0,0.5)", "power(2)", "log", (0.05, 0.05), (0.1, 0.25), "mwm", 0.6886032386325474, 0.6886032386325469),
    ("lognormal(0,0.5)", "power(2)", "log", (0.4, 0.1), (0.05, 0.7), "mtm", 0.49383207584004585, 0.4938320758400458),
    ("lognormal(0,0.5)", "power(2)", "log", (0.4, 0.1), (0.05, 0.7), "mwm", 0.5647299369767935, 0.5647299369767933),
    ("lognormal(0,0.5)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mtm", 0.5563740340069716, 0.5563740340059371),
    ("lognormal(0,0.5)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mwm", 0.7033479781019233, 0.7033479781018531),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.25), (0.1, 0.1), "mtm", -0.18383402467425922, -0.18383402467425922),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.25), (0.1, 0.1), "mwm", -0.08158464921638603, -0.08158464921638611),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.05), (0.1, 0.25), "mtm", -0.4440126293806872, -0.4440126293806872),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.05), (0.1, 0.25), "mwm", -0.2089323647153789, -0.20893236471537893),
    ("normal(0,1)", "identity", "power(2)", (0.4, 0.1), (0.05, 0.7), "mtm", -1.2391679363130808, -1.2391679363130796),
    ("normal(0,1)", "identity", "power(2)", (0.4, 0.1), (0.05, 0.7), "mwm", -1.2027131195232879, -1.2027131195232872),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.1), (0.05, 0.1), "mtm", -0.20205522720626878, -0.20205522720626887),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.1), (0.05, 0.1), "mwm", -0.043559612429158505, -0.04355961242915864),
]


def _case_id(row):
    family, ti, tj, pi, pj, mode = row[:6]
    return f"{mode}-{family}-{ti}-{tj}-{pi[0]},{pi[1]}-{pj[0]},{pj[1]}"


@pytest.mark.parametrize("row", FROZEN, ids=[_case_id(r) for r in FROZEN])
def test_oracle_routes_reproduce_frozen_values(row):
    family, ti, tj, pi, pj, mode, alpha_value, second_value = row
    model, mode = parse_model(family), Mode(mode)
    ti, tj = parse_transform(ti), parse_transform(tj)
    spec_i, spec_j = MomentSpec(ti, *pi, mode), MomentSpec(tj, *pj, mode)
    ch_i, ch_j = CompositeH(model, ti), CompositeH(model, tj)
    second = CovMethod.KERNEL if mode is Mode.MTM else CovMethod.MWM_DECOMP
    for method, frozen in ((CovMethod.ALPHA, alpha_value), (second, second_value)):
        value, _ = sigma_pair(spec_i, spec_j, ch_i, ch_j, method)
        assert relative_deviation(value, frozen) <= 1e-8, method
