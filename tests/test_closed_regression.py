"""The closed-family routes against values frozen before they were
rewritten as algebra over one table of window integrals per entry.

The cases are those of ``test_oracle_regression``: ``closed`` on its
left-nested and equal trimmed rows, ``equal-props`` on its equal rows of
both modes and ``mwm-decomposition`` on its winsorized rows.  The routes
share no code with the oracles there, so these values pin them on their
own, far tighter than the audits' route-to-route tolerance.
"""

import pytest

from robust_lmoments import Mode, MomentSpec, sigma_pair
from robust_lmoments.audit import relative_deviation
from robust_lmoments.models import parse_model, parse_transform

# (family, transform_i, transform_j, (a_i, b_i), (a_j, b_j), mode, route,
#  value)
FROZEN = [
    ("uniform(0,1)", "identity", "log", (0.05, 0.25), (0.1, 0.1), "mtm", "closed",
     0.31054715558326695),
    ("uniform(0,1)", "identity", "log", (0.05, 0.25), (0.1, 0.1), "mwm", "mwm-decomposition",
     0.27855698269105866),
    ("uniform(0,1)", "identity", "log", (0.05, 0.05), (0.1, 0.25), "mwm", "mwm-decomposition",
     0.2673102954423444),
    ("uniform(0,1)", "identity", "log", (0.4, 0.1), (0.05, 0.7), "mwm", "mwm-decomposition",
     0.4250000000000001),
    ("uniform(0,1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mtm", "closed",
     0.3),
    ("uniform(0,1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mtm", "equal-props",
     0.2999999999999999),
    ("uniform(0,1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mwm", "equal-props",
     0.2574999999999999),
    ("uniform(0,1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mwm", "mwm-decomposition",
     0.2575),
    ("exponential(1)", "identity", "log", (0.05, 0.25), (0.1, 0.1), "mtm", "closed",
     0.8440608452095673),
    ("exponential(1)", "identity", "log", (0.05, 0.25), (0.1, 0.1), "mwm", "mwm-decomposition",
     0.9334662525634503),
    ("exponential(1)", "identity", "log", (0.05, 0.05), (0.1, 0.25), "mwm", "mwm-decomposition",
     1.0037292606297488),
    ("exponential(1)", "identity", "log", (0.4, 0.1), (0.05, 0.7), "mwm", "mwm-decomposition",
     1.1689956566103465),
    ("exponential(1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mtm", "closed",
     0.9328842099082986),
    ("exponential(1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mtm", "equal-props",
     0.9328842099082997),
    ("exponential(1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mwm", "equal-props",
     1.0000000000000009),
    ("exponential(1)", "identity", "log", (0.0, 0.1), (0.0, 0.1), "mwm", "mwm-decomposition",
     1.0),
    ("pareto(2.5,1)", "power(2)", "log", (0.05, 0.25), (0.1, 0.1), "mtm", "closed",
     0.377283928053447),
    ("pareto(2.5,1)", "power(2)", "log", (0.05, 0.25), (0.1, 0.1), "mwm", "mwm-decomposition",
     0.5962927495844543),
    ("pareto(2.5,1)", "power(2)", "log", (0.05, 0.05), (0.1, 0.25), "mwm", "mwm-decomposition",
     0.9679407100360641),
    ("pareto(2.5,1)", "power(2)", "log", (0.4, 0.1), (0.05, 0.7), "mwm", "mwm-decomposition",
     0.2970069930665608),
    ("pareto(2.5,1)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mtm", "closed",
     0.5857683581545965),
    ("pareto(2.5,1)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mtm", "equal-props",
     0.5857683581545965),
    ("pareto(2.5,1)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mwm", "equal-props",
     1.0927150352429964),
    ("pareto(2.5,1)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mwm", "mwm-decomposition",
     1.0927150352429962),
    ("lognormal(0,0.5)", "power(2)", "log", (0.05, 0.25), (0.1, 0.1), "mtm", "closed",
     0.4675706655734435),
    ("lognormal(0,0.5)", "power(2)", "log", (0.05, 0.25), (0.1, 0.1), "mwm", "mwm-decomposition",
     0.5688005146846014),
    ("lognormal(0,0.5)", "power(2)", "log", (0.05, 0.05), (0.1, 0.25), "mwm", "mwm-decomposition",
     0.6886032386325474),
    ("lognormal(0,0.5)", "power(2)", "log", (0.4, 0.1), (0.05, 0.7), "mwm", "mwm-decomposition",
     0.5647299369767934),
    ("lognormal(0,0.5)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mtm", "closed",
     0.5563740340069138),
    ("lognormal(0,0.5)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mtm", "equal-props",
     0.5563740340069012),
    ("lognormal(0,0.5)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mwm", "equal-props",
     0.7033479781017967),
    ("lognormal(0,0.5)", "power(2)", "log", (0.0, 0.1), (0.0, 0.1), "mwm", "mwm-decomposition",
     0.7033479781017994),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.25), (0.1, 0.1), "mtm", "closed",
     -0.18383402467425922),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.25), (0.1, 0.1), "mwm", "mwm-decomposition",
     -0.08158464921638603),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.05), (0.1, 0.25), "mwm", "mwm-decomposition",
     -0.20893236471537896),
    ("normal(0,1)", "identity", "power(2)", (0.4, 0.1), (0.05, 0.7), "mwm", "mwm-decomposition",
     -1.2027131195232872),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.1), (0.05, 0.1), "mtm", "closed",
     -0.20205522720626837),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.1), (0.05, 0.1), "mtm", "equal-props",
     -0.20205522720626864),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.1), (0.05, 0.1), "mwm", "equal-props",
     -0.043559612429158595),
    ("normal(0,1)", "identity", "power(2)", (0.05, 0.1), (0.05, 0.1), "mwm", "mwm-decomposition",
     -0.04355961242915851),
]


def _case_id(row):
    family, ti, tj, pi, pj, mode, route = row[:7]
    return f"{route}-{mode}-{family}-{ti}-{tj}-{pi[0]},{pi[1]}-{pj[0]},{pj[1]}"


@pytest.mark.parametrize("row", FROZEN, ids=[_case_id(r) for r in FROZEN])
def test_closed_routes_reproduce_frozen_values(row):
    family, ti, tj, pi, pj, mode, route, frozen = row
    model, mode = parse_model(family), Mode(mode)
    ti, tj = parse_transform(ti), parse_transform(tj)
    spec_i, spec_j = MomentSpec(ti, *pi, mode), MomentSpec(tj, *pj, mode)
    value, used = sigma_pair(spec_i, spec_j, model, route)
    assert used == route
    assert relative_deviation(value, frozen) <= 1e-12
