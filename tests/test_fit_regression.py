"""Fits against values frozen before the Newton starts ran in lockstep.

Four families, both modes and two sample sizes: theta-hat and the standard
errors sqrt(diag(cov_theta) / n) within 1e-12 relative, the iterations of
the first start that converged, and ``non_unique``.  The lognormal rows
include an untrimmed upper tail, which takes the scalar moment path.
"""

import numpy as np
import pytest

from robust_lmoments import Identity, Log, Mode, MomentSpec, Power, fit, parse_model_template

FAMILIES = {
    "exponential": ("exponential(?)", lambda g, n: g.exponential(40.0, n), [(Identity(), 0.1, 0.25)]),
    "pareto": (
        "pareto(?,?)",
        lambda g, n: 2.0 * (1.0 + g.pareto(3.0, n)),
        [(Log(), 0.1, 0.1), (Log(), 0.05, 0.25)],
    ),
    "lognormal": (
        "lognormal(?,?)",
        lambda g, n: g.lognormal(2.5, 0.4, n),
        [(Log(), 0.05, 0.25), (Identity(), 0.1, 0.0)],
    ),
    "normal": (
        "normal(?,?)",
        lambda g, n: g.normal(5.0, 1.0, n),
        [(Identity(), 0.1, 0.1), (Power(2.0), 0.05, 0.25)],
    ),
}

# (family, mode, n, theta_hat, standard errors, iterations, non_unique); the
# sample of size n is drawn with default_rng(n).
FROZEN = [
    ("exponential", "mtm", 500, [44.423327539280116], [2.4286997281027616], 1, False),
    ("exponential", "mtm", 20000, [40.43948435537784], [0.34957337816523265], 1, False),
    ("exponential", "mwm", 500, [43.31014643422854], [2.2370433569745733], 1, False),
    ("exponential", "mwm", 20000, [40.20684765005842], [0.3283634257632403], 1, False),
    ("pareto", "mtm", 500, [2.948327549499508, 2.0349808945436414], [0.17230876453251323, 0.023825733003145496], 4, False),
    ("pareto", "mtm", 20000, [3.0043028245210537, 2.004758761681269], [0.027761654715010336, 0.0036420850521388715], 4, False),
    ("pareto", "mwm", 500, [3.2099006139461714, 2.0758121202285884], [0.36127753581769445, 0.05988829506355806], 4, False),
    ("pareto", "mwm", 20000, [2.9834038774518867, 1.9997213115891856], [0.05309228614301774, 0.009814607166810338], 4, False),
    ("lognormal", "mtm", 500, [2.480142517946187, 0.39347252614750716], [0.017833171177466817, 0.013874645748313015], 2, False),
    ("lognormal", "mtm", 20000, [2.4948491375139366, 0.40066725315551], [0.0028711822780693773, 0.002234773971318903], 2, False),
    ("lognormal", "mwm", 500, [2.482055205668927, 0.3875709171277016], [0.017635583329299927, 0.01568710189723101], 2, False),
    ("lognormal", "mwm", 20000, [2.4952141281387954, 0.40017904278353533], [0.0028795434849643543, 0.0025499912212913443], 2, False),
    ("normal", "mtm", 500, [4.948485404112471, 0.9736997398511387], [0.044840913373978754, 0.04050007680798175], 2, True),
    ("normal", "mtm", 20000, [4.9870439869078735, 1.0023322894881619], [0.007298458143744194, 0.006614570368888274], 2, True),
    ("normal", "mwm", 500, [4.944056077635227, 0.6042839931889551], [0.027502353144734416, 0.12319514205673643], 4, True),
    ("normal", "mwm", 20000, [4.988172563035062, 1.02015789710501], [0.007341184924148604, 0.1597594340050328], 3, True),
]


@pytest.mark.parametrize(
    "family, mode, n, theta, se, iterations, non_unique",
    FROZEN,
    ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in FROZEN],
)
def test_fit_keeps_its_frozen_value(family, mode, n, theta, se, iterations, non_unique):
    text, draw, windows = FAMILIES[family]
    specs = [MomentSpec(t, a, b, Mode(mode)) for t, a, b in windows]
    result = fit(parse_model_template(text), draw(np.random.default_rng(n), n), specs)
    np.testing.assert_allclose(result.theta_hat, theta, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.sqrt(np.diag(result.cov_theta.entries) / n), se, rtol=1e-12, atol=0)
    assert result.iterations == iterations
    assert result.non_unique is non_unique
