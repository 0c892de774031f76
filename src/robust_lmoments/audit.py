"""Cross-form equivalence audits for the covariance routes.

Every interchangeable evaluation route must produce the same number on
the same configuration.  The audits sweep a corpus of distribution
families, transforms, and trimming-proportion orderings (nested each
way, staggered, disjoint, and equal) and report the worst pairwise
disagreement between routes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .asymcov import CovMethod, _valid_methods, sigma_pair
from .models import (
    DistributionModel,
    Exponential,
    Identity,
    Log,
    Lognormal,
    Normal,
    Pareto,
    Power,
    Shifted,
    Uniform,
)
from .moments import Mode, MomentSpec

__all__ = [
    "AuditCase",
    "AuditResult",
    "build_mtm_corpus",
    "build_mwm_corpus",
    "build_equal_props_corpus",
    "run_mtm_audit",
    "run_mwm_audit",
    "run_mwm_equal_props_audit",
    "relative_deviation",
]

REL_TOL = 1e-6
ABS_FLOOR = 1e-10
EQUAL_PROPS_TOL = 1e-10


@dataclass(frozen=True)
class AuditCase:
    model: DistributionModel
    spec_i: MomentSpec
    spec_j: MomentSpec


@dataclass(frozen=True)
class AuditResult:
    cases: int
    comparisons: int
    max_deviation: float
    worst_case: AuditCase | None
    worst_pair: tuple[str, str] | None
    runtime_s: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def relative_deviation(x: float, y: float) -> float:
    """|x - y| over max(|x|, |y|), with an absolute floor so that two
    near-zero values never register as a spurious blowup."""
    scale = max(abs(x), abs(y))
    if scale < ABS_FLOOR:
        return 0.0
    return abs(x - y) / scale


def _family_transforms() -> list[tuple[DistributionModel, list]]:
    positive = [Identity(), Power(2.0), Log()]
    return [
        (Uniform(0.0, 1.0), positive),
        (Exponential(1.0), positive),
        (Pareto(2.5, 1.0), positive),
        (Lognormal(0.0, 0.5), positive),
        (Normal(0.0, 1.0), [Identity(), Power(2.0), Shifted(1.0)]),
    ]


# Trimming-proportion pairs covering each ordering of the two windows:
# left-nested, right-nested, staggered overlap both ways, disjoint both
# ways.  Each entry is ((a_i, b_i), (a_j, b_j)).
_ORDERED_PAIRS = [
    ((0.05, 0.25), (0.10, 0.10)),
    ((0.10, 0.10), (0.05, 0.25)),
    ((0.05, 0.05), (0.10, 0.25)),
    ((0.10, 0.25), (0.05, 0.05)),
    ((0.05, 0.70), (0.40, 0.10)),
    ((0.40, 0.10), (0.05, 0.70)),
]

_EQUAL_PROPS = [
    (0.0, 0.0),
    (0.0, 0.05),
    (0.05, 0.0),
    (0.05, 0.05),
    (0.05, 0.10),
    (0.10, 0.10),
    (0.10, 0.25),
    (0.25, 0.25),
    (0.25, 0.10),
]


def _transform_pairs(transforms):
    return list(itertools.combinations_with_replacement(transforms, 2))


def build_mtm_corpus(mode: Mode = Mode.MTM) -> list[AuditCase]:
    """Unequal-proportions corpus spanning all window orderings.

    This corpus and the equal-proportions one keep a zero proportion only
    on a side where the quantile is bounded (``bounded_on``).  An
    untrimmed unbounded tail turns the reference integral into a slowly
    converging nested quadrature whose achievable absolute accuracy
    (about 1e-7) is worse than the audit tolerance, and heavy tails can
    make the untrimmed moments diverge outright."""
    cases = []
    for model, transforms in _family_transforms():
        for (pi, pj), (ti, tj) in itertools.product(
            _ORDERED_PAIRS, _transform_pairs(transforms)
        ):
            if not (model.bounded_on(*pi) and model.bounded_on(*pj)):
                continue
            cases.append(
                AuditCase(
                    model,
                    MomentSpec(ti, pi[0], pi[1], mode),
                    MomentSpec(tj, pj[0], pj[1], mode),
                )
            )
    return cases


def build_equal_props_corpus(mode: Mode = Mode.MTM) -> list[AuditCase]:
    cases = []
    for model, transforms in _family_transforms():
        for (a, b), (ti, tj) in itertools.product(
            _EQUAL_PROPS, _transform_pairs(transforms)
        ):
            if not model.bounded_on(a, b):
                continue
            cases.append(
                AuditCase(
                    model,
                    MomentSpec(ti, a, b, mode),
                    MomentSpec(tj, a, b, mode),
                )
            )
    return cases


def build_mwm_corpus() -> list[AuditCase]:
    return build_mtm_corpus(Mode.MWM) + build_equal_props_corpus(Mode.MWM)


def _run_audit(cases, routes, tolerance: float) -> AuditResult:
    start = time.perf_counter()
    worst = 0.0
    worst_case = None
    worst_pair = None
    comparisons = 0
    for case in cases:
        values = {}
        for route in routes(case):
            values[route.value], _ = sigma_pair(
                case.spec_i, case.spec_j, case.model, method=route
            )
        for (name_x, x), (name_y, y) in itertools.combinations(values.items(), 2):
            comparisons += 1
            dev = relative_deviation(x, y)
            if dev > worst:
                worst, worst_case, worst_pair = dev, case, (name_x, name_y)
    return AuditResult(
        cases=len(cases),
        comparisons=comparisons,
        max_deviation=worst,
        worst_case=worst_case,
        worst_pair=worst_pair,
        runtime_s=time.perf_counter() - start,
        tolerance=tolerance,
    )


def run_mtm_audit(cases: list[AuditCase] | None = None) -> AuditResult:
    """Pairwise agreement of every route valid for each case."""
    if cases is None:
        cases = build_mtm_corpus() + build_equal_props_corpus()
    return _run_audit(
        cases, lambda case: _valid_methods(case.spec_i, case.spec_j), REL_TOL
    )


def _mwm_routes(case: AuditCase):
    return [CovMethod.ALPHA, CovMethod.MWM_DECOMP]


def run_mwm_audit(cases: list[AuditCase] | None = None) -> AuditResult:
    """Winsorized decomposition versus the reference integral."""
    if cases is None:
        cases = build_mwm_corpus()
    return _run_audit(cases, _mwm_routes, REL_TOL)


def run_mwm_equal_props_audit(
    cases: list[AuditCase] | None = None,
) -> AuditResult:
    """Equal-proportions winsorized shortcut versus the decomposition;
    both are closed forms, so agreement is expected near machine level."""
    if cases is None:
        cases = build_equal_props_corpus(Mode.MWM)
    return _run_audit(
        cases,
        lambda case: [CovMethod.MWM_DECOMP, CovMethod.EQUAL_PROPS],
        EQUAL_PROPS_TOL,
    )

