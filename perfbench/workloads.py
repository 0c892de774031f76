"""The three benchmark workloads: inputs, operations and output checks.

Every input is drawn from the workload seed with numpy and ``random``
only (never with the package's own quantiles), so the inputs and the
set-up cost do not move when the package changes.  The package is driven
only through its public functions.  Each workload exposes:

* ``ops``: the pool of operations, in the order the timed loop visits them
  (the loop cycles through the pool until its time is up);
* ``trace_ops``: a fixed prefix of the pool that the traced run executes
  once, so that work counts repeat exactly for a given seed;
* ``warm_up()``: loads the code paths the ops use, outside the timing;
* ``execute(op)``: one operation, returning what ``check`` needs;
* ``check(op, outcome)``: ``None`` if the output is correct, otherwise the
  reason it is not;
* ``shares()``: the measured shares of the input properties that later
  optimisations key on.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import re
import shutil
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

import robust_lmoments as rl
from robust_lmoments import audit as rl_audit
from robust_lmoments import cli as rl_cli

TRANSFORMS_POSITIVE = ("identity", "power(2)", "log")
TRANSFORMS_REAL = ("identity", "power(2)", "shifted(1)")

# Trimming-proportion pairs covering each ordering of two windows, as in
# the package's audit corpus: left-nested both ways, one window inside the
# other both ways, disjoint both ways.  Each entry is ((a_i, b_i), (a_j, b_j)).
ORDERED_PAIRS = (
    ((0.05, 0.25), (0.10, 0.10)),
    ((0.10, 0.10), (0.05, 0.25)),
    ((0.05, 0.05), (0.10, 0.25)),
    ((0.10, 0.25), (0.05, 0.05)),
    ((0.05, 0.70), (0.40, 0.10)),
    ((0.40, 0.10), (0.05, 0.70)),
)
# Orderings whose covariance has a closed form (left-nested); the others
# fall back to the kernel double integral.
NESTED_ORDERINGS = (0, 1)
EQUAL_PROPS = (
    (0.0, 0.0), (0.0, 0.05), (0.05, 0.0), (0.05, 0.05), (0.05, 0.10),
    (0.10, 0.10), (0.10, 0.25), (0.25, 0.25), (0.25, 0.10),
)


def _jitter(rng: random.Random, centre: float, factor: float = 1.1) -> float:
    """Log-uniform draw in [centre/factor, centre*factor]."""
    return centre * math.exp(rng.uniform(-math.log(factor), math.log(factor)))


def _transform_pairs(transforms):
    return list(itertools.combinations_with_replacement(transforms, 2))


def _ordering_kind(index: int) -> str:
    return "nested" if index in NESTED_ORDERINGS else "crossed"


# --------------------------------------------------------------------------
# audit-oracle
# --------------------------------------------------------------------------

_FAMILIES = {
    "uniform": rl.Uniform,
    "exponential": rl.Exponential,
    "pareto": rl.Pareto,
    "lognormal": rl.Lognormal,
    "normal": rl.Normal,
}


def _audit_model(rng: random.Random, family: str) -> rl.DistributionModel:
    """The audit corpus's family with its scale-like parameters jittered.

    Location parameters keep their corpus value: a uniform lower end at 0
    keeps the log transform's endpoint singularity, and a normal centred
    at 0 keeps the exactly symmetric (zero-covariance) entries.
    """
    if family == "uniform":
        return rl.Uniform(0.0, _jitter(rng, 1.0))
    if family == "exponential":
        return rl.Exponential(_jitter(rng, 1.0))
    if family == "pareto":
        return rl.Pareto(_jitter(rng, 2.5, 1.08), _jitter(rng, 1.0))
    if family == "lognormal":
        return rl.Lognormal(rng.uniform(-0.2, 0.2), _jitter(rng, 0.5))
    return rl.Normal(0.0, _jitter(rng, 1.0))


def _prop_ok(family: str, a: float, b: float) -> bool:
    """A zero proportion only on a side where the support is bounded."""
    cls = _FAMILIES[family]
    return (a > 0.0 or cls.bounded_below) and (b > 0.0 or cls.bounded_above)


@dataclass(frozen=True)
class AuditOp:
    kind: str  # "mtm", "mwm" or "mwm-equal-props"
    case: rl.AuditCase
    ordering: str  # "nested", "crossed" or "equal"


class AuditOracle:
    """One op is one audit case through all of its covariance routes.

    The pool holds every case of the three audit corpora (trimmed,
    winsorized, winsorized equal-proportions): each family x window
    ordering (or equal proportions) x mode x transform pair, with the
    family parameters drawn per case from the seed.  Strata are
    (audit, family, proportions); the pool visits them in six rounds, and
    round r takes from each stratum its transform pair number
    (stratum index + r) mod 6, so that every prefix of whole rounds is a
    balanced sample of transform pairs.  Within a round the (audit,
    family) groups are interleaved.  The visiting order is fixed; the seed
    draws the parameters, so the cost mix of a run does not depend on it.
    """

    name = "audit-oracle"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        strata = []
        for kind in ("mtm", "mwm", "mwm-equal-props"):
            mode = rl.Mode.MTM if kind == "mtm" else rl.Mode.MWM
            for family in _FAMILIES:
                transforms = (
                    TRANSFORMS_REAL if family == "normal" else TRANSFORMS_POSITIVE
                )
                props = [] if kind == "mwm-equal-props" else [
                    (pi, pj, _ordering_kind(k))
                    for k, (pi, pj) in enumerate(ORDERED_PAIRS)
                ]
                props += [(p, p, "equal") for p in EQUAL_PROPS]
                for pi, pj, ordering in props:
                    if not (_prop_ok(family, *pi) and _prop_ok(family, *pj)):
                        continue
                    strata.append((kind, family, mode, pi, pj, ordering, transforms))
        # Interleave the (audit, family) groups in proportion to their size,
        # so that any prefix of a round samples them evenly.
        groups = Counter((s[0], s[1]) for s in strata)
        seen = Counter()
        keyed = []
        for position, s in enumerate(strata):
            keyed.append((seen[s[0], s[1]] / groups[s[0], s[1]], position, s))
            seen[s[0], s[1]] += 1
        strata = [s for _, _, s in sorted(keyed)]
        rounds: list[list[AuditOp]] = [[] for _ in range(6)]
        for s_index, (kind, family, mode, pi, pj, ordering, transforms) in enumerate(
            strata
        ):
            pairs = _transform_pairs(transforms)
            for r in range(len(pairs)):
                ti, tj = pairs[(s_index + r) % len(pairs)]
                case = rl.AuditCase(
                    _audit_model(rng, family),
                    rl.MomentSpec(rl.parse_transform(ti), pi[0], pi[1], mode),
                    rl.MomentSpec(rl.parse_transform(tj), pj[0], pj[1], mode),
                )
                rounds[r].append(AuditOp(kind, case, ordering))
        self.ops = [op for ops in rounds for op in ops]
        self.trace_ops = rounds[0]

    def warm_up(self) -> None:
        self.execute(self.ops[0])

    def execute(self, op: AuditOp):
        if op.kind == "mtm":
            return rl.run_mtm_audit([op.case])
        if op.kind == "mwm":
            return rl.run_mwm_audit([op.case])
        return rl.run_mwm_equal_props_audit([op.case])

    def check(self, op: AuditOp, result) -> str | None:
        tol = rl_audit.EQUAL_PROPS_TOL if op.kind == "mwm-equal-props" else rl_audit.REL_TOL
        if result.cases != 1 or result.comparisons < 1:
            return f"audit compared nothing: {result.cases} cases, {result.comparisons} comparisons"
        if not result.max_deviation <= tol:
            return f"route deviation {result.max_deviation:.3e} > {tol:g} on {result.worst_pair}"
        return None

    def shares(self) -> dict:
        n = len(self.ops)
        out = {f"ops.{kind}": sum(op.kind == kind for op in self.ops) / n
               for kind in ("mtm", "mwm", "mwm-equal-props")}
        for ordering in ("nested", "crossed", "equal"):
            out[f"ops.{ordering}"] = sum(op.ordering == ordering for op in self.ops) / n
        return out

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# fit-loss
# --------------------------------------------------------------------------

# Odd, and not a multiple of 10, so that in a run (which repeats the pool)
# the median and the p90 fall inside one op's cluster of repeated
# latencies rather than on the boundary between two.
FIT_POOL = 35
FIT_N_RANGE = (1e3, 1e5)
_FIT_FAMILIES = ("lognormal", "pareto", "exponential", "normal")
# Fit transforms, per family.  The moments of these transforms are affine
# in the family's (location, scale) or (log xm, 1/shape), so with the two
# different windows of an ordering pair the moment equations of a
# two-parameter fit always have one root.  Other pairs can leave a
# parameter to a moment that is not monotone in it (lognormal with
# power(2) or identity beside a log moment on a symmetric window, which
# does not depend on sigma): the sample moment can then fall outside the
# attainable range, no root exists, and the fit rightly fails.
_FIT_TRANSFORMS = {
    "lognormal": ("log",),
    "pareto": ("log",),
    "exponential": ("identity", "log"),
    "normal": ("identity", "shifted(1)"),
}


# One estimate of the text output: "theta[i] = <estimate>  (se <error>)".
_THETA_LINE = re.compile(r"^theta\[\d+\] = (\S+)  \(se (\S+)\)$", re.MULTILINE)


@dataclass(frozen=True)
class FitOp:
    family: str
    mode: str
    truth: tuple[float, ...]
    transforms: tuple[str, ...]
    trims: tuple[tuple[float, float], ...]
    n: int
    data: str
    out: str

    def argv(self) -> list[str]:
        free = ",".join("?" for _ in self.truth)
        argv = ["fit", "--family", f"{self.family}({free})", "--data", self.data]
        for t, (a, b) in zip(self.transforms, self.trims):
            argv += ["--transform", t, "--trim", f"{a},{b}"]
        return argv + ["--mode", self.mode, "--out", self.out]


def _fit_truth(rng: random.Random, family: str) -> tuple[float, ...]:
    """True parameters, chosen so that no transformed window moment lies
    near zero (the fit's residual is relative to the sample moment)."""
    if family == "lognormal":
        return (rng.uniform(2.0, 3.0), rng.uniform(0.3, 0.6))
    if family == "pareto":
        return (rng.uniform(2.5, 4.0), rng.uniform(1.5, 3.0))
    if family == "exponential":
        return (rng.uniform(20.0, 60.0),)
    return (rng.uniform(4.0, 6.0), rng.uniform(0.5, 1.5))


def _fit_sample(gen: np.random.Generator, family: str, truth, n: int) -> np.ndarray:
    if family == "lognormal":
        return gen.lognormal(truth[0], truth[1], n)
    if family == "pareto":
        shape, xm = truth
        return xm * (1.0 + gen.pareto(shape, n))  # classical Pareto from Lomax
    if family == "exponential":
        return gen.exponential(truth[0], n)
    return gen.normal(truth[0], truth[1], n)


class FitLoss:
    """One op is one in-process ``cli.main(["fit", ...])`` on a sample file.

    The op writes the text report through ``--out``.  (The ``--csv`` form
    is not used: with numpy 2 it prints estimates as ``np.float64(...)``,
    which is not a number, so every op would fail its check.)

    The pool has FIT_POOL ops.  Op i has the sample size at the middle of
    the i-th of FIT_POOL equal slices of log n over [1e3, 1e5], a
    log-uniform design whose size mix does not move with the seed (a
    random n per slice moved the median latency by several per cent).
    Family and mode rotate through the 4 x 2 combinations, so each
    combination meets every part of the size range; window orderings
    rotate likewise, so both the closed and the kernel-fallback covariance
    routes occur.  Exponential has one free parameter and hence one moment
    spec; the other families have two.  Sample files are written during
    set-up; the seed draws the data, the true parameters and the
    transforms.
    """

    name = "fit-loss"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        gen = np.random.default_rng(seed)
        self.workdir = tempfile.mkdtemp(prefix="fit-", dir=workdir)
        combos = [(f, m) for m in ("mtm", "mwm") for f in _FIT_FAMILIES]
        lo, hi = (math.log(x) for x in FIT_N_RANGE)
        ops = []
        for i in range(FIT_POOL):
            family, mode = combos[i % len(combos)]
            n = int(round(math.exp(lo + (hi - lo) * (i + 0.5) / FIT_POOL)))
            truth = _fit_truth(rng, family)
            ordering = ORDERED_PAIRS[(i // len(combos) + i) % len(ORDERED_PAIRS)]
            transforms = _FIT_TRANSFORMS[family]
            if family == "exponential":
                picked = (rng.choice(transforms),)
                trims = (ordering[rng.randrange(2)],)
            else:
                picked = (rng.choice(transforms), rng.choice(transforms))
                trims = ordering
            data = os.path.join(self.workdir, f"sample-{i}.csv")
            with open(data, "w") as fh:
                fh.write("\n".join(map(repr, _fit_sample(gen, family, truth, n).tolist())))
                fh.write("\n")
            out = os.path.join(self.workdir, f"fit-{i}.txt")
            ops.append(FitOp(family, mode, truth, picked, trims, n, data, out))
        rng.shuffle(ops)
        self.ops = ops
        self.trace_ops = ops

    def warm_up(self) -> None:
        self.execute(min(self.ops, key=lambda op: op.n))

    def execute(self, op: FitOp) -> tuple[int, str]:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = rl_cli.main(op.argv())
        return code, stderr.getvalue()

    def check(self, op: FitOp, outcome: tuple[int, str]) -> str | None:
        code, stderr = outcome
        if code != 0:
            return f"fit exited with code {code}: {stderr.strip()}"
        return check_estimates(read_estimates(op.out), op.truth)

    def shares(self) -> dict:
        n = len(self.ops)
        return {
            "ops.mtm": sum(op.mode == "mtm" for op in self.ops) / n,
            "ops.mwm": sum(op.mode == "mwm" for op in self.ops) / n,
            "ops.n_ge_1e4": sum(op.n >= 10_000 for op in self.ops) / n,
            "pool.sample_rows": sum(op.n for op in self.ops),
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# --------------------------------------------------------------------------
# mc-verify
# --------------------------------------------------------------------------

MC_N = 10_000
MC_REPLICATIONS = 2_000
MC_ROUNDS = 5
MC_SLOTS = (
    "uniform", "exponential", "pareto", "lognormal", "uniform",
    "exponential", "pareto", "normal", "uniform", "exponential",
)
# Probability with which a correct program fails the check of one op.  A
# run visits about 50 ops and the benchmark is run on many seeds, so the
# rate is set well below the 1e-4 that a single op would need.
MC_FALSE_ALARM = 1e-6


def _mc_model(rng: random.Random, family: str) -> rl.DistributionModel:
    if family == "uniform":
        return rl.Uniform(0.0, _jitter(rng, 1.0, 2.0))
    if family == "exponential":
        return rl.Exponential(_jitter(rng, 1.0, 2.0))
    if family == "pareto":
        return rl.Pareto(rng.uniform(2.5, 4.0), _jitter(rng, 1.0, 2.0))
    if family == "lognormal":
        return rl.Lognormal(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 0.7))
    return rl.Normal(rng.uniform(-1.0, 1.0), _jitter(rng, 1.0, 2.0))


@dataclass(frozen=True)
class McOp:
    config: rl.SimulationConfig
    ordering: str


class McVerify:
    """One op is one ``run_mc`` with two moment specs, n = 1e4, R = 2000.

    A round of the pool is MC_SLOTS: the families with a closed-form
    quantile (uniform, exponential, Pareto) fill 8 of its 10 slots and the
    two that need ndtri (lognormal, normal), about twice as slow per op,
    fill 2.  With that mix the median latency falls inside the fast
    cluster and the p90 inside the slow one, rather than at the edge of a
    cluster where a small shift in either moves it by 20%.  Modes
    alternate by slot and flip from round to round; per mode, a round uses
    five of the six window orderings (a seeded permutation), so both the
    closed (nested) and the kernel (crossed) routes occur in every round.
    Transforms come from the audit corpus's choices for the family;
    parameters and the master seed come from the workload seed.
    """

    name = "mc-verify"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        modes = (rl.Mode.MTM, rl.Mode.MWM)
        ops = []
        for r in range(MC_ROUNDS):
            orderings = {mode: rng.sample(range(len(ORDERED_PAIRS)), 5) for mode in modes}
            for slot, family in enumerate(MC_SLOTS):
                mode = modes[(slot + r) % 2]
                k = orderings[mode][slot // 2]
                transforms = TRANSFORMS_REAL if family == "normal" else TRANSFORMS_POSITIVE
                ti, tj = rng.choice(_transform_pairs(transforms))
                (ai, bi), (aj, bj) = ORDERED_PAIRS[k]
                config = rl.SimulationConfig(
                    model=_mc_model(rng, family),
                    specs=(
                        rl.MomentSpec(rl.parse_transform(ti), ai, bi, mode),
                        rl.MomentSpec(rl.parse_transform(tj), aj, bj, mode),
                    ),
                    n=MC_N,
                    replications=MC_REPLICATIONS,
                    master_seed=rng.getrandbits(63),
                )
                ops.append(McOp(config, _ordering_kind(k)))
        self.ops = ops
        self.trace_ops = ops[: len(MC_SLOTS)]

    def warm_up(self) -> None:
        config = replace(self.ops[0].config, n=100, replications=100)
        rl.run_mc(config)

    def execute(self, op: McOp):
        return rl.run_mc(op.config)

    def check(self, op: McOp, report) -> str | None:
        return check_mc_report(report, op.config.replications)

    def shares(self) -> dict:
        n = len(self.ops)
        return {
            "ops.mtm": sum(op.config.specs[0].mode is rl.Mode.MTM for op in self.ops) / n,
            "ops.mwm": sum(op.config.specs[0].mode is rl.Mode.MWM for op in self.ops) / n,
            "ops.nested": sum(op.ordering == "nested" for op in self.ops) / n,
        }

    def close(self) -> None:
        pass


def read_estimates(path: str) -> list[tuple[float, float]]:
    """(estimate, standard error) per parameter from a fit text report."""
    with open(path) as fh:
        return [
            (float(m.group(1)), float(m.group(2)))
            for m in _THETA_LINE.finditer(fh.read())
        ]


def check_estimates(rows, truth) -> str | None:
    """Each (estimate, standard error) row lies within 5 SE of the truth."""
    if len(rows) != len(truth):
        return f"{len(rows)} estimates for {len(truth)} parameters"
    for i, ((est, se), true) in enumerate(zip(rows, truth)):
        if not (math.isfinite(se) and se > 0.0):
            return f"parameter {i}: standard error {se!r} is not finite and positive"
        if not abs(est - true) <= 5.0 * se:
            return (
                f"parameter {i}: estimate {est!r} is {abs(est - true) / se:.1f} SE "
                f"from the true {true!r}"
            )
    return None


def check_mc_report(report, replications: int) -> str | None:
    """Empirical against theoretical covariance, entry by entry.

    Under the formula's covariance sigma, the sample covariance s_ij of R
    replications has variance (E[X^2 Y^2] - sigma_ij^2) / R, and by
    Cauchy-Schwarz E[X^2 Y^2] <= sigma_ii sigma_jj sqrt((3 + k_i)(3 + k_j))
    with k the reported excess kurtosis (equality on the diagonal).  Each
    of the k(k+1)/2 distinct entries gets a two-sided normal bound, and the
    union of the bounds fails a correct program with probability
    MC_FALSE_ALARM per op.
    """
    if report.failures != 0:
        return f"{report.failures} replications failed"
    emp = np.asarray(report.empirical_cov.entries, dtype=float)
    theo = np.asarray(report.theoretical_cov.entries, dtype=float)
    kurt = np.asarray(report.excess_kurtosis, dtype=float)
    k = emp.shape[0]
    entries = k * (k + 1) // 2
    z = statistics.NormalDist().inv_cdf(1.0 - MC_FALSE_ALARM / (2 * entries))
    for i in range(k):
        for j in range(i, k):
            fourth = theo[i, i] * theo[j, j] * math.sqrt((3.0 + kurt[i]) * (3.0 + kurt[j]))
            sd = math.sqrt(max(fourth - theo[i, j] ** 2, 0.0) / replications)
            dev = abs(emp[i, j] - theo[i, j])
            if not dev <= z * sd:
                return (
                    f"entry ({i},{j}): |{emp[i, j]:.6g} - {theo[i, j]:.6g}| = {dev:.3g} "
                    f"> {z:.2f} x {sd:.3g}"
                )
    return None


WORKLOADS = {cls.name: cls for cls in (AuditOracle, FitLoss, McVerify)}
