"""Command-line front door.

Subcommands: ``moments`` (sample or population trimmed/winsorized
moments), ``asymcov`` (asymptotic covariance matrix), ``equivalence``
(cross-form agreement audit), ``fit`` (moment-matching parameter
estimation), and ``simulate`` (Monte Carlo verification).

Exit codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .asymcov import CovMethod, CovMatrix, cov_matrix
from .audit import run_mtm_audit, run_mwm_audit, run_mwm_equal_props_audit
from .errors import DomainError, RobustLMomentsError
from .estimate import fit as fit_model
from .models import Identity, parse_model, parse_model_template, parse_transform
from .moments import (
    Mode,
    MomentSpec,
    _ascending,
    load_sample,
    population_moment,
    sorted_sample_moment,
)
from .simulate import SimulationConfig, run_mc

__all__ = ["RunConfig", "parse_args", "run", "main"]


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: str | None = None
    transforms: tuple[str, ...] = ()  # none given: one identity coordinate
    trims: tuple[tuple[float, float], ...] = ()
    mode: str = "mtm"
    data: str | None = None
    out: str | None = None
    csv: bool = False
    method: str = "auto"
    seed: int = 0
    n: int = 1000
    replications: int = 500
    tolerance: float = 0.10
    config_file: str | None = None


def _trim_pair(text: str) -> tuple[float, float]:
    """Two numbers 'a,b' that a MomentSpec takes as trimming proportions."""
    try:
        a_txt, b_txt = text.split(",")
        a, b = float(a_txt), float(b_txt)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected 'a,b' with two numbers, got {text!r}"
        ) from exc
    try:
        MomentSpec(Identity(), a, b)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return a, b


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it
    unchanged (each list option starts from a fresh list, see below)."""
    parser = argparse.ArgumentParser(
        prog="robust-lmoments",
        description=(
            "Robust L-statistic estimation: trimmed and winsorized moments, "
            "their asymptotic covariance matrix, moment-matching fits, and a "
            "Monte Carlo verification harness."
        ),
    )
    # An option left off the command line stays out of the namespace, so
    # RunConfig's field defaults are the only defaults, and an appended
    # option (--transform, --trim) gets a new list in every parse.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(
            argparse.ArgumentParser, argument_default=argparse.SUPPRESS
        ),
    )

    def add_common(p, *, transforms=True, data=False):
        if transforms:
            p.add_argument(
                "--transform",
                dest="transforms",
                action="append",
                metavar="TRANSFORM",
                help="transform of the observations: identity, power(k), "
                "log, or shifted(c); repeat for several coordinates",
            )
            p.add_argument(
                "--trim",
                dest="trims",
                action="append",
                type=_trim_pair,
                metavar="A,B",
                help="lower,upper trimming proportions with a+b < 1; "
                "repeat to pair with each --transform",
            )
            p.add_argument(
                "--mode",
                choices=[m.value for m in Mode],
                help="mtm discards the trimmed tails, mwm piles their "
                "probability mass onto the retained window edges",
            )
        if data:
            p.add_argument(
                "--data",
                help="sample file: one number per line, or the first CSV "
                "field or first whitespace field of each line; '#' comment "
                "and blank lines are skipped (a file of bare numbers, one per "
                "line, is parsed in a single pass)",
            )
        p.add_argument("--out", help="write output to this file atomically")
        p.add_argument("--csv", action="store_true", help="CSV output")

    def add_family(p, about=None, required=False):
        p.add_argument(
            "--family", dest="model", metavar="FAMILY", required=required, help=about
        )

    p = sub.add_parser(
        "moments",
        help="sample and/or population trimmed or winsorized moments",
        description=(
            "Sample side: the mean of the transform over the order "
            "statistics with the lowest floor(n*a) and highest floor(n*b) "
            "discarded (trimmed) or replaced by the nearest retained values "
            "(winsorized).  Population side: the integral of the composite "
            "transform-of-quantile over the retained probability window, "
            "normalized by the retained mass, plus edge atoms in the "
            "winsorized case."
        ),
    )
    add_common(p, data=True)
    add_family(p, "distribution, e.g. exponential(1.0)")

    p = sub.add_parser(
        "asymcov",
        help="asymptotic variance-covariance matrix of the estimator",
        description=(
            "Entries are the integral over (0,1) of the product of the two "
            "coordinates' influence functions; interchangeable routes "
            "evaluate it in the Brownian-bridge (alpha) form, through the "
            "min(v,w)-vw kernel double integral, by the closed form under "
            "the left-nested trimming ordering, piecewise between the "
            "window ends (equal-props, mwm-decomposition), or by the "
            "winsorized equal-proportions formula."
        ),
    )
    add_common(p)
    add_family(p, required=True)
    p.add_argument(
        "--method",
        choices=[m.value for m in CovMethod],
        help="evaluation route; auto picks the fastest valid one per entry",
    )

    p = sub.add_parser(
        "equivalence",
        help="cross-form agreement audit over a corpus of configurations",
        description=(
            "Evaluates every interchangeable covariance route on a corpus "
            "of families, transforms, and trimming orderings, and reports "
            "the worst pairwise relative deviation."
        ),
    )
    add_common(p, transforms=False)

    p = sub.add_parser(
        "fit",
        help="estimate free parameters by moment matching",
        description=(
            "Solves population moment = sample moment for the free "
            "parameters (marked '?') by damped Newton iteration, and "
            "reports delta-method standard errors from the asymptotic "
            "covariance of the sample moments."
        ),
    )
    add_common(p, data=True)
    add_family(
        p, "template with '?' for free parameters, e.g. exponential(?)", required=True
    )

    p = sub.add_parser(
        "simulate",
        help="Monte Carlo check of the covariance formulas",
        description=(
            "Draws R samples of size n by inverse transform, compares the "
            "across-replication covariance of sqrt(n)-scaled moment "
            "deviations with the formula value, and fails when the worst "
            "relative deviation exceeds the tolerance."
        ),
    )
    add_common(p)
    add_family(p)
    p.add_argument(
        "--config",
        dest="config_file",
        help=f"key=value file, '#' comments; keys: {', '.join(_CONFIG_KEYS)}",
    )
    p.add_argument("-n", type=int, help="sample size per replication")
    p.add_argument("-R", "--replications", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    return parser


# simulate --config key -> (RunConfig field, parser of the value text)
_CONFIG_KEYS = {
    "family": ("model", str),
    "transform": ("transforms", lambda v: tuple(t.strip() for t in v.split(";"))),
    "trim": ("trims", lambda v: tuple(_trim_pair(t.strip()) for t in v.split(";"))),
    "mode": ("mode", lambda v: Mode(v).value),
    "seed": ("seed", int),
    "n": ("n", int),
    "replications": ("replications", int),
    "tolerance": ("tolerance", float),
}


def _read_config_file(path: str) -> dict[str, object]:
    """RunConfig field -> value from a key=value file with '#' comments."""
    out: dict[str, object] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(
                    f"{where}: unknown key {key!r}; known keys: "
                    f"{', '.join(_CONFIG_KEYS)}"
                )
            name, parse = _CONFIG_KEYS[key]
            try:
                out[name] = parse(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{where}: bad {key} {value!r}: {exc}") from exc
    return out


def parse_args(argv: list[str]) -> RunConfig:
    parser = _build_parser()
    given = vars(parser.parse_args(argv))
    for name in ("transforms", "trims"):
        if name in given:
            given[name] = tuple(given[name])
    cfg = RunConfig(**given)
    if cfg.config_file:
        try:
            cfg = replace(cfg, **_read_config_file(cfg.config_file))
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
    return cfg


def _specs(config: RunConfig) -> list[MomentSpec]:
    transforms = [parse_transform(t) for t in config.transforms or ("identity",)]
    trims = list(config.trims) or [(0.0, 0.0)] * len(transforms)
    if len(trims) == 1 and len(transforms) > 1:
        trims = trims * len(transforms)
    if len(trims) != len(transforms):
        raise RobustLMomentsError(
            f"{len(transforms)} transforms but {len(trims)} trim pairs"
        )
    mode = Mode(config.mode)
    return [MomentSpec(t, a, b, mode) for t, (a, b) in zip(transforms, trims)]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _num(x) -> str:
    """A CSV number cell: the shortest text that round-trips the float."""
    return repr(float(x))


def _format_matrix(cov: CovMatrix, csv: bool) -> str:
    buf = io.StringIO()
    k = cov.k
    if csv:
        buf.write("i,j,sigma2,method\n")
        for i in range(k):
            for j in range(k):
                buf.write(f"{i},{j},{_num(cov.entries[i, j])},{cov.methods[i][j]}\n")
    else:
        for i in range(k):
            row = "  ".join(f"{cov.entries[i, j]: .12e}" for j in range(k))
            buf.write(row + "\n")
        buf.write("methods: " + "; ".join(
            f"({i},{j})={cov.methods[i][j]}" for i in range(k) for j in range(i, k)
        ) + "\n")
    return buf.getvalue()


def _run_moments(config: RunConfig) -> tuple[str, bool]:
    specs = _specs(config)
    lines = []
    csv = config.csv
    if csv:
        lines.append("coordinate,kind,value")
    sample = load_sample(config.data) if config.data else None
    model = parse_model(config.model) if config.model else None
    if sample is None and model is None:
        raise RobustLMomentsError("need --data and/or --family")
    if sample is not None:
        sample = _ascending(sample)  # validated and sorted once for every spec
    for j, spec in enumerate(specs):
        if sample is not None:
            v = sorted_sample_moment(sample, spec)
            lines.append(
                f"{j},sample,{_num(v)}" if csv else f"[{j}] sample    {v:.12g}"
            )
        if model is not None:
            v = population_moment(model, spec)
            lines.append(
                f"{j},population,{_num(v)}" if csv else f"[{j}] population {v:.12g}"
            )
    return "\n".join(lines) + "\n", True


def _run_asymcov(config: RunConfig) -> tuple[str, bool]:
    specs = _specs(config)
    model = parse_model(config.model)
    cov = cov_matrix(specs, model, CovMethod(config.method))
    return _format_matrix(cov, config.csv), True


def _run_equivalence(config: RunConfig) -> tuple[str, bool]:
    results = {
        "trimmed-routes": run_mtm_audit(),
        "winsorized-decomposition": run_mwm_audit(),
        "winsorized-equal-props": run_mwm_equal_props_audit(),
    }
    ok = all(r.passed for r in results.values())
    buf = io.StringIO()
    if config.csv:
        buf.write(
            "audit,cases,comparisons,max_deviation,tolerance,runtime_s,status\n"
        )
        for name, r in results.items():
            buf.write(
                f"{name},{r.cases},{r.comparisons},{_num(r.max_deviation)},"
                f"{_num(r.tolerance)},{r.runtime_s:.2f},"
                f"{'PASS' if r.passed else 'FAIL'}\n"
            )
    else:
        for name, r in results.items():
            buf.write(
                f"{'PASS' if r.passed else 'FAIL'} {name}: {r.cases} configs, "
                f"max deviation {r.max_deviation:.3e} "
                f"(tolerance {r.tolerance:g}) in {r.runtime_s:.1f}s\n"
            )
            if r.worst_case is not None:
                buf.write(
                    f"  worst: {r.worst_case.model} "
                    f"{r.worst_case.spec_i} vs {r.worst_case.spec_j}\n"
                )
    return buf.getvalue(), ok


def _run_fit(config: RunConfig) -> tuple[str, bool]:
    if not config.data:
        raise RobustLMomentsError("fit requires --data")
    template = parse_model_template(config.model)
    sample = load_sample(config.data)
    specs = _specs(config)
    result = fit_model(template, sample, specs)
    se = np.sqrt(np.diag(result.cov_theta.entries) / sample.size)
    buf = io.StringIO()
    if config.csv:
        buf.write("parameter,estimate,std_error\n")
        for i, (th, s) in enumerate(zip(result.theta_hat, se)):
            buf.write(f"{i},{_num(th)},{_num(s)}\n")
    else:
        buf.write(f"model: {result.model}\n")
        for i, (th, s) in enumerate(zip(result.theta_hat, se)):
            buf.write(f"theta[{i}] = {th:.10g}  (se {s:.4g})\n")
        buf.write(
            f"iterations: {result.iterations}, "
            f"residual: {result.residual_norm:.3e}\n"
        )
        if result.non_unique:
            buf.write(
                f"warning: second solution found at {result.alt_theta}\n"
            )
    return buf.getvalue(), True


def _run_simulate(config: RunConfig) -> tuple[str, bool]:
    if not config.model:
        raise RobustLMomentsError("simulate requires --family (flag or config file)")
    sim = SimulationConfig(
        model=parse_model(config.model),
        specs=tuple(_specs(config)),
        n=config.n,
        replications=config.replications,
        master_seed=config.seed,
    )
    report = run_mc(sim)
    ok = report.max_rel_dev <= config.tolerance
    buf = io.StringIO()
    if config.csv:
        buf.write("i,j,empirical,theoretical,rel_dev\n")
        k = report.theoretical_cov.k
        for i in range(k):
            for j in range(k):
                buf.write(
                    f"{i},{j},{_num(report.empirical_cov.entries[i, j])},"
                    f"{_num(report.theoretical_cov.entries[i, j])},"
                    f"{_num(report.per_entry_dev[i, j])}\n"
                )
    else:
        buf.write("empirical covariance:\n")
        buf.write(_format_matrix(report.empirical_cov, False))
        buf.write("theoretical covariance:\n")
        buf.write(_format_matrix(report.theoretical_cov, False))
        buf.write(
            f"max relative deviation: {report.max_rel_dev:.4f} "
            f"(tolerance {config.tolerance:g})\n"
        )
        buf.write(f"skewness per coordinate: {report.skewness}\n")
        buf.write(
            f"{'PASS' if ok else 'FAIL'}: replications={sim.replications} "
            f"n={sim.n} seed={sim.master_seed} "
            f"failures={report.failures} runtime={report.runtime_ms:.0f}ms\n"
        )
    return buf.getvalue(), ok


_COMMANDS = {
    "moments": _run_moments,
    "asymcov": _run_asymcov,
    "equivalence": _run_equivalence,
    "fit": _run_fit,
    "simulate": _run_simulate,
}


def run(config: RunConfig) -> int:
    try:
        handler = _COMMANDS.get(config.command)
        if handler is None:
            raise RobustLMomentsError(f"unknown command {config.command!r}")
        text, ok = handler(config)
        if config.out:
            _atomic_write(config.out, text)
        else:
            sys.stdout.write(text)
    except (RobustLMomentsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
