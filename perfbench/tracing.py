"""Per-layer tracing of the package from outside.

``Tracer.install`` rebinds every ``robust_lmoments.*`` module attribute
that *is* one of the traced public functions (so call sites that imported
the function by name are counted too) and wraps the ``CompositeH.value``
and ``deriv`` class attributes.  Wrapped functions record spans
(name, start, end, parent, tag, error) in memory; H, H' and quadrature
integrands only count points, since one span per point would cost more
than the work it measures.  ``Tracer.metrics`` turns spans and counts into
the per-layer numbers; a wrapper that saw no calls reports ``None`` with a
note, never 0.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np

import robust_lmoments as rl
from robust_lmoments import (
    asymcov,
    audit,
    cli,
    estimate,
    models,
    moments,
    quadrature,
    simulate,
)

MODULES = (rl, models, quadrature, asymcov, moments, estimate, simulate, audit, cli)
ROUTES = ("alpha", "kernel", "closed", "equal-props", "mwm-decomposition")
AUDIT_KINDS = {
    "run_mtm_audit": "mtm",
    "run_mwm_audit": "mwm",
    "run_mwm_equal_props_audit": "mwm-equal-props",
}

# Metric name -> unit, in report order.
UNITS = {
    "models.H_points": "count",
    "models.dH_points": "count",
    "quadrature.integrate_calls": "count",
    "quadrature.integrand_points": "count",
    "quadrature.points_per_call": "points/call",
    "quadrature.busy_s": "s",
    "quadrature.divergence_errors": "count",
    **{f"asymcov.sigma_pair_calls.{r}": "count" for r in ROUTES},
    **{f"asymcov.sigma_pair_s.{r}": "s" for r in ROUTES},
    "asymcov.cov_matrix_calls": "count",
    "asymcov.cov_matrix_s": "s",
    "moments.population_moment_calls": "count",
    "moments.population_moment_s": "s",
    "moments.sample_moment_calls": "count",
    "moments.sample_moment_s": "s",
    "moments.sample_points": "count",
    "moments.load_sample_s": "s",
    "moments.load_sample_rows": "count",
    "estimate.fit_calls": "count",
    "estimate.fit_s": "s",
    "estimate.newton_iterations": "count",
    "estimate.moment_jacobian_calls": "count",
    "estimate.moment_jacobian_s": "s",
    "estimate.delta_cov_s": "s",
    "estimate.population_moments_per_fit": "calls/fit",
    "estimate.non_unique_fits": "count",
    "simulate.run_mc_calls": "count",
    "simulate.run_mc_s": "s",
    "simulate.self_s": "s",
    "simulate.replications": "count",
    "simulate.replication_failures": "count",
    "audit.cases": "count",
    "audit.comparisons": "count",
    **{f"audit.run_s.{k}": "s" for k in AUDIT_KINDS.values()},
    "cli.main_calls": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.nonzero_exits": "count",
    "trace.overhead_frac": "ratio",
}


def _points(u) -> int:
    return u.size if isinstance(u, np.ndarray) else 1


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, tag, error].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn, tag_of=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                if tag_of is not None:
                    span[4] = tag_of(args, kwargs, None)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if tag_of is not None:
                span[4] = tag_of(args, kwargs, result)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Point every module attribute that is ``original`` at ``wrapper``."""
        hits = 0
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no module attribute is {original!r}")

    def install(self) -> None:
        counts = self.counts

        def integrate(f, lo, hi, **kwargs):
            def counted(u):
                counts["integrand_points"] += 1
                return f(u)

            return original_integrate(counted, lo, hi, **kwargs)

        original_integrate = quadrature.integrate
        self._rebind(original_integrate, self._span("integrate", integrate))

        def route(args, kwargs, result):
            """The route used, or the one requested if the call raised."""
            if result is not None:
                return result[1]
            method = kwargs.get("method", args[4] if len(args) > 4 else "auto")
            return getattr(method, "value", method)

        self._rebind(asymcov.sigma_pair, self._span("sigma_pair", asymcov.sigma_pair, tag_of=route))
        self._rebind(asymcov.cov_matrix, self._span("cov_matrix", asymcov.cov_matrix))
        self._rebind(
            moments.population_moment,
            self._span("population_moment", moments.population_moment),
        )

        def sample_points(args, kwargs, result):
            counts["sample_points"] += len(args[0])

        self._rebind(
            moments.sample_moment,
            self._span("sample_moment", moments.sample_moment, after=sample_points),
        )

        def rows(args, kwargs, result):
            counts["load_sample_rows"] += result.size

        self._rebind(moments.load_sample, self._span("load_sample", moments.load_sample, after=rows))

        def fit_result(args, kwargs, result):
            counts["newton_iterations"] += result.iterations
            counts["non_unique_fits"] += bool(result.non_unique)

        self._rebind(estimate.fit, self._span("fit", estimate.fit, after=fit_result))
        self._rebind(
            estimate.moment_jacobian,
            self._span("moment_jacobian", estimate.moment_jacobian),
        )
        self._rebind(estimate.delta_cov, self._span("delta_cov", estimate.delta_cov))

        def mc_result(args, kwargs, result):
            config = args[0] if args else kwargs["config"]
            counts["replications"] += config.replications
            counts["replication_failures"] += result.failures

        self._rebind(simulate.run_mc, self._span("run_mc", simulate.run_mc, after=mc_result))

        def audit_result(args, kwargs, result):
            counts["audit_cases"] += result.cases
            counts["audit_comparisons"] += result.comparisons

        for fn_name, kind in AUDIT_KINDS.items():
            fn = getattr(audit, fn_name)
            self._rebind(
                fn, self._span("audit", fn, tag_of=lambda a, k, r, kind=kind: kind, after=audit_result)
            )

        def exit_code(args, kwargs, result):
            counts["nonzero_exits"] += result != 0

        self._rebind(cli.main, self._span("main", cli.main, after=exit_code))

        for attr, key in (("value", "H_points"), ("deriv", "dH_points")):
            original = getattr(models.CompositeH, attr)

            def counted(self_, u, _original=original, _key=key):
                counts[_key] += _points(u)
                return _original(self_, u)

            self._restore.append((models.CompositeH, attr, original))
            setattr(models.CompositeH, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, tuple[float | None, str]]:
        """Metric name -> (value or None, note)."""
        spans = self.spans
        child_s = defaultdict(float)
        for name, t0, t1, parent, _tag, _error in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0

        calls = Counter()
        total_s = defaultdict(float)
        self_s = defaultdict(float)
        outer_integrate_s = 0.0
        route_calls = Counter()
        route_s = defaultdict(float)
        route_errors = Counter()
        audit_s = defaultdict(float)
        divergence = 0
        pm_in_fit = 0
        for index, (name, t0, t1, parent, tag, error) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            total_s[name] += dur
            self_s[name] += dur - child_s[index]
            if name == "integrate":
                if error == "DivergenceError":
                    divergence += 1
                if not self._has_ancestor(index, "integrate"):
                    outer_integrate_s += dur
            elif name == "sigma_pair":
                # A call that raised did no route's work (the audit probes
                # the closed route's applicability that way); count it apart.
                if error is None:
                    route_calls[tag] += 1
                    route_s[tag] += dur
                else:
                    route_errors[tag] += 1
            elif name == "audit":
                audit_s[tag] += dur
            elif name == "population_moment" and self._has_ancestor(index, "fit"):
                pm_in_fit += 1

        c = self.counts
        out: dict[str, tuple[float | None, str]] = {}

        def put(metric, value, wrapped, seen, note=""):
            if seen:
                out[metric] = (value, note)
            else:
                out[metric] = (None, "; ".join(filter(None, (f"no calls to {wrapped} on this workload", note))))

        put("models.H_points", c["H_points"], "CompositeH.value", c["H_points"] > 0)
        put("models.dH_points", c["dH_points"], "CompositeH.deriv", c["dH_points"] > 0)
        n_int = calls["integrate"]
        put("quadrature.integrate_calls", n_int, "integrate", n_int)
        put("quadrature.integrand_points", c["integrand_points"], "integrate", n_int)
        put(
            "quadrature.points_per_call",
            c["integrand_points"] / n_int if n_int else None, "integrate", n_int,
        )
        put("quadrature.busy_s", outer_integrate_s, "integrate", n_int)
        put("quadrature.divergence_errors", divergence, "integrate", n_int)
        for r in ROUTES:
            raised = route_errors[r]
            note = f"{raised} calls that requested {r} raised and are left out" if raised else ""
            put(f"asymcov.sigma_pair_calls.{r}", route_calls[r], f"sigma_pair ({r})", route_calls[r], note)
            put(f"asymcov.sigma_pair_s.{r}", route_s[r], f"sigma_pair ({r})", route_calls[r], note)
        for name, layer in (
            ("cov_matrix", "asymcov"),
            ("population_moment", "moments"),
            ("sample_moment", "moments"),
            ("fit", "estimate"),
            ("moment_jacobian", "estimate"),
            ("run_mc", "simulate"),
            ("main", "cli"),
        ):
            put(f"{layer}.{name}_calls", calls[name], name, calls[name])
            put(f"{layer}.{name}_s", total_s[name], name, calls[name])
        put("moments.sample_points", c["sample_points"], "sample_moment", calls["sample_moment"])
        put("moments.load_sample_s", total_s["load_sample"], "load_sample", calls["load_sample"])
        put("moments.load_sample_rows", c["load_sample_rows"], "load_sample", calls["load_sample"])
        put("estimate.newton_iterations", c["newton_iterations"], "fit", calls["fit"])
        put("estimate.delta_cov_s", total_s["delta_cov"], "delta_cov", calls["delta_cov"])
        put(
            "estimate.population_moments_per_fit",
            pm_in_fit / calls["fit"] if calls["fit"] else None, "fit", calls["fit"],
        )
        put("estimate.non_unique_fits", c["non_unique_fits"], "fit", calls["fit"])
        put("simulate.self_s", self_s["run_mc"], "run_mc", calls["run_mc"])
        put("simulate.replications", c["replications"], "run_mc", calls["run_mc"])
        put("simulate.replication_failures", c["replication_failures"], "run_mc", calls["run_mc"])
        put("audit.cases", c["audit_cases"], "run_*_audit", calls["audit"])
        put("audit.comparisons", c["audit_comparisons"], "run_*_audit", calls["audit"])
        for kind in AUDIT_KINDS.values():
            put(f"audit.run_s.{kind}", audit_s[kind], f"the {kind} audit", audit_s.get(kind))
        put("cli.self_s", self_s["main"], "main", calls["main"])
        put("cli.nonzero_exits", c["nonzero_exits"], "main", calls["main"])
        out["trace.overhead_frac"] = (overhead_frac, "")
        return {name: out[name] for name in UNITS}

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "tag", "error"],
                 "spans": self.spans},
                fh,
            )
