"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

1. BENCHMARK.json names the metrics and workloads that run.py prints.
2. Each workload runs untraced at a tiny size and prints every end-to-end
   metric with its unit.  Its full traced prefix runs twice with one seed:
   every layer metric is printed, and the count metrics repeat exactly.
   In either run, each metric of the final line is exactly a positive,
   finite ``value`` and the ``unit`` BENCHMARK.json gives it.
3. Each output check has teeth: an audit route value perturbed by 1e-5
   relative, a fit estimate shifted by 10 standard errors, and a
   theoretical covariance scaled by 1.25 are each flagged as failed,
   while the unperturbed outputs pass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys

import robust_lmoments as rl
from robust_lmoments import audit as rl_audit

import run
import tracing


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failures += not ok


def _run(args: list[str]) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def _result_metrics(t: SelfTest, what: str, lines: list[str], units: dict) -> dict:
    """Check the final line's shape; return its metrics."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    metrics = result.get("metrics", {}) if isinstance(result, dict) else {}
    t.expect(
        sorted(result) == ["attempted", "correct", "failed", "metrics"]
        and result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True,
        f"{what}: final line is a correct result",
    )
    bad = sorted(
        name for name in units
        if not isinstance(metrics.get(name), dict)
        or sorted(metrics[name]) != ["unit", "value"]
        or metrics[name]["unit"] != units[name]
        or isinstance(metrics[name]["value"], bool)
        or not isinstance(metrics[name]["value"], (int, float))
        or not (math.isfinite(metrics[name]["value"]) and metrics[name]["value"] > 0)
    )
    t.expect(set(metrics) == set(units) and not bad,
             f"{what}: final line holds exactly value and unit, value > 0, "
             f"for every BENCHMARK.json metric {bad or ''}")
    return metrics


def check_benchmark_json(t: SelfTest, wl_module) -> None:
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        t.expect(False, "BENCHMARK.json exists at the repository root")
        return
    spec = json.loads(path.read_text())
    t.expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    t.expect(
        {m["name"]: m["unit"] for m in spec["per_layer"]}
        == {name: tracing.UNITS[name] for name in run.PER_LAYER},
        "BENCHMARK.json per_layer matches run.PER_LAYER",
    )
    t.expect(
        sorted(w["name"] for w in spec["workloads"]) == sorted(wl_module.WORKLOADS),
        "BENCHMARK.json workloads match workloads.WORKLOADS",
    )


def check_tiny_runs(t: SelfTest, name: str) -> None:
    tiny = ["--workload", name, "--seed", "1", "--seconds", "1",
            "--setup-probes", "1", "--limit-ops", "2"]
    code, lines = _run(tiny + ["--trace", "0"])
    _result_metrics(t, f"{name} untraced (exit {code})", lines, run.END_TO_END)
    for metric, unit in run.END_TO_END.items():
        printed = any(line.split()[:1] == [metric] and line.split()[2] == unit
                      for line in lines if len(line.split()) >= 3)
        t.expect(printed, f"{name}: {metric} printed with unit {unit}")
    t.expect(any(line.split()[:1] == ["failed_frac"] for line in lines),
             f"{name}: failed_frac printed")



def _count_metric(name: str) -> bool:
    return name.endswith(("_calls", "_points", ".newton_iterations")) or "_calls." in name


def check_traced_runs(t: SelfTest, name: str) -> None:
    """Run the full trace prefix twice with one seed.

    Every layer metric must be printed, and the count metrics must repeat
    exactly.
    """
    units = {m: tracing.UNITS[m] for m in run.PER_LAYER}
    layers = []
    for attempt in (1, 2):
        code, lines = _run(["--workload", name, "--seed", "1", "--trace", "1"])
        _result_metrics(t, f"{name} traced run {attempt} (exit {code})", lines, units)
        table = {line.split()[0] for line in lines if line.startswith("  ")}
        missing = [m for m in tracing.UNITS if m not in table]
        t.expect(not missing, f"{name}: traced run {attempt} prints every layer metric {missing or ''}")
        detail = run.OUT_DIR / f"trace-{name}-seed1.json"
        layers.append(json.loads(detail.read_text())["per_layer"] if code == 0 else {})
    counts = [m for m in tracing.UNITS if _count_metric(m)]
    differ = [m for m in counts
              if layers[0].get(m, {}).get("value") != layers[1].get(m, {}).get("value")]
    t.expect(bool(layers[0]) and not differ,
             f"{name}: {len(counts)} count metrics repeat exactly for one seed {differ or ''}")


def check_teeth(t: SelfTest, wl_module) -> None:
    workdir = str(run.WORK_DIR)
    run.WORK_DIR.mkdir(exist_ok=True)

    audit_wl = wl_module.AuditOracle(1, workdir)
    for kind, route in (("mtm", rl.CovMethod.ALPHA),
                        ("mwm", rl.CovMethod.ALPHA),
                        ("mwm-equal-props", rl.CovMethod.EQUAL_PROPS)):
        op = next(op for op in audit_wl.ops if op.kind == kind)
        t.expect(audit_wl.check(op, audit_wl.execute(op)) is None,
                 f"audit {kind}: unperturbed case passes")
        original = rl_audit.sigma_pair

        def perturbed(*args, **kwargs):
            value, used = original(*args, **kwargs)
            return (value * (1.0 + 1e-5) if used == route.value else value), used

        rl_audit.sigma_pair = perturbed
        try:
            result = audit_wl.execute(op)
        finally:
            rl_audit.sigma_pair = original
        t.expect(audit_wl.check(op, result) is not None,
                 f"audit {kind}: {route.value} value x (1 + 1e-5) is flagged")

    fit_wl = wl_module.FitLoss(1, workdir)
    try:
        for op in sorted(fit_wl.ops, key=lambda op: op.n)[:2]:
            code, _ = fit_wl.execute(op)
            rows = wl_module.read_estimates(op.out) if code == 0 else []
            t.expect(code == 0 and wl_module.check_estimates(rows, op.truth) is None,
                     f"fit {op.family}: unshifted estimates pass")
            if rows:
                shifted = [(rows[0][0] + 10.0 * rows[0][1], rows[0][1])] + rows[1:]
                t.expect(wl_module.check_estimates(shifted, op.truth) is not None,
                         f"fit {op.family}: estimate + 10 SE is flagged")
    finally:
        fit_wl.close()

    mc_wl = wl_module.McVerify(1, workdir)
    op = mc_wl.ops[0]
    report = mc_wl.execute(op)
    t.expect(mc_wl.check(op, report) is None, "mc: unscaled report passes")
    theo = report.theoretical_cov
    scaled = dataclasses.replace(
        report, theoretical_cov=rl.CovMatrix(theo.entries * 1.25, theo.methods)
    )
    t.expect(mc_wl.check(op, scaled) is not None,
             "mc: theoretical covariance x 1.25 is flagged")


def main(wl_module) -> int:
    t = SelfTest()
    check_benchmark_json(t, wl_module)
    check_teeth(t, wl_module)
    for name in wl_module.WORKLOADS:
        check_tiny_runs(t, name)
        check_traced_runs(t, name)
    print(f"self-test: {t.failures} failure(s)")
    return 1 if t.failures else 0
