"""Benchmark of the robust_lmoments package.

Run from the repository root:

    python3 perfbench/run.py --workload audit-oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fit-loss --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

Workloads (see workloads.py): ``audit-oracle``, ``fit-loss`` and
``mc-verify``.  Each is one process with one client in a closed loop: the
next op starts when the previous one has finished, and every op's output
is checked.

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
SETUP_PROBES fresh processes, each timed from its start to the point where
the first timed op would begin), then ops per second and latency
percentiles over ``--seconds`` of the op pool, and the peak RSS of the
measuring process.  ``--trace 1`` runs the fixed ``trace_ops`` prefix once
untraced and once traced (tracing.py) and reports the per-layer metrics and
the tracing overhead.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details (environment, failure reasons, spans) go to
``.perfbench_out/`` in the repository root.

BLAS/OpenMP thread counts are pinned to 1 and ROBUST_LMOMENTS_THREADS is
removed, so a run is one process with one compute thread.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"
os.environ.pop("ROBUST_LMOMENTS_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# Metric name -> unit for the final JSON line; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# The per-layer metrics that every workload exercises, for any seed.  The
# final line of a traced run holds only these, each as a positive number
# with its unit and nothing else.  The traced run prints the others too
# (see tracing.UNITS) and writes them, with their notes, to its detail
# file, with null where a workload never reaches the layer.  Left out here:
# quadrature.divergence_errors (0 on every workload while the routes
# converge) and trace.overhead_frac (within noise of 0, and sometimes
# below it, on mc-verify).
PER_LAYER = (
    "models.H_points",
    "models.dH_points",
    "quadrature.integrate_calls",
    "quadrature.integrand_points",
    "quadrature.points_per_call",
    "quadrature.busy_s",
    "asymcov.sigma_pair_calls.kernel",
    "asymcov.sigma_pair_calls.closed",
    "asymcov.sigma_pair_calls.equal-props",
    "asymcov.sigma_pair_calls.mwm-decomposition",
    "asymcov.sigma_pair_s.kernel",
    "asymcov.sigma_pair_s.closed",
    "asymcov.sigma_pair_s.equal-props",
    "asymcov.sigma_pair_s.mwm-decomposition",
)


def _import_package():
    """Import robust_lmoments from this checkout's src/, or exit 2."""
    if not (SRC / "robust_lmoments" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}/robust_lmoments")
    sys.path.insert(0, str(SRC))
    import robust_lmoments

    if Path(robust_lmoments.__file__).resolve().parent != (SRC / "robust_lmoments").resolve():
        sys.exit(f"perfbench: imported robust_lmoments from {robust_lmoments.__file__}")
    import workloads

    return workloads


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("audit-oracle", "fit-loss", "mc-verify"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check the benchmark itself at a tiny size")
    # Internal: used by the set-up probes and the self-test.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-probes", type=int, default=SETUP_PROBES, help=argparse.SUPPRESS)
    p.add_argument("--limit-ops", type=int, default=0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "robust_lmoments").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "ROBUST_LMOMENTS_THREADS": os.environ.get("ROBUST_LMOMENTS_THREADS"),
    }


def _git_commit() -> str | None:
    """HEAD of the repository rooted here, or None in a plain checkout.

    GIT_CEILING_DIRECTORIES keeps git from searching above the checkout.
    """
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def set_up(wl_module, name: str, seed: int, limit_ops: int):
    """Build the workload's inputs and warm up the code paths it uses."""
    WORK_DIR.mkdir(exist_ok=True)
    wl = wl_module.WORKLOADS[name](seed, str(WORK_DIR))
    if limit_ops:
        wl.ops = wl.ops[:limit_ops]
        wl.trace_ops = wl.trace_ops[:limit_ops]
    wl.warm_up()
    return wl


def _probe_setup(workload: str, seed: int, limit_ops: int) -> float:
    """Seconds from starting a fresh process to its first timed op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe", "--limit-ops", str(limit_ops)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with code {code}: {line!r}")
    return elapsed


def run_op(wl, op, latencies: list, failures: list) -> None:
    """One timed op, then its output check (outside the timing)."""
    start = time.perf_counter()
    try:
        outcome = wl.execute(op)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        latencies.append(time.perf_counter() - start)
        failures.append(f"op {len(latencies) - 1}: {type(exc).__name__}: {exc}")
        return
    latencies.append(time.perf_counter() - start)
    try:
        reason = wl.check(op, outcome)
    except Exception as exc:
        reason = f"output check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        failures.append(f"op {len(latencies) - 1}: {reason}")


def measure(wl, seconds: float):
    latencies: list[float] = []
    failures: list[str] = []
    ops = wl.ops
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        run_op(wl, ops[len(latencies) % len(ops)], latencies, failures)
        if time.perf_counter() >= deadline:
            break
    return latencies, failures, time.perf_counter() - start


def _finish(name: str, seed: int, kind: str, attempted: int, failures: list,
            metrics: dict, extra: dict) -> int:
    """Write the detail file, print the summary and the final JSON line."""
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{kind}-{name}-seed{seed}.json"
    with open(detail, "w") as fh:
        json.dump({"workload": name, "seed": seed, "environment": env,
                   "attempted": attempted, "failures": failures,
                   "metrics": metrics, **extra}, fh, indent=1)
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"detail {detail.relative_to(ROOT)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_untraced(wl_module, args) -> int:
    probes = [
        _probe_setup(args.workload, args.seed, args.limit_ops)
        for _ in range(args.setup_probes)
    ]
    wl = set_up(wl_module, args.workload, args.seed, args.limit_ops)
    try:
        latencies, failures, elapsed = measure(wl, args.seconds)
        shares = wl.shares()
    finally:
        wl.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = sorted(1e3 * x for x in latencies)
    n = len(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if n >= 2 else ms[0]
    values = {
        "setup_s": statistics.median(probes),
        "ops_per_s": n / elapsed,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "peak_rss_mb": rss_mb,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(f"{args.workload} seed={args.seed}: {n} ops in {elapsed:.3f} s, one client, closed loop")
    for k, u in END_TO_END.items():
        print(f"  {k:<16} {values[k]:.6g} {u}")
    print(f"  {'failed_frac':<16} {len(failures) / n:.6g} ratio  ({len(failures)}/{n})")
    if n < 100:
        print(f"  note: latency_p90_ms rests on {n} ops, so fewer than ten lie beyond it")
    print(f"  set-up probes (s): {', '.join(f'{x:.4f}' for x in probes)}")
    print(f"  input shares: {json.dumps(shares, sort_keys=True)}")
    return _finish(args.workload, args.seed, "run", n, failures, metrics,
                   {"setup_probes_s": probes, "latencies_s": latencies,
                    "elapsed_s": elapsed, "shares": shares})


def run_traced(wl_module, args) -> int:
    import tracing

    wl = set_up(wl_module, args.workload, args.seed, args.limit_ops)
    failures: list[str] = []
    try:
        ops = wl.trace_ops
        untraced: list[float] = []
        start = time.perf_counter()
        for op in ops:
            run_op(wl, op, untraced, failures)
        untraced_s = time.perf_counter() - start

        tracer = tracing.Tracer()
        tracer.install()
        traced: list[float] = []
        try:
            start = time.perf_counter()
            for op in ops:
                run_op(wl, op, traced, failures)
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        shares = wl.shares()
    finally:
        wl.close()

    # Share of ops per second lost to tracing: 1 - traced/untraced rate.
    overhead = 1.0 - untraced_s / traced_s
    layer = tracer.metrics(overhead)
    print(f"{args.workload} seed={args.seed}: traced {len(ops)} ops "
          f"({untraced_s:.3f} s untraced, {traced_s:.3f} s traced)")
    for k, (value, note) in layer.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {k:<44} {shown} {tracing.UNITS[k]}" + (f"  ({note})" if note else ""))
    print(f"  input shares: {json.dumps(shares, sort_keys=True)}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump_spans(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"))

    metrics = {name: {"value": layer[name][0], "unit": tracing.UNITS[name]}
               for name in PER_LAYER}
    full = {name: {"value": v, "unit": tracing.UNITS[name], "note": note}
            for name, (v, note) in layer.items()}
    return _finish(args.workload, args.seed, "trace", 2 * len(ops), failures, metrics,
                   {"per_layer": full, "shares": shares,
                    "untraced_s": untraced_s, "traced_s": traced_s})


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    wl_module = _import_package()
    if args.self_test:
        import selftest

        return selftest.main(wl_module)
    if args.setup_probe:
        wl = set_up(wl_module, args.workload, args.seed, args.limit_ops)
        print("ready", flush=True)
        wl.close()
        return 0
    if args.trace:
        return run_traced(wl_module, args)
    return run_untraced(wl_module, args)


if __name__ == "__main__":
    sys.exit(main())
