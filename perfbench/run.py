"""Benchmark of the babenko steady-wave solver.

    python3 perfbench/run.py --workload c5-navigate --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): c5-navigate, c1-extreme-1024, postprocess.
The package is imported from src/ of the checkout this file sits in; a
copy installed elsewhere is refused.  Every run is a fresh process, so
the solver's system cache is built during set-up, as every CLI user pays.

With --trace 0 the run sets up several times, then repeats the measured
iteration while another one still fits in --seconds (at least one), and
reports medians: the end-to-end metrics.  With --trace 1 it sets up once,
runs one iteration with every babenko layer wrapped in spans (tracer.py),
and reports the per-layer metrics; the counts in a traced run depend only
on the seed.  --quick runs any workload at N = 64 for the harness's own
test.  Each run checks the workload's answers against the acceptance
reference bands, prints one line per check and metric, then, as its last
line, a JSON object with the keys correct, attempted, failed and metrics.
Result files and span dumps go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SRC = (ROOT / "src").resolve()

# metric units; test_quick.py checks them against BENCHMARK.json
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
PER_LAYER_UNITS = {
    ".calls": "count", ".fail": "count", ".iters": "count", ".solves": "count",
    ".events": "count", ".seeds": "count", ".branches": "count", ".points": "count",
    ".rejected": "count", ".correctors": "count", ".spans": "count",
    ".bytes": "B", "_bytes": "B", ".gflop": "GFLOP", ".gflops": "GFLOP/s",
    "_ms": "ms", "_pct": "%", "_ratio": "ratio", "_s": "s", ".s": "s",
}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


IMPORT = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
          "import babenko.cli; print(time.perf_counter() - t)")


def import_package():
    """Import babenko (and its CLI) from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import babenko
    import babenko.cli  # noqa: F401  (CLI users pay for click too)

    if not Path(babenko.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"babenko came from {babenko.__file__}, not from {SRC}")


def import_seconds_elsewhere() -> float:
    """Seconds to import babenko and its CLI in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def blas_threads(np) -> int | None:
    """OpenBLAS thread count, asked from the library numpy loaded."""
    import ctypes
    import glob

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted((ROOT / "src" / "babenko").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_babenko_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def dense_flops(kind: str, N: int) -> float:
    """Computed GEMM flops of one call of the dense assembly at size N.

    jacobian: two products (N x 2N)(2N x N), then Pw @ dJw and Qm @ Pw
    (N x N)(N x N): 8N^3 + 2N^3 + 2N^3.  stacked_jacobian, its own work
    only: the change of basis S @ A @ T, two (N x N)(N x N) products.
    """
    return {"jacobian": 12.0, "stacked_jacobian": 4.0}[kind] * float(N) ** 3


def system_bytes(system) -> int:
    """Bytes of the arrays a DiscreteSystem holds (S, T, S2, T2 at the seed)."""
    return sum(v.nbytes for v in vars(system).values() if hasattr(v, "nbytes"))


def median(values) -> float:
    return float(statistics.median(values))


def measure(args, wl, workload, tracer):
    """Set up, then run iterations; returns (set-ups, iterations, checks, error)."""
    set_ups = []
    for i in range(1 if tracer else workload.set_up_repeats):
        phases = wl.Phases()
        with workload.span("bench.setup"):
            workload.set_up(i == 0, phases)
        set_ups.append(phases.times)

    iterations, checks, error = [], [], None
    start = time.perf_counter()
    while True:
        phases = wl.Phases()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with workload.span("bench.iteration"):
                got = workload.iteration(phases)
        except Exception:  # reported as a failed run, not a crash
            error = traceback.format_exc()
            break
        phases.times["wall"] = time.perf_counter() - t0
        phases.times["cpu"] = time.process_time() - c0
        iterations.append(phases.times)
        checks = got  # every iteration computes the same answers
        elapsed = time.perf_counter() - start
        if tracer or elapsed + median(it["wall"] for it in iterations) > args.seconds:
            break
    return set_ups, iterations, checks, error


def phase_median(runs: list[dict], phase: str) -> float:
    return median(r[phase] for r in runs if phase in r)


def end_to_end(import_s, set_ups, iterations, checks) -> dict:
    """Medians over the run's set-ups and iterations.

    setup_s is the import time plus, per set-up phase, its median over
    the set-ups that ran it.  Phase times inside an iteration (trace, detect,
    navigate, ...) are printed and stored but not reported as metrics: at
    a few seconds each they spread by 15-25% between runs on a shared
    2-core machine, more than any bound allows.
    """
    set_up_phases = {k for s in set_ups for k in s}
    passed = sum(c.passed for c in checks)
    return {
        "wall_s": median(it["wall"] for it in iterations),
        "setup_s": import_s + sum(phase_median(set_ups, k) for k in set_up_phases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": passed / len(checks) if checks else 0.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="N = 64 for every workload (harness self-test)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - t0
    if not args.trace:
        # the import is the noisiest part of set-up: report the median of
        # three, each timed in a fresh interpreter as a CLI user pays it
        import_s = median(import_seconds_elsewhere() for _ in range(3))

    import numpy as np

    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    N = wl.QUICK_N if args.quick else wl.SIZES[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / tag
    ops = wl.Ops()
    tracer = tr.Tracer() if args.trace else None
    span = tracer.span if tracer else contextlib.nullcontext
    workload = wl.WORKLOADS[args.workload](args.seed, N, workdir, ops, span)
    if tracer:
        tracer.install()
    try:
        set_ups, iterations, checks, error = measure(args, wl, workload, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np)
    env.update(workload=args.workload, seed=args.seed, trace=args.trace, N=N, depth="pi/5",
               start_amplitude=workload.s, set_ups=len(set_ups),
               iterations=len(iterations))
    print("env " + json.dumps(env))
    print(f"import: {import_s:.4f}s")
    for i, s in enumerate(set_ups):
        print(f"set-up {i}: " + " ".join(f"{k}={v:.4f}s" for k, v in s.items()))
    for i, it in enumerate(iterations):
        print(f"iteration {i}: " + " ".join(f"{k}={v:.4f}s" for k, v in it.items()))
    for c in checks:
        print(c.line())
    if error:
        print(error, file=sys.stderr)

    if not iterations:
        metrics = {}
    elif tracer:
        metrics = tr.layer_metrics(tracer.spans, dense_flops)
        metrics["solver.system_bytes"] = system_bytes(wl.solver.get_system(N, wl.H))
        metrics["trace.wall_s"] = iterations[0]["wall"]
        metrics["trace.overhead_est_s"] = metrics["trace.spans"] * tr.wrapper_cost_s()
        tracer.dump(OUT / "traces" / f"{tag}.jsonl.gz")
    else:
        metrics = end_to_end(import_s, set_ups, iterations, checks)
    units = {k: unit_of(k) if tracer else END_TO_END[k] for k in metrics}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    correct = (error is None and ops.failed == 0 and bool(checks)
               and all(c.passed or c.name in wl.KNOWN_DEVIATIONS for c in checks))
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({
        "env": env, "import_s": import_s, "set_ups": set_ups, "iterations": iterations,
        "checks": [vars(c) for c in checks], "error": error, **result,
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
