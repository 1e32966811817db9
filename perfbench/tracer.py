"""Span tracing of the babenko layers, installed from outside the package.

`Tracer.install` replaces the public callables of each babenko module, the
`DiscreteSystem` methods and `numpy.linalg.solve/slogdet/svd` with thin
wrappers that record one span per call: name, start, end and parent span.
A callable is patched in every babenko module that holds a reference to
it, so names bound by `from .x import y` (also lazily, inside function
bodies) go through the wrapper.  Spans stay in memory; `layer_metrics`
turns them into the per-layer numbers and `dump` writes them out at exit.

Self time is a span's duration minus the durations of its direct children
(calls are single-threaded and nest, so the children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from pathlib import Path

import numpy as np

# (attribute, span name[, counter]) per traced callable of each module.  A
# counter maps (call args, result or None) to a number; the span records
# the difference between its value after and before the call.
_SPECTRAL = [
    ("transform_forward", "spectral.transform"),
    ("transform_inverse", "spectral.transform"),
    ("transform_matrix", "spectral.matrix"),
    ("inverse_transform_matrix", "spectral.matrix"),
    ("lambda_symbol", "spectral.symbol"),
    ("mu_symbol", "spectral.symbol"),
    ("mu_symbol_total", "spectral.symbol"),
    ("hilbert_symbol", "spectral.symbol"),
    ("dlambda_dr", "spectral.symbol"),
    ("dmu_dr", "spectral.symbol"),
    ("dealiased_product", "spectral.operator"),
    ("apply_multiplier", "spectral.operator"),
    ("apply_Jh", "spectral.operator"),
    ("apply_Lh", "spectral.operator"),
]


def _system_size(args, out):
    # the span records N of the system the method ran on
    return 0 if out is None else getattr(args[0], "N", 0)


_SYSTEM_METHODS = [
    ("__init__", "solver.system_build", None),
    ("residual", "solver.residual", None),
    ("residual_fixed_r", "solver.residual", None),
    ("stacked_residual", "solver.stacked_residual", None),
    ("prod_coeffs", "solver.products", None),
    ("prod_matrix", "solver.products", None),
    ("jacobian", "solver.jacobian", _system_size),
    ("stacked_jacobian", "solver.stacked_jacobian", _system_size),
]
_SOLVER = [
    ("newton_solve", "solver.newton"),
    ("residual_modified", "solver.api_residual"),
    ("residual_fixed_r", "solver.api_residual"),
    ("assemble_jacobian", "solver.api_jacobian"),
]


def _npoints(args, out):
    return len(args[0].points)


def _nresult(args, out):
    return 0 if out is None else len(out)


_CONTINUATION = [
    ("start_branch", "continuation.start", None),
    ("continue_branch", "continuation.trace", _npoints),
    ("detect_turning_points", "continuation.turning", None),
    ("_refine_turning_point", "continuation.fold", None),
    ("detect_secondary_bifurcations", "continuation.detect", _nresult),
    ("navigate_secondaries", "continuation.navigate", _nresult),
    ("_switch_along", "continuation.switch", None),
]
_GEOMETRY = [
    ("surface_curve", "geometry.surface_curve"),
    ("crest_heights", "geometry.crest_heights"),
    ("crest_angle_estimate", "geometry.crest_angle"),
    ("modified_coefficients", "geometry.modified_coefficients"),
    ("conformal_map_sample", "geometry.conformal_map"),
    ("r_curve", "geometry.r_curve"),
]


def _written_bytes(args, out):
    if out is None:
        return 0
    paths = out if isinstance(out, list) else [out]
    return sum(Path(p).stat().st_size for p in paths)


def _read_bytes(args, out):
    if out is None:
        return 0
    path = Path(args[0])
    sidecar = path.parent / f"{out.label}.solutions.csv"
    return path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


_IO = [
    ("write_branch", "io.write", _written_bytes),
    ("write_events", "io.write", _written_bytes),
    ("write_profile", "io.write", _written_bytes),
    ("write_rcurve", "io.write", _written_bytes),
    ("write_report", "io.write", _written_bytes),
    ("read_branch", "io.read", _read_bytes),
]
_LINALG = [("solve", "linalg.solve"), ("slogdet", "linalg.slogdet"), ("svd", "linalg.svd")]


class Tracer:
    """In-memory span recorder.

    Each span is a list [name, start, end, parent index, ok, counter delta].
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, True, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list, start: float, ok: bool) -> None:
        span[2] = time.perf_counter()
        span[1] = start
        span[4] = ok
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name)
        start = time.perf_counter()
        ok = False
        try:
            yield span
            ok = True
        finally:
            self._close(span, start, ok)

    def wrap(self, fn, name: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            before = counter(args, None) if counter else 0
            start = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(span, start, ok)
            if counter:
                span[5] = counter(args, out) - before
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "babenko" and not modname.startswith("babenko."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced callable the loaded babenko package defines."""
        import babenko.cli  # noqa: F401  (load every module before patching)
        from babenko import continuation, geometry, io, solver, spectral

        for attr, name in _SPECTRAL:
            self._patch_function(spectral, attr, name)
        for attr, name in _SOLVER:
            self._patch_function(solver, attr, name)
        for attr, name, counter in _CONTINUATION:
            self._patch_function(continuation, attr, name, counter)
        for attr, name in _GEOMETRY:
            self._patch_function(geometry, attr, name)
        for attr, name, counter in _IO:
            self._patch_function(io, attr, name, counter)
        cls = getattr(solver, "DiscreteSystem", None)
        for attr, name, counter in _SYSTEM_METHODS:
            method = vars(cls).get(attr) if cls is not None else None
            if callable(method):
                self._patched.append((cls, attr, method))
                setattr(cls, attr, self.wrap(method, name, counter))
        for attr, name in _LINALG:
            original = getattr(np.linalg, attr)
            self._patched.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self.wrap(original, name))

    def _patch_function(self, module, attr, name, counter=None) -> None:
        original = getattr(module, attr, None)
        if callable(original):
            self._replace_everywhere(original, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, ok, delta) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "ok": ok,
                    "start": start - t0, "end": end - t0, "count": delta,
                }) + "\n")


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call around a no-op, in seconds."""
    tracer = Tracer()
    noop = tracer.wrap(lambda: None, "noop")
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    return (time.perf_counter() - start) / samples


def _percentile_with_tail(durations: list[float]) -> tuple[float, float]:
    """(p, value) for the highest of p50/90/99/99.9 with ten samples beyond it."""
    n = len(durations)
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best, float(np.percentile(durations, best)) if n else 0.0


def layer_metrics(spans: list[list], dense_flops) -> dict[str, float]:
    """Per-layer metrics from recorded spans.

    `dense_flops(kind, N)` gives the computed GEMM flop count of one
    `jacobian` or `stacked_jacobian` call at size N.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)
    self_t = [dur[i] - child_time[i] for i in range(n)]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def under(i, prefix):
        return any(spans[p][0] == prefix for p in ancestors(i))

    def select(name):
        return [i for i in range(n) if spans[i][0] == name]

    def total(idx, values):
        return float(sum(values[i] for i in idx))

    m: dict[str, float] = {}
    jac = select("solver.jacobian")
    sjac = select("solver.stacked_jacobian")
    m["solver.jacobian.calls"] = len(jac)
    m["solver.jacobian.self_s"] = total(jac, self_t)
    m["solver.stacked_jacobian.calls"] = len(sjac)
    m["solver.stacked_jacobian.self_s"] = total(sjac, self_t)
    m["solver.products.s"] = total(select("solver.products"), dur)
    # computed GEMM work: N is the Jacobian's row count, read off the system
    jac_flops = sum(dense_flops("jacobian", spans[i][5]) for i in jac)
    sjac_flops = sum(dense_flops("stacked_jacobian", spans[i][5]) for i in sjac)
    m["solver.jacobian.gflop"] = jac_flops / 1e9
    m["solver.stacked_jacobian.gflop"] = sjac_flops / 1e9
    jac_time = total(jac, dur)
    sjac_self = m["solver.stacked_jacobian.self_s"]
    m["solver.jacobian.gflops"] = jac_flops / 1e9 / jac_time if jac_time else 0.0
    m["solver.stacked_jacobian.gflops"] = (
        sjac_flops / 1e9 / sjac_self if sjac_self else 0.0
    )

    build = select("solver.system_build")
    m["solver.system_build.calls"] = len(build)
    m["solver.system_build.s"] = total(build, dur)

    lu = [i for i in select("linalg.solve") if under(i, "solver.newton")]
    m["solver.lu.calls"] = len(lu)
    m["solver.lu.s"] = total(lu, dur)

    newton = select("solver.newton")
    newton_ms = [dur[i] * 1e3 for i in newton]
    m["solver.newton.calls"] = len(newton)
    m["solver.newton.fail"] = sum(1 for i in newton if not spans[i][4])
    m["solver.newton.iters"] = sum(
        1 for i in sjac if spans[i][3] >= 0 and spans[spans[i][3]][0] == "solver.newton"
    )
    m["solver.newton.self_s"] = total(newton, self_t)
    m["solver.newton.p50_ms"] = float(np.percentile(newton_ms, 50)) if newton_ms else 0.0
    tail_p, tail_v = _percentile_with_tail(newton_ms)
    m["solver.newton.tail_pct"] = tail_p
    m["solver.newton.tail_ms"] = tail_v

    res = select("solver.residual")
    m["solver.residual.calls"] = len(res)
    m["solver.residual.self_s"] = total(res, self_t)

    tr = select("spectral.transform")
    m["spectral.transform.calls"] = len(tr)
    m["spectral.transform.s"] = total(tr, dur)
    m["spectral.symbol.s"] = total(select("spectral.symbol"), dur)

    trace = select("continuation.trace")
    m["continuation.trace.calls"] = len(trace)
    m["continuation.trace.self_s"] = total(trace, self_t)
    accepted = int(sum(spans[i][5] for i in trace))
    correctors = [i for i in newton
                  if spans[i][3] >= 0 and spans[spans[i][3]][0] == "continuation.trace"]
    m["continuation.points"] = accepted
    m["continuation.correctors"] = len(correctors)
    m["continuation.rejected"] = len(correctors) - accepted
    m["continuation.accept_ratio"] = accepted / len(correctors) if correctors else 0.0
    fold = select("continuation.fold")
    m["continuation.fold.solves"] = sum(1 for i in newton if under(i, "continuation.fold"))
    m["continuation.fold.s"] = total(fold, dur)

    det = select("continuation.detect")
    m["continuation.detect.self_s"] = total(det, self_t)
    m["continuation.detect.s"] = total(det, dur)
    m["continuation.detect.lapack_s"] = total(
        [i for i in range(n)
         if spans[i][0] in ("linalg.slogdet", "linalg.svd") and under(i, "continuation.detect")],
        dur,
    )
    m["continuation.detect.solves"] = sum(
        1 for i in newton if under(i, "continuation.detect")
    )
    m["continuation.detect.events"] = int(sum(spans[i][5] for i in det))

    nav = select("continuation.navigate")
    m["continuation.navigate.self_s"] = total(nav, self_t)
    m["continuation.navigate.s"] = total(nav, dur)
    m["continuation.navigate.branches"] = int(sum(spans[i][5] for i in nav))
    seeds = []
    for i in nav:
        kids = children[i]
        for k, c in enumerate(kids):
            if spans[c][0] != "continuation.switch":
                continue
            t = dur[c]
            if spans[c][4] and k + 1 < len(kids) and spans[kids[k + 1]][0] == "continuation.trace":
                t += dur[kids[k + 1]]
            seeds.append(t)
    m["continuation.navigate.seeds"] = len(seeds)
    m["continuation.navigate.seed_sum_s"] = float(sum(seeds))
    m["continuation.navigate.seed_max_s"] = float(max(seeds, default=0.0))

    sc = select("geometry.surface_curve")
    m["geometry.surface_curve.calls"] = len(sc)
    m["geometry.surface_curve.self_s"] = total(sc, self_t)
    ch = select("geometry.crest_heights")
    m["geometry.crest_heights.calls"] = len(ch)
    m["geometry.crest_heights.s"] = total(ch, dur)
    m["geometry.crest_angle.s"] = total(select("geometry.crest_angle"), dur)

    for kind in ("write", "read"):
        idx = select(f"io.{kind}")
        m[f"io.{kind}.s"] = total(idx, dur)
        m[f"io.{kind}.bytes"] = int(sum(spans[i][5] for i in idx))
    for cmd in ("profile", "rcurve", "verify"):
        m[f"cli.{cmd}.s"] = total(select(f"cli.{cmd}"), dur)
    m["trace.spans"] = n

    def layer(i):
        # numpy.linalg calls belong to the layer that made them
        while spans[i][0].startswith("linalg.") and spans[i][3] >= 0:
            i = spans[i][3]
        return spans[i][0].split(".")[0]

    def self_by_layer(root):
        out: dict[str, float] = {}
        for i in range(root + 1, n):
            if spans[i][1] >= spans[root][2]:
                break
            out[layer(i)] = out.get(layer(i), 0.0) + self_t[i]
        return out

    # share of the measured iteration's wall time spent in each layer's own code
    its = select("bench.iteration")
    shares = self_by_layer(its[0]) if its else {}
    for name in ("spectral", "solver", "continuation", "geometry", "io", "cli"):
        m[f"{name}.share_pct"] = 100.0 * shares.get(name, 0.0) / dur[its[0]] if its else 0.0
    nav_solver = sum(self_by_layer(i).get("solver", 0.0) for i in nav)
    m["continuation.navigate.solver_pct"] = (
        100.0 * nav_solver / m["continuation.navigate.s"] if nav else 0.0
    )
    return m
