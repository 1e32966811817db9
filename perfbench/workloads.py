"""The benchmark's workloads: set-up, one measured iteration, correctness gate.

Every workload is a closed loop of one client in one process: the next
call starts when the previous one has returned.  The package is driven
through its public calls, looked up on the module at call time so that a
traced run sees them.  Depth is pi/5 throughout; the seed only moves the
start amplitude s of the primary branch inside [0.008, 0.012], where the
gated answers do not change at the printed precision.

Reference bands are the acceptance criteria of the test suite.  A check
named in KNOWN_DEVIATIONS still runs and still counts against pass_frac,
but does not make the run incorrect: it is the documented deviation of
the census-1 C5 endpoint (criterion 6), which stays red until the program
changes.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from babenko import cli, continuation, geometry, io, solver

H = math.pi / 5

KNOWN_DEVIATIONS = {"c5.census1_endpoint"}


@dataclass
class Check:
    name: str
    passed: bool
    values: dict
    band: str

    def line(self) -> str:
        shown = " ".join(f"{k}={v:.5f}" for k, v in self.values.items())
        state = "PASS" if self.passed else (
            "FAIL (known deviation)" if self.name in KNOWN_DEVIATIONS else "FAIL"
        )
        return f"check {self.name}: {state}  {shown}  [{self.band}]"


def within(name: str, values: dict, targets: dict, tol: float) -> Check:
    ok = all(abs(values[k] - t) <= tol for k, t in targets.items())
    band = ", ".join(f"{k} {t:.5f}±{tol:g}" for k, t in targets.items())
    return Check(name, ok, values, band)


@dataclass
class Ops:
    """Counts the package calls a workload makes and those that raised."""

    attempted: int = 0
    failed: int = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise


@dataclass
class Phases:
    """Wall time per named phase of one iteration or set-up."""

    times: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - start


def start_amplitude(seed: int) -> float:
    return random.Random(seed).uniform(0.008, 0.012)


def trace_primary(ops: Ops, mode: int, s: float, N: int):
    cfg = continuation.ContinuationConfig(N=N)
    branch = ops(continuation.start_branch, mode, s, H, cfg)
    ops(continuation.continue_branch, branch, H, cfg)
    return branch, cfg


def c1_checks(branch, prefix: str) -> list[Check]:
    """Criterion 2 (fold) and 4 (extreme endpoint) on a traced C1 branch."""
    checks = []
    folds = [e for e in branch.events if e.kind == "turning_point"]
    if folds:
        f = folds[0]
        checks.append(within(f"{prefix}.fold", {"mu": f.mu, "a": f.amplitude},
                             {"mu": 0.71604, "a": 0.34553}, 2e-3))
    else:
        checks.append(Check(f"{prefix}.fold", False, {}, "one turning point"))
    checks.append(within(f"{prefix}.endpoint", {"sup": branch.last.sup_norm},
                         {"sup": 0.35686}, 3e-3))
    checks.append(ends_extreme(f"{prefix}.extreme_termination", [branch]))
    return checks


def ends_extreme(name: str, branches) -> Check:
    ok = [any(e.kind == "extreme_termination" for e in b.events) for b in branches]
    return Check(name, all(ok), {"branches": len(ok), "extreme": sum(ok)},
                 "every branch ends in extreme_termination")


def angle_check(name: str, est) -> Check:
    ok = 110.0 <= est.degrees <= 130.0 and est.confident
    return Check(name, ok, {"deg": est.degrees, "confident": float(est.confident)},
                 "110-130 deg, confident")


class Workload:
    """Set-up builds the DiscreteSystem: the cached one, then fresh copies."""

    set_up_repeats = 3

    def __init__(self, seed: int, N: int, workdir: Path, ops: Ops, span=contextlib.nullcontext):
        self.s, self.N, self.workdir, self.ops = start_amplitude(seed), N, workdir, ops
        self.span = span  # a traced run records a span around each CLI command
        self.runs = 0

    def set_up(self, first: bool, phases: Phases) -> None:
        with phases("build"):
            if first:
                self.ops(solver.get_system, self.N, H)
            else:
                self.ops(solver.DiscreteSystem, self.N, H)


class C5Navigate(Workload):
    """`babenko trace --branch C5+ --modes 512`, called as a library."""

    name = "c5-navigate"

    def iteration(self, phases: Phases) -> list[Check]:
        ops = self.ops
        with phases("trace"):
            parent, cfg = trace_primary(ops, 5, self.s, self.N)
        with phases("detect"):
            # once per Branch object: a second call appends duplicate events
            events = ops(continuation.detect_secondary_bifurcations, parent, H, cfg)
        with phases("navigate"):
            secondaries = ops(continuation.navigate_secondaries, parent, H, cfg)
        self.runs += 1
        out = self.workdir / f"c5-{self.runs}"
        branches = [parent] + secondaries
        with phases("write"):
            for b in branches:
                ops(io.write_branch, b, out, H)
            ops(io.write_events, branches, out, H)
        return self.checks(events, secondaries, branches)

    @staticmethod
    def checks(events, secondaries, branches) -> list[Check]:
        near = [e for e in events
                if abs(e.mu - 0.23484) < 2e-3 and abs(e.amplitude - 0.10444) < 2e-3]
        checks = [Check("c5.cluster_crossings", len(near) >= 2,
                        {"crossings": float(len(near))}, ">= 2 near (0.23484, 0.10444)")]
        # labels are parent label + terminal crest census (+ letter suffix)
        by_census: dict[int, list] = {}
        for sec in secondaries:
            by_census.setdefault(int(sec.label[len(sec.parent)]), []).append(sec)
        targets = {1: (0.22913, 0.11456), 2: (0.23106, 0.11553), 3: (0.23322, 0.11661)}
        for census, (tmu, ta) in targets.items():
            name = f"c5.census{census}_endpoint"
            cands = by_census.get(census, [])
            if not cands:
                checks.append(Check(name, False, {}, f"a branch with census {census}"))
                continue
            p = min(cands, key=lambda sec: abs(sec.last.mu - tmu)).last
            checks.append(within(name, {"mu": p.mu, "sup": p.sup_norm},
                                 {"mu": tmu, "sup": ta}, 3e-3))
        checks.append(ends_extreme("c5.extreme_termination", branches))
        return checks


class C1Extreme1024(Workload):
    """C1 to its extreme at N = 1024, stored, read back and profiled (criterion 4)."""

    name = "c1-extreme-1024"
    samples = 16384

    def iteration(self, phases: Phases) -> list[Check]:
        ops = self.ops
        with phases("trace"):
            branch, _ = trace_primary(ops, 1, self.s, self.N)
        self.runs += 1
        with phases("post"):
            paths = ops(io.write_branch, branch, self.workdir / f"c1-{self.runs}", H)
            data = ops(io.read_branch, paths[0])
            pt = data.points[-1]
            prof = ops(geometry.surface_curve, pt.w, pt.mu, data.depth, M=self.samples)
            est = ops(geometry.crest_angle_estimate, prof)
        stored = [p.coeffs for p in branch.points]
        read = [p.coeffs for p in data.points]
        same = len(stored) == len(read) and all(np.array_equal(a, b) for a, b in zip(stored, read))
        return c1_checks(branch, "c1") + [
            angle_check("c1.crest_angle", est),
            Check("c1.read_back", same, {"points": float(len(read))},
                  "stored coefficients read back exactly"),
        ]


def read_table(path: Path) -> tuple[dict, np.ndarray]:
    """Metadata and numeric rows of a profile or r-curve file the CLI wrote."""
    meta, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# {"):
            meta = json.loads(line[2:])
        elif line and line[0].isdigit() or line.startswith("-"):
            rows.append([float(v) for v in line.split(",")])
    return meta, np.array(rows)


class PostProcess(Workload):
    """profile / rcurve / verify on a stored C1 branch: no Jacobian, no LU."""

    name = "postprocess"
    samples = 16384

    def run_cli(self, args: list[str]) -> int:
        """One babenko CLI command in this process; returns its exit code."""
        with self.span(f"cli.{args[0]}"), contextlib.redirect_stdout(_stdio.StringIO()):
            try:
                cli.main.main(args=args, prog_name="babenko", standalone_mode=False)
            except SystemExit as exc:
                return int(exc.code or 0)
        return 0

    def set_up(self, first: bool, phases: Phases) -> None:
        super().set_up(first, phases)
        if not first:
            return  # one stored branch serves every iteration
        with phases("trace"):
            self.branch, _ = trace_primary(self.ops, 1, self.s, self.N)
        with phases("store"):
            self.stored = self.ops(io.write_branch, self.branch, self.workdir / "stored", H)[0]

    def iteration(self, phases: Phases) -> list[Check]:
        self.runs += 1
        out = self.workdir / f"post-{self.runs}"
        out.mkdir(parents=True)
        csv = str(self.stored)
        n = len(self.branch.points)
        codes = {}
        with phases("profile"):
            codes["profile"] = max(
                self.ops(self.run_cli, ["profile", csv, "--point", str(i),
                                   "--out", str(out / f"p{i}.csv")])
                for i in range(n)
            )
        endpoint = out / "endpoint.csv"
        with phases("profile_16k"):
            codes["profile_16k"] = self.ops(
                self.run_cli, ["profile", csv, "--samples", str(self.samples),
                          "--out", str(endpoint)])
        rc = out / "rcurve.csv"
        with phases("rcurve"):
            codes["rcurve"] = self.ops(self.run_cli, ["rcurve", csv, "--out", str(rc)])
        with phases("verify"):
            codes["verify"] = self.ops(
                self.run_cli, ["verify", csv, "--out", str(out / "verify.json")])
        return self.checks(codes, n, out, endpoint, rc)

    def checks(self, codes, n, out, endpoint, rc) -> list[Check]:
        checks = c1_checks(self.branch, "post.stored")
        checks.append(Check("post.exit_codes", not any(codes.values()),
                            {k: float(v) for k, v in codes.items()}, "all 0"))
        written = sum((out / f"p{i}.csv").exists() for i in range(n))
        checks.append(Check("post.profiles_written", written == n,
                            {"written": float(written), "points": float(n)}, "one per point"))
        meta, xy = read_table(endpoint)
        prof = geometry.WaveProfile(
            r=meta["r"], b=np.empty(0), t=xy[:, 0], x=xy[:, 1], y=xy[:, 2],
            depth=meta["depth"],
            crest_census=[(c["x"], c["height"]) for c in meta["crest_census"]],
        )
        checks.append(angle_check("post.crest_angle", geometry.crest_angle_estimate(prof)))
        # criterion 5: single interior maximum of r along the branch
        _, ar = read_table(rc)
        a, r = ar[:, 0], ar[:, 1]
        i = int(np.argmax(r))
        single = (0 < i < len(r) - 1 and bool(np.all(np.diff(r[: i + 1]) > 0))
                  and bool(np.all(np.diff(r[i:]) < 0)))
        rmax = within("post.rcurve_max", {"r_max": r[i], "a": a[i]},
                      {"r_max": 0.54543, "a": 0.33433}, 5e-3)
        rmax.passed = rmax.passed and single
        rmax.band += ", single interior maximum"
        checks.append(rmax)
        return checks


WORKLOADS = {w.name: w for w in (C5Navigate, C1Extreme1024, PostProcess)}

# modes per workload, and the small size of the harness's own quick test
SIZES = {"c5-navigate": 512, "c1-extreme-1024": 1024, "postprocess": 512}
QUICK_N = 64
