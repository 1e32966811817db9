"""Command-line front end.

Subcommands: bifpoints, trace, profile, rcurve, verify.  Options may come
from flags, from a JSON config file (--config), or, for the output
directory, from the environment (BABENKO_OUTDIR).  Requested branches are
traced one after another in this process.  Exit codes: 0 success, 2 bad
configuration or a malformed branch file, 3 numerical hard failure,
4 verification failure.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import io as bio
from .continuation import (
    Branch,
    ContinuationConfig,
    continue_branch,
    detect_secondary_bifurcations,
    navigate_secondaries,
    start_branch,
    trivial_bifurcation_mu,
)
from .geometry import surface_curve
from .solver import NewtonConfig, SolveFailure, residual_fixed_r, residual_modified
from .spectral import DomainError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

DEFAULT_DEPTH = math.pi / 5


class ConfigError(click.ClickException):
    exit_code = EXIT_CONFIG


@dataclass
class RunConfig:
    depth: float = DEFAULT_DEPTH
    N: int = 256
    branches: list = field(default_factory=list)  # {"mode": n, "amplitude_max": a|None, "navigate": bool}
    amplitude_step: float = 5e-3
    residual_tol: float = 1e-10
    outdir: Path = Path(".")
    fmt: str = "csv"

    def validate(self) -> "RunConfig":
        if not self.depth > 0:
            raise ConfigError(f"depth must be positive, got {self.depth}")
        if self.N < 16 or self.N > 4096 or self.N & (self.N - 1):
            raise ConfigError(
                f"modes must be a power of two between 16 and 4096, got {self.N}"
            )
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        for spec in self.branches:
            if spec["mode"] < 1:
                raise ConfigError(f"branch mode must be positive, got {spec['mode']}")
        try:
            self.continuation()
        except ValueError as exc:
            raise ConfigError(str(exc))
        return self

    def continuation(self) -> ContinuationConfig:
        return ContinuationConfig(
            amplitude_step=self.amplitude_step,
            N=self.N,
            newton=NewtonConfig(residual_tol=self.residual_tol),
        )


def _parse_branch_spec(text: str) -> dict:
    """'C1', '2', or 'C5+' (trailing + requests secondary navigation)."""
    navigate = text.endswith("+")
    core = text.rstrip("+")
    if core.upper().startswith("C"):
        core = core[1:]
    try:
        mode = int(core)
    except ValueError:
        raise ConfigError(f"cannot parse branch spec {text!r}; use e.g. C1, 2 or C5+")
    return {"mode": mode, "amplitude_max": None, "navigate": navigate}


def _build_config(config_path, depth, modes, branch, amplitude_max, step, fmt, out) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}")
        cfg.depth = float(doc.get("depth", cfg.depth))
        cfg.N = int(doc.get("modes", doc.get("N", cfg.N)))
        cfg.amplitude_step = float(doc.get("amplitude_step", cfg.amplitude_step))
        cfg.residual_tol = float(doc.get("residual_tol", cfg.residual_tol))
        cfg.fmt = doc.get("format", cfg.fmt)
        cfg.outdir = Path(doc.get("outdir", cfg.outdir))
        for spec in doc.get("branches", []):
            if isinstance(spec, str):
                cfg.branches.append(_parse_branch_spec(spec))
            else:
                cfg.branches.append(
                    {
                        "mode": int(spec["mode"]),
                        "amplitude_max": spec.get("amplitude_max"),
                        "navigate": bool(spec.get("navigate", False)),
                    }
                )
    if depth is not None:
        cfg.depth = depth
    if modes is not None:
        cfg.N = modes
    if step is not None:
        cfg.amplitude_step = step
    if fmt is not None:
        cfg.fmt = fmt
    if out is not None:
        cfg.outdir = Path(out)
    elif "BABENKO_OUTDIR" in os.environ:
        cfg.outdir = Path(os.environ["BABENKO_OUTDIR"])
    for text in branch or ():
        cfg.branches.append(_parse_branch_spec(text))
    if amplitude_max is not None:
        for spec in cfg.branches:
            spec["amplitude_max"] = amplitude_max
    return cfg.validate()


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="JSON config file with the run configuration.")(fn)
    fn = click.option("--depth", type=float, default=None, help="Mean depth h.")(fn)
    fn = click.option("--modes", type=int, default=None, help="Cosine modes N.")(fn)
    fn = click.option("--branch", multiple=True, help="Branch spec, e.g. C1 or C5+.")(fn)
    fn = click.option("--amplitude-max", type=float, default=None)(fn)
    fn = click.option("--step", type=float, default=None, help="Initial amplitude step.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Output directory.")(fn)
    return fn


@click.group()
def main():
    """Steady periodic gravity water waves on finite depth."""


@main.command()
@_common_options
@click.option("--n-max", type=int, default=5, show_default=True,
              help="Largest mode for which to report the bifurcation point.")
def bifpoints(n_max, **kw):
    """Bifurcation points mu_n of the trivial solution at depth h."""
    cfg = _build_config(**kw)
    if n_max < 0:
        raise ConfigError(f"n-max must be nonnegative, got {n_max}")
    rows = [(n, trivial_bifurcation_mu(n, cfg.depth)) for n in range(1, n_max + 1)]
    if cfg.fmt == "json":
        click.echo(json.dumps(
            {"depth": cfg.depth, "points": [{"n": n, "mu": mu} for n, mu in rows]},
            indent=1,
        ))
    else:
        click.echo("n,mu")
        for n, mu in rows:
            click.echo("%d,%.17g" % (n, mu))


def _trace_one(spec, depth, ccfg):
    """Trace one primary branch and, if requested, its secondaries."""
    ccfg.amplitude_max = spec["amplitude_max"]
    branch = start_branch(spec["mode"], 0.01, depth, ccfg)
    continue_branch(branch, depth, ccfg)
    branches = [branch]
    if spec["navigate"]:
        detect_secondary_bifurcations(branch, depth, ccfg)
        branches.extend(navigate_secondaries(branch, depth, ccfg))
    return branches


@main.command()
@_common_options
def trace(**kw):
    """Trace branches and write per-branch tables plus an events file."""
    cfg = _build_config(**kw)
    if not cfg.branches:
        click.echo("no branches requested", err=True)
        sys.exit(EXIT_OK)
    hard_failure = False
    traced: list[Branch] = []
    try:
        for spec in cfg.branches:
            traced.extend(_trace_one(spec, cfg.depth, cfg.continuation()))
    except (SolveFailure, DomainError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    for branch in traced:
        for path in bio.write_branch(branch, cfg.outdir, cfg.depth, cfg.fmt):
            click.echo(str(path))
        if any(e.kind == "hard_failure" for e in branch.events):
            hard_failure = True
    click.echo(str(bio.write_events(traced, cfg.outdir, cfg.depth)))
    sys.exit(EXIT_NUMERICAL if hard_failure else EXIT_OK)


def _read_branch(path) -> bio.BranchData:
    try:
        return bio.read_branch(path)
    except bio.BranchFormatError as exc:
        raise ConfigError(str(exc))


def _select_point(data: bio.BranchData, selector: str):
    if not data.points:
        raise ConfigError(
            f"branch {data.label} has no solution sidecar; re-run trace first"
        )
    n = len(data.points)
    if selector == "endpoint":
        return n - 1
    if selector.startswith("mu="):
        try:
            target = float(selector[3:])
        except ValueError:
            target = math.nan
        if not math.isfinite(target):
            raise ConfigError(f"bad selector {selector!r}; mu= needs a finite number")
        return int(np.argmin(np.abs(data.mus - target)))
    try:
        idx = int(selector)
    except ValueError:
        raise ConfigError(
            f"bad selector {selector!r}; use an index 0..{n - 1}, 'endpoint' or 'mu=VALUE'"
        )
    if not 0 <= idx < n:
        raise ConfigError(f"index {idx} out of range; branch has {n} points")
    return idx


@main.command()
@click.argument("branch_file", type=click.Path(exists=True))
@click.option("--point", "selector", default="endpoint", show_default=True,
              help="Point selector: index, 'endpoint', or 'mu=VALUE'.")
@click.option("--samples", "M", type=click.IntRange(min=1), default=None,
              help="Surface sample count (default 4N).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
def profile(branch_file, selector, M, fmt, out):
    """Reconstruct the free-surface profile of one stored solution."""
    data = _read_branch(branch_file)
    idx = _select_point(data, selector)
    pt = data.points[idx]
    try:
        prof = surface_curve(pt.coeffs, pt.mu, data.depth, M=M)
    except DomainError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    if out is None:
        out = Path(branch_file).with_suffix(f".profile{idx}.{fmt}")
    path = bio.write_profile(prof, pt, out, fmt)
    click.echo(str(path))


@main.command()
@click.argument("branch_file", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None)
def rcurve(branch_file, fmt, out):
    """Emit the conformal-radius series r(sup norm) along a stored branch."""
    data = _read_branch(branch_file)
    series = np.array([(row["sup_norm"], row["r"]) for row in data.table])
    if out is None:
        out = Path(branch_file).with_suffix(f".rcurve.{fmt}")
    path = bio.write_rcurve(series, out, fmt)
    click.echo(str(path))


@main.command()
@click.argument("branch_files", type=click.Path(exists=True), nargs=-1)
@click.option("--out", type=click.Path(), default=None,
              help="Report path (default verify_report.json next to first input).")
@click.option("--sample", type=click.IntRange(min=1), default=20, show_default=True,
              help="Points sampled per branch for the round-trip checks; "
                   "the last point is always one of them.")
def verify(branch_files, out, sample):
    """Run the invariant suite over stored branch points; nonzero exit on failure."""
    if not branch_files:
        click.echo("no branch files given; vacuous pass", err=True)
        bio.write_report({"checks": [], "passed": True, "warning": "empty input"},
                         out or "verify_report.json")
        sys.exit(EXIT_OK)
    checks = []

    def record(name, branch, ok, detail):
        checks.append({"check": name, "branch": branch, "passed": bool(ok),
                       "detail": detail})

    for bf in branch_files:
        data = _read_branch(bf)
        pts = data.points
        if not pts:
            record("sidecar_present", data.label, False, "no solutions sidecar")
            continue
        # every step-th point, and always the last: the highest wave
        step = max(1, len(pts) // sample)
        sampled = pts[:-1:step] + pts[-1:]
        worst_rt = 0.0
        for p in sampled:
            res_fixed = float(np.max(np.abs(residual_fixed_r(p.coeffs, p.mu, p.r))))
            res_mod = float(np.max(np.abs(residual_modified(p.coeffs, p.mu, data.depth))))
            worst_rt = max(worst_rt, res_fixed, res_mod)
        record("proposition1_roundtrip", data.label, worst_rt < 1e-9,
               {"max_residual": worst_rt})
        means = np.array([p.mean for p in pts])
        record("mean_nonpositive", data.label, bool(np.all(means <= 1e-14)),
               {"max_mean": float(means.max())})
        gaps = np.array([0.5 * p.mu - p.sup_norm for p in pts])
        record("height_below_mu_half", data.label, bool(np.all(gaps > 0)),
               {"min_gap": float(gaps.min())})
        rs = np.array([p.r for p in pts])
        record("radius_in_unit_interval", data.label,
               bool(np.all((rs > 0) & (rs < 1))),
               {"r_range": [float(rs.min()), float(rs.max())]})
        worst_mean_res = 0.0
        for p in sampled:
            prof = surface_curve(p.coeffs, p.mu, data.depth)
            worst_mean_res = max(worst_mean_res, abs(prof.mean_residual))
        record("zero_mean_surface", data.label, worst_mean_res < 1e-8,
               {"max_mean_residual": worst_mean_res})

    passed = all(c["passed"] for c in checks)
    report_path = out or str(Path(branch_files[0]).parent / "verify_report.json")
    bio.write_report({"checks": checks, "passed": passed}, report_path)
    click.echo(report_path)
    sys.exit(EXIT_OK if passed else EXIT_VERIFY)


if __name__ == "__main__":
    main()
