"""Command-line front end.

Subcommands: bifpoints, trace, profile, rcurve, verify.  Options may come
from flags, from a JSON config file (--config), or, for the output
directory, from the environment (BABENKO_OUTDIR).  Requested branches are
traced one after another in this process.  Exit codes: 0 success, 2 bad
configuration, a path that cannot be read or written, or a malformed
branch file, 3 numerical hard failure, 4 verification failure.
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
from .solver import RESIDUAL_TOL, SolveFailure, residual_fixed_r, residual_modified
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
    residual_tol: float = RESIDUAL_TOL
    outdir: Path = Path(".")
    fmt: str = "csv"

    def validate(self) -> "RunConfig":
        if not (math.isfinite(self.depth) and self.depth > 0):
            raise ConfigError(f"depth must be positive and finite, got {self.depth}")
        if self.N < 16 or self.N > 4096 or self.N & (self.N - 1):
            raise ConfigError(
                f"modes must be a power of two between 16 and 4096, got {self.N}"
            )
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        for spec in self.branches:
            if not 1 <= spec["mode"] < self.N:
                raise ConfigError(
                    f"branch mode must satisfy 1 <= mode < modes = {self.N}, got {spec['mode']}"
                )
            cap = spec["amplitude_max"]
            if cap is not None and not (math.isfinite(cap) and cap > 0):
                raise ConfigError(
                    f"amplitude_max must be a positive finite number, got {cap!r}"
                )
        try:
            self.continuation()
        except ValueError as exc:
            raise ConfigError(str(exc))
        return self

    def continuation(self) -> ContinuationConfig:
        return ContinuationConfig(
            amplitude_step=self.amplitude_step, N=self.N, residual_tol=self.residual_tol,
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


def _typed(doc: dict, key: str, kinds: tuple, default=None):
    """doc[key], or default if absent; a value of another JSON type is a ConfigError."""
    value = doc.get(key, default)
    if isinstance(value, bool) and bool not in kinds or not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(f"config field {key!r} must be {names}, got {value!r}")
    return value


def _build_config(config_path, depth, fmt, modes=None, branch=(), amplitude_max=None,
                  step=None, out=None, trace=True) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError(f"config {config_path} must be a JSON object")
        if not trace:  # bifpoints reads the depth and the format alone
            doc = {k: doc[k] for k in ("depth", "format") if k in doc}
        number = (int, float)
        try:
            cfg.depth = float(_typed(doc, "depth", number, cfg.depth))
            cfg.N = _typed(doc, "modes", (int,), _typed(doc, "N", (int,), cfg.N))
            cfg.amplitude_step = float(_typed(doc, "amplitude_step", number, cfg.amplitude_step))
            cfg.residual_tol = float(_typed(doc, "residual_tol", number, cfg.residual_tol))
            cfg.fmt = doc.get("format", cfg.fmt)
            cfg.outdir = Path(doc.get("outdir", cfg.outdir))
            for spec in _typed(doc, "branches", (list,), []):
                if isinstance(spec, str):
                    cfg.branches.append(_parse_branch_spec(spec))
                else:
                    cfg.branches.append(
                        {
                            "mode": _typed(spec, "mode", (int,)),
                            "amplitude_max": _typed(spec, "amplitude_max", (*number, type(None))),
                            "navigate": _typed(spec, "navigate", (bool,), False),
                        }
                    )
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value in config {config_path}: {exc!r}")
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
    for text in branch:
        cfg.branches.append(_parse_branch_spec(text))
    if amplitude_max is not None:
        for spec in cfg.branches:
            spec["amplitude_max"] = amplitude_max
    return cfg.validate()


def _config_options(fn):
    """--config, --depth and --format, which bifpoints and trace read."""
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)(fn)
    fn = click.option("--depth", type=float, default=None, help="Mean depth h.")(fn)
    return click.option("--config", "config_path", type=click.Path(), default=None,
                        help="JSON config file with the run configuration.")(fn)


def _writable(path, directory=False) -> Path:
    """`path` if an output can go there; otherwise a ConfigError, one line.

    An output file must not be a directory, and its directory must exist.
    write_branch makes an output directory with its missing parents, so the
    nearest of them that exists must be a directory.
    """
    path = Path(path)
    if directory:
        holder = next(p for p in (path, *path.parents) if p.exists())
    elif path.is_dir():
        raise ConfigError(f"cannot write '{path}': it is a directory")
    else:
        holder = path.parent
    if not holder.is_dir():
        raise ConfigError(f"cannot write '{path}': '{holder}' is not a directory")
    return path


def _out_file(ctx, param, value):
    """--out callback: the file is checked while the options are parsed."""
    return value if value is None else _writable(value)


@click.group()
def main():
    """Steady periodic gravity water waves on finite depth."""


@main.command()
@_config_options
@click.option("--n-max", type=int, default=5, show_default=True,
              help="Largest mode for which to report the bifurcation point.")
def bifpoints(n_max, **kw):
    """Bifurcation points mu_n of the trivial solution at depth h."""
    cfg = _build_config(**kw, trace=False)
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
@_config_options
@click.option("--modes", type=int, default=None, help="Cosine modes N.")
@click.option("--branch", multiple=True, help="Branch spec, e.g. C1 or C5+.")
@click.option("--amplitude-max", type=float, default=None)
@click.option("--step", type=float, default=None, help="Initial amplitude step.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
def trace(**kw):
    """Trace branches and write per-branch tables plus an events file."""
    cfg = _build_config(**kw)
    _writable(cfg.outdir, directory=True)
    if not cfg.branches:
        click.echo("no branches requested", err=True)
        sys.exit(EXIT_OK)
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
    click.echo(str(bio.write_events(traced, cfg.outdir, cfg.depth)))
    hard_failure = any(e.kind == "hard_failure" for b in traced for e in b.events)
    sys.exit(EXIT_NUMERICAL if hard_failure else EXIT_OK)


def _read_branch(path) -> bio.BranchData:
    try:
        return bio.read_branch(path)
    except OSError as exc:  # a missing file, or a directory
        raise ConfigError(f"cannot read '{exc.filename or path}': {exc.strerror}")
    except bio.BranchFormatError as exc:
        raise ConfigError(str(exc))


def _select_point(data: bio.BranchData, selector: str):
    n = len(data.solutions)
    if not n:
        raise ConfigError(
            f"branch {data.label} has no solution sidecar {data.label}.solutions.npy; "
            "re-run trace first"
        )
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
@click.argument("branch_file", type=click.Path())
@click.option("--point", "selector", default="endpoint", show_default=True,
              help="Point selector: index, 'endpoint', or 'mu=VALUE'.")
@click.option("--samples", "M", type=click.IntRange(min=1), default=None,
              help="Surface sample count (default 4N).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None, callback=_out_file)
def profile(branch_file, selector, M, fmt, out):
    """Reconstruct the free-surface profile of one stored solution."""
    data = _read_branch(branch_file)
    idx = _select_point(data, selector)
    if out is None:
        out = _writable(Path(branch_file).with_suffix(f".profile{idx}.{fmt}"))
    pt = data.point(idx)
    try:
        prof = surface_curve(pt.coeffs, pt.mu, data.depth, M=M)
    except DomainError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    path = bio.write_profile(prof, pt, out, fmt)
    click.echo(str(path))


@main.command()
@click.argument("branch_file", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", type=click.Path(), default=None, callback=_out_file)
def rcurve(branch_file, fmt, out):
    """Emit the conformal-radius series r(sup norm) along a stored branch."""
    data = _read_branch(branch_file)
    if out is None:
        out = _writable(Path(branch_file).with_suffix(f".rcurve.{fmt}"))
    series = np.array([(row["sup_norm"], row["r"]) for row in data.table])
    path = bio.write_rcurve(series, out, fmt)
    click.echo(str(path))


@main.command()
@click.argument("branch_files", type=click.Path(), nargs=-1)
@click.option("--out", type=click.Path(), default=None, callback=_out_file,
              help="Report path (default verify_report.json next to first input).")
@click.option("--sample", type=click.IntRange(min=1), default=20, show_default=True,
              help="Points sampled per branch for the round-trip checks; "
                   "the last point is always one of them.")
def verify(branch_files, out, sample):
    """Run the invariant suite over stored branch points; nonzero exit on failure."""
    branches = [_read_branch(bf) for bf in branch_files]
    if out is None:
        where = Path(branch_files[0]).parent if branch_files else Path()
        out = _writable(where / "verify_report.json")
    if not branches:
        click.echo("no branch files given; vacuous pass", err=True)
        bio.write_report({"checks": [], "passed": True, "warning": "empty input"}, out)
        sys.exit(EXIT_OK)
    checks = []

    def record(name, branch, ok, detail):
        checks.append({"check": name, "branch": branch, "passed": bool(ok),
                       "detail": detail})

    for data in branches:
        pts = data.points
        if not pts:
            record("sidecar_present", data.label, False, "no solutions sidecar")
            continue
        # every step-th point, and always the last: the highest wave
        step = max(1, len(pts) // sample)
        sampled = pts[:-1:step] + pts[-1:]
        # a stored c_0 < -h puts r = exp(-h - c_0) above 1, where the
        # operators are not defined; such a point fails both round trips
        worst_rt = worst_mean_res = 0.0
        outside = 0
        for p in sampled:
            try:
                res_fixed = float(np.max(np.abs(residual_fixed_r(p.coeffs, p.mu, p.r))))
                res_mod = float(np.max(np.abs(residual_modified(p.coeffs, p.mu, data.depth))))
                prof = surface_curve(p.coeffs, p.mu, data.depth)
            except DomainError:
                outside += 1
                continue
            worst_rt = max(worst_rt, res_fixed, res_mod)
            worst_mean_res = max(worst_mean_res, abs(prof.mean_residual))
        record("proposition1_roundtrip", data.label, worst_rt < 1e-9 and not outside,
               {"max_residual": worst_rt, "outside_domain": outside})
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
        record("zero_mean_surface", data.label, worst_mean_res < 1e-8 and not outside,
               {"max_mean_residual": worst_mean_res, "outside_domain": outside})

    passed = all(c["passed"] for c in checks)
    bio.write_report({"checks": checks, "passed": passed}, out)
    click.echo(str(out))
    sys.exit(EXIT_OK if passed else EXIT_VERIFY)


if __name__ == "__main__":
    main()
