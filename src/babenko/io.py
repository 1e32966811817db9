"""Flat-file emission and loading of branch data, profiles and r-curves.

Tabular series go to CSV with a versioned comment header; events,
metadata and verification reports go to JSON.  All floats are written
with 17 significant digits so that files are byte-stable across runs of
the same build and round-trip exactly through float parsing.

Each traced branch produces two files: `<label>.csv` with one summary
row per point, and `<label>.solutions.csv` carrying the full coefficient
vectors, from which profiles can be reconstructed without re-solving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .continuation import Branch, BranchEvent
from .solver import SolutionPoint

__all__ = [
    "FORMAT_VERSION",
    "BranchData",
    "BranchFormatError",
    "write_branch",
    "read_branch",
    "write_events",
    "write_profile",
    "write_rcurve",
    "write_report",
]

FORMAT_VERSION = 1


class BranchFormatError(ValueError):
    """A branch file or its solution sidecar is not in the expected format."""


def _f(x: float) -> str:
    return "%.17g" % float(x)


def _event_flags(branch: Branch) -> list[str]:
    """Per-point event annotations: an event is attached to the nearest point."""
    flags = [""] * len(branch.points)
    if not branch.points:
        return flags
    amps = branch.amplitudes()
    for ev in branch.events:
        i = int(np.argmin(np.abs(amps - ev.amplitude)))
        flags[i] = ev.kind if not flags[i] else flags[i] + ";" + ev.kind
    return flags


def write_branch(branch: Branch, outdir, depth: float, fmt: str = "csv") -> list[Path]:
    """Write the per-point table and the coefficient sidecar for one branch."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    flags = _event_flags(branch)
    written = []

    rows = [
        {
            "index": i,
            "a_target": p.sup_norm,
            "mu": p.mu,
            "sup_norm": p.sup_norm,
            "mean": p.mean,
            "r": p.r,
            "residual": p.residual_norm,
            "event_flags": flags[i],
        }
        for i, p in enumerate(branch.points)
    ]

    if fmt == "json":
        path = outdir / f"{branch.label}.json"
        doc = {
            "format": "babenko-branch",
            "version": FORMAT_VERSION,
            "label": branch.label,
            "mode": branch.mode,
            "parent": branch.parent,
            "depth": float(depth),
            "points": rows,
        }
        path.write_text(json.dumps(doc, indent=1, default=float) + "\n")
        written.append(path)
    elif fmt == "csv":
        path = outdir / f"{branch.label}.csv"
        with path.open("w") as fh:
            fh.write(f"# babenko-branch v{FORMAT_VERSION}\n")
            fh.write(
                f"# label={branch.label} mode={branch.mode} "
                f"parent={branch.parent} depth={_f(depth)}\n"
            )
            fh.write("index,a_target,mu,sup_norm,mean,r,residual,event_flags\n")
            for row in rows:
                fh.write(
                    "%d,%s,%s,%s,%s,%s,%s,%s\n"
                    % (
                        row["index"], _f(row["a_target"]), _f(row["mu"]),
                        _f(row["sup_norm"]), _f(row["mean"]), _f(row["r"]),
                        _f(row["residual"]), row["event_flags"],
                    )
                )
        written.append(path)
    else:
        raise ValueError(f"unknown output format {fmt!r}")

    if branch.points:
        N = branch.points[0].coeffs.size
        spath = outdir / f"{branch.label}.solutions.csv"
        with spath.open("w") as fh:
            fh.write(f"# babenko-solutions v{FORMAT_VERSION}\n")
            fh.write(f"# label={branch.label} depth={_f(depth)} N={N}\n")
            fh.write("index,mu," + ",".join(f"c{k}" for k in range(N)) + "\n")
            for i, p in enumerate(branch.points):
                fh.write(
                    "%d,%s," % (i, _f(p.mu))
                    + ",".join(_f(c) for c in p.coeffs)
                    + "\n"
                )
        written.append(spath)
    return written


@dataclass
class BranchData:
    """Branch data reconstructed from a summary file plus its sidecar."""

    label: str
    depth: float
    table: list  # summary dict per point
    points: list  # SolutionPoint per point, when the sidecar was present

    @property
    def mus(self) -> np.ndarray:
        return np.array([row["mu"] for row in self.table])

    @property
    def sup_norms(self) -> np.ndarray:
        return np.array([row["sup_norm"] for row in self.table])


def _parse_header_meta(line: str) -> dict:
    out = {}
    for chunk in line.lstrip("#").split():
        if "=" in chunk:
            k, _, v = chunk.partition("=")
            out[k] = v
    return out


def read_branch(path) -> BranchData:
    """Load a branch table (CSV or JSON) and, if present, its solution sidecar.

    Raises BranchFormatError when either file is not a well-formed branch
    file: a missing or truncated header, a row that does not parse, a
    sidecar row whose length does not match its N, or a sidecar whose
    point count differs from the table's.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"branch file not found: {path}")
    try:
        label, depth, table = _read_table(path)
        sidecar = path.parent / f"{label}.solutions.csv"
        points = []
        if sidecar.exists():
            points = _read_sidecar(sidecar, depth)
            if len(points) != len(table):
                raise BranchFormatError(
                    f"{sidecar} holds {len(points)} points, {path} {len(table)}"
                )
    except BranchFormatError:
        raise
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise BranchFormatError(f"malformed branch data for {path}: {exc!r}") from exc
    return BranchData(label=label, depth=depth, table=table, points=points)


def _read_table(path: Path) -> tuple[str, float, list]:
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict) or doc.get("format") != "babenko-branch":
            raise BranchFormatError(f"{path} is not a branch file")
        return doc["label"], float(doc["depth"]), doc["points"]
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# babenko-branch"):
        raise BranchFormatError(f"{path} is not a branch file")
    meta = _parse_header_meta(lines[1])
    cols = lines[2].split(",")
    table = []
    for line in lines[3:]:
        if not line:
            continue
        row = dict(zip(cols, line.split(",")))
        for key in ("a_target", "mu", "sup_norm", "mean", "r", "residual"):
            row[key] = float(row[key])
        row["index"] = int(row["index"])
        table.append(row)
    return meta["label"], float(meta["depth"]), table


def _read_sidecar(sidecar: Path, depth: float) -> list[SolutionPoint]:
    slines = sidecar.read_text().splitlines()
    N = int(_parse_header_meta(slines[1])["N"])
    points = []
    for line in slines[3:]:
        if not line:
            continue
        vals = line.split(",")
        if len(vals) != N + 2:
            raise BranchFormatError(
                f"{sidecar}: row has {len(vals) - 2} coefficients, expected N={N}"
            )
        coeffs = np.array([float(v) for v in vals[2:]])
        points.append(
            SolutionPoint.from_solution(
                coeffs, float(vals[1]), depth,
                residual_norm=float("nan"), iterations=0,
            )
        )
    return points


def write_events(branches: list[Branch], outdir, depth: float) -> Path:
    """One JSON file collecting the events of every traced branch."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "events.json"
    doc = {
        "format": "babenko-events",
        "version": FORMAT_VERSION,
        "depth": float(depth),
        "events": [
            {
                "branch": b.label,
                "kind": ev.kind,
                "mu": ev.mu,
                "sup_norm": ev.sup_norm,
                "amplitude": ev.amplitude,
            }
            for b in branches
            for ev in b.events
        ],
    }
    path.write_text(json.dumps(doc, indent=1, default=float) + "\n")
    return path


def write_profile(profile, point: SolutionPoint, path, fmt: str = "csv") -> Path:
    """Write surface samples (t, x, y) with crest census and metadata.

    The metadata's mu and sup_norm are the point's; sup_norm is the crest
    amplitude of its cosine series, whatever the sample count.
    """
    path = Path(path)
    meta = {
        "format": "babenko-profile",
        "version": FORMAT_VERSION,
        "mu": float(point.mu),
        "sup_norm": float(point.sup_norm),
        "r": profile.r,
        "depth": profile.depth,
        "monotone_x": profile.monotone_x,
        "mean_residual": profile.mean_residual,
        "crest_census": [
            {"x": x, "height": h} for x, h in profile.crest_census
        ],
        "n_highest": profile.n_highest(),
    }
    if fmt == "json":
        meta["samples"] = [
            {"t": float(t), "x": float(x), "y": float(y)}
            for t, x, y in zip(profile.t, profile.x, profile.y)
        ]
        path.write_text(json.dumps(meta, indent=1, default=float) + "\n")
    elif fmt == "csv":
        with path.open("w") as fh:
            fh.write(f"# babenko-profile v{FORMAT_VERSION}\n")
            fh.write("# " + json.dumps(meta, default=float) + "\n")
            fh.write("t,x,y\n")
            for t, x, y in zip(profile.t, profile.x, profile.y):
                fh.write(f"{_f(t)},{_f(x)},{_f(y)}\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return path


def _r_maximum(series: np.ndarray) -> tuple[float, float]:
    """(sup_norm, r) at the maximum of r along an (sup_norm, r) series.

    An interior maximum is the vertex of the parabola r(a) through the
    recorded point of largest r and its two neighbours, so the reported
    location does not move with the continuation step.  A maximum at an
    end of the series, or neighbours whose amplitudes are not strictly
    monotone, keeps the recorded point.
    """
    a, r = series[:, 0], series[:, 1]
    i = int(np.argmax(r))
    if not 0 < i < len(r) - 1 or (a[i + 1] - a[i]) * (a[i] - a[i - 1]) <= 0:
        return float(a[i]), float(r[i])
    # Newton form r = r[i-1] + d0 (x - a[i-1]) + c2 (x - a[i-1]) (x - a[i]);
    # argmax takes the first of equal values, so r[i-1] < r[i] >= r[i+1]
    # and with monotone amplitudes c2 < 0
    d0 = (r[i] - r[i - 1]) / (a[i] - a[i - 1])
    d1 = (r[i + 1] - r[i]) / (a[i + 1] - a[i])
    c2 = (d1 - d0) / (a[i + 1] - a[i - 1])
    x = 0.5 * (a[i - 1] + a[i]) - 0.5 * d0 / c2
    peak = r[i - 1] + d0 * (x - a[i - 1]) + c2 * (x - a[i - 1]) * (x - a[i])
    return float(x), float(peak)


def write_rcurve(series: np.ndarray, path, fmt: str = "csv") -> Path:
    """Write an (sup_norm, r) series; metadata records the interpolated maximum."""
    path = Path(path)
    series = np.asarray(series, dtype=float)
    if series.size:
        a_max, r_max = _r_maximum(series)
        meta = {
            "format": "babenko-rcurve",
            "version": FORMAT_VERSION,
            "r_max": r_max,
            "sup_norm_at_max": a_max,
        }
    else:
        meta = {"format": "babenko-rcurve", "version": FORMAT_VERSION}
    if fmt == "json":
        meta["samples"] = [{"sup_norm": a, "r": r} for a, r in series]
        path.write_text(json.dumps(meta, indent=1, default=float) + "\n")
    elif fmt == "csv":
        with path.open("w") as fh:
            fh.write(f"# babenko-rcurve v{FORMAT_VERSION}\n")
            fh.write("# " + json.dumps(meta, default=float) + "\n")
            fh.write("sup_norm,r\n")
            for a, r in series:
                fh.write(f"{_f(a)},{_f(r)}\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return path


def write_report(report: dict, path) -> Path:
    path = Path(path)
    doc = {"format": "babenko-verify", "version": FORMAT_VERSION}
    doc.update(report)
    path.write_text(json.dumps(doc, indent=1, default=float) + "\n")
    return path
