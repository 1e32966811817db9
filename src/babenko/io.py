"""Flat-file emission and loading of branch data, profiles and r-curves.

Tabular series go to CSV with a versioned comment header; events,
metadata and verification reports go to JSON.  All floats in these text
files are written with 17 significant digits so that files are
byte-stable across runs of the same build and round-trip exactly through
float parsing.

Each traced branch produces two files: `<label>.csv` with one summary
row per point, and the sidecar `<label>.solutions.npy`, one float64
array of rows (mu, c_0, ..., c_{N-1}) in numpy's .npy format, from which
profiles can be reconstructed bit for bit without re-solving.  The text
sidecar `<label>.solutions.csv` of format version 1 is not read.

CSV rows are formatted one `%` per block of rows, and every file is
written to a temporary file beside its path and renamed onto it, so a
reader never sees a partly written file.  A branch is read with one load
of its sidecar; the SolutionPoint of a stored row is built only when it is
asked for.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
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

FORMAT_VERSION = 2


class BranchFormatError(ValueError):
    """A branch file or its solution sidecar is not in the expected format."""


# values per `%` in the CSV writers, which bounds the argument tuple and
# the text of one block: 4096 rows of a profile's three columns
_BLOCK_VALUES = 3 * 4096


def _f(x: float) -> str:
    return "%.17g" % float(x)


def _csv_rows(row_fmt: str, rows: np.ndarray) -> Iterator[str]:
    """The rows of a 2-D float array through `row_fmt`, one `%` per block of rows.

    `tolist()` gives Python floats, so each "%.17g" field holds the bytes
    `_f` gives for the same value.
    """
    step = max(1, _BLOCK_VALUES // row_fmt.count("%"))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        yield (row_fmt * len(block)) % tuple(block.ravel().tolist())


@contextlib.contextmanager
def _write_atomic(path: Path, mode: str = "w") -> Iterator:
    """A new file beside `path`, opened in `mode` ("w" or "wb"), renamed onto `path` on exit.

    A reader sees the old file or the whole new one.  If writing or the
    rename fails, `path` keeps its old bytes and the temporary file is
    removed.  A pipe or device, such as /dev/stdout, is written in place,
    since renaming onto it would replace it.
    """
    if path.exists() and not path.is_file():
        with path.open(mode) as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = tmp.open(mode.replace("w", "x"))  # exclusive, so never another writer's file
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, doc: dict) -> None:
    with _write_atomic(path) as fh:
        fh.write(json.dumps(doc, indent=1, default=float) + "\n")


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
        _write_json(path, doc)
        written.append(path)
    elif fmt == "csv":
        path = outdir / f"{branch.label}.csv"
        header = [
            f"# babenko-branch v{FORMAT_VERSION}\n",
            f"# label={branch.label} mode={branch.mode} "
            f"parent={branch.parent} depth={_f(depth)}\n",
            "index,mu,sup_norm,mean,r,residual,event_flags\n",
        ]
        row_fmt = "%d," + "%.17g," * 5 + "%s\n"
        with _write_atomic(path) as fh:
            fh.writelines(itertools.chain(header, (
                row_fmt % (
                    row["index"], row["mu"], row["sup_norm"], row["mean"], row["r"],
                    row["residual"], row["event_flags"],
                )
                for row in rows
            )))
        written.append(path)
    else:
        raise ValueError(f"unknown output format {fmt!r}")

    if branch.points:
        spath = outdir / f"{branch.label}.solutions.npy"
        table = np.column_stack((
            [p.mu for p in branch.points], [p.coeffs for p in branch.points]
        ))
        with _write_atomic(spath, "wb") as fh:
            np.save(fh, table, allow_pickle=False)
        written.append(spath)
    return written


@dataclass
class BranchData:
    """Branch data read from a summary file plus its sidecar.

    solutions holds the sidecar as loaded, one row (mu, c_0, ..., c_{N-1})
    per point, and no rows when the branch has no sidecar.  point(i) builds
    the SolutionPoint of row i; points builds every one on first use and
    keeps the list.
    """

    label: str
    depth: float
    table: list  # summary dict per point
    solutions: np.ndarray

    def point(self, i: int) -> SolutionPoint:
        row = self.solutions[i]
        return SolutionPoint.from_solution(row[1:], row[0], self.depth)

    @cached_property
    def points(self) -> list[SolutionPoint]:
        return [self.point(i) for i in range(len(self.solutions))]

    @property
    def mus(self) -> np.ndarray:
        return np.array([row["mu"] for row in self.table])


def _parse_header_meta(line: str) -> dict:
    out = {}
    for chunk in line.lstrip("#").split():
        if "=" in chunk:
            k, _, v = chunk.partition("=")
            out[k] = v
    return out


def read_branch(path) -> BranchData:
    """Load a branch table (CSV or JSON) and, if present, its solution sidecar.

    Raises OSError when a file cannot be read, such as a missing file or a
    directory, and BranchFormatError when either file is not a well-formed
    branch file: a missing or truncated header, a row that does not parse,
    a sidecar that is not a 2-D float64 .npy array, or one whose point
    count or mu column differs from the table's.  write_branch writes both
    mu columns exactly (%.17g or the JSON repr, and the .npy bytes), so a
    sidecar left beside another run's table does not read as the same
    branch.
    """
    path = Path(path)
    try:
        label, depth, table = _read_table(path)
        sidecar = path.parent / f"{label}.solutions.npy"
        solutions = np.empty((0, 0))
        if sidecar.exists():
            solutions = _read_sidecar(sidecar)
            if len(solutions) != len(table):
                raise BranchFormatError(
                    f"{sidecar} holds {len(solutions)} points, {path} {len(table)}"
                )
            if not np.array_equal(solutions[:, 0], [row["mu"] for row in table]):
                raise BranchFormatError(f"the mu column of {sidecar} differs from {path}'s")
    except BranchFormatError:
        raise
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise BranchFormatError(f"malformed branch data for {path}: {exc!r}") from exc
    return BranchData(label=label, depth=depth, table=table, solutions=solutions)


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
        for key in ("mu", "sup_norm", "mean", "r", "residual"):
            row[key] = float(row[key])
        row["index"] = int(row["index"])
        table.append(row)
    return meta["label"], float(meta["depth"]), table


def _read_sidecar(sidecar: Path) -> np.ndarray:
    """The (mu, c_0, ..., c_{N-1}) rows of a sidecar, loaded in one call.

    np.load without pickling raises EOFError on an empty file and
    ValueError on a truncated one, a pickled object array or text.  A
    float32 or 1-D array loads, and a .npz archive loads as an NpzFile, so
    the result is checked to be a 2-D float64 array with a mu column.
    """
    with sidecar.open("rb") as fh:  # ours, so an NpzFile leaves no file open
        try:
            table = np.load(fh, allow_pickle=False)
        except (EOFError, ValueError) as exc:
            raise BranchFormatError(f"{sidecar} does not load as a plain .npy array") from exc
    if not (isinstance(table, np.ndarray) and table.dtype == np.float64
            and table.ndim == 2 and table.shape[1] >= 2):
        raise BranchFormatError(f"{sidecar} is not a 2-D float64 array of (mu, coefficients) rows")
    return table


def write_events(branches: list[Branch], outdir, depth: float) -> Path:
    """One JSON file collecting the events of every traced branch.

    Each event carries its scalar diagnostics, the numbers, bools and
    strings, such as a fold's refined, solves and factorizations; its
    arrays, such as a null vector, are left out.
    """
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
                "amplitude": ev.amplitude,
                "diagnostics": {
                    k: v for k, v in ev.diagnostics.items() if isinstance(v, (str, int, float))
                },
            }
            for b in branches
            for ev in b.events
        ],
    }
    _write_json(path, doc)
    return path


def _write_samples(path, fmt: str, meta: dict, columns: dict) -> Path:
    """Write meta, which holds "format" and "version", and named float columns.

    CSV: `# <format> v<version>`, meta as one JSON comment line, the column
    names, one row per sample.  JSON: meta plus the rows under "samples".
    """
    path = Path(path)
    table = np.column_stack(list(columns.values()))
    if fmt == "json":
        samples = [dict(zip(columns, row)) for row in table.tolist()]
        _write_json(path, {**meta, "samples": samples})
    elif fmt == "csv":
        header = [
            f"# {meta['format']} v{meta['version']}\n",
            "# " + json.dumps(meta, default=float) + "\n",
            ",".join(columns) + "\n",
        ]
        row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
        with _write_atomic(path) as fh:
            fh.writelines(itertools.chain(header, _csv_rows(row_fmt, table)))
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return path


def write_profile(profile, point: SolutionPoint, path, fmt: str = "csv") -> Path:
    """Write surface samples (t, x, y) with crest census and metadata.

    The metadata's mu and sup_norm are the point's; sup_norm is the crest
    amplitude of its cosine series, whatever the sample count.
    """
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
    return _write_samples(path, fmt, meta, {"t": profile.t, "x": profile.x, "y": profile.y})


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
    series = np.asarray(series, dtype=float)
    series = series.reshape(len(series), 2)  # an empty series may come as shape (0,)
    meta = {"format": "babenko-rcurve", "version": FORMAT_VERSION}
    if series.size:
        a_max, r_max = _r_maximum(series)
        meta.update(r_max=r_max, sup_norm_at_max=a_max)
    return _write_samples(path, fmt, meta, {"sup_norm": series[:, 0], "r": series[:, 1]})


def write_report(report: dict, path) -> Path:
    path = Path(path)
    doc = {"format": "babenko-verify", "version": FORMAT_VERSION}
    doc.update(report)
    _write_json(path, doc)
    return path
