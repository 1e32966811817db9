import json
import math
import os
import stat

import numpy as np
import pytest

from babenko import io
from babenko.continuation import Branch, BranchEvent
from babenko.geometry import surface_curve
from babenko.io import (
    BranchData,
    BranchFormatError,
    read_branch,
    write_branch,
    write_events,
    write_profile,
    write_rcurve,
    write_report,
)

from conftest import H


class TestBranchRoundTrip:
    def test_csv_round_trip(self, c1_coarse, tmp_path):
        paths = write_branch(c1_coarse, tmp_path, H, fmt="csv")
        assert [p.name for p in paths] == ["C1.csv", "C1.solutions.npy"]
        data = read_branch(paths[0])
        assert isinstance(data, BranchData)
        assert data.label == "C1"
        assert data.depth == H  # 17 significant digits round-trip exactly
        assert np.array_equal(data.mus, c1_coarse.mus())
        assert np.array_equal([row["sup_norm"] for row in data.table], c1_coarse.amplitudes())

    @pytest.mark.parametrize("fixture", ["c1_coarse", "c1_full", "c2_full", "c5_bundle"])
    def test_sidecar_restores_solution_points(self, request, tmp_path, fixture):
        # N = 64, 512, 1024, and every C5@512 branch: the .npy sidecar
        # holds each mu and coefficient bit for bit
        traced = request.getfixturevalue(fixture)
        if fixture == "c5_bundle":
            branches = [traced["parent"], *traced["secondaries"]]
        else:
            branches = [traced]
        for branch in branches:
            data = read_branch(write_branch(branch, tmp_path, H)[0])
            assert data.solutions.dtype == np.float64
            assert len(data.points) == len(branch.points)
            for got, want in zip(data.points, branch.points):
                assert got.mu == want.mu
                assert got.r == pytest.approx(want.r, abs=1e-15)
                assert np.array_equal(got.coeffs, want.coeffs)

    def test_json_round_trip(self, c1_coarse, tmp_path):
        paths = write_branch(c1_coarse, tmp_path, H, fmt="json")
        data = read_branch(paths[0])
        assert data.label == "C1"
        assert np.array_equal(data.mus, c1_coarse.mus())
        assert len(data.points) == len(c1_coarse.points)

    def test_output_is_byte_stable(self, c1_coarse, tmp_path):
        p1 = write_branch(c1_coarse, tmp_path / "a", H)
        p2 = write_branch(c1_coarse, tmp_path / "b", H)
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("block_values", [io._BLOCK_VALUES, 7])
    def test_rows_match_per_value_formatting(self, c1_coarse, tmp_path, monkeypatch,
                                             block_values):
        # the writers format a block of rows with one `%`; the oracle formats
        # each value on its own with "%.17g" % float(value); 7 values per
        # block puts two profile rows in each block
        monkeypatch.setattr(io, "_BLOCK_VALUES", block_values)

        def f(x):
            return "%.17g" % float(x)

        def body(path):
            return path.read_text().split("\n", 3)[3]

        branch = Branch(label="C1", mode=1, points=list(c1_coarse.points))
        target = branch.points[3]
        branch.events.append(
            BranchEvent("turning_point", target.mu, target.sup_norm)
        )
        table = write_branch(branch, tmp_path, H)[0]
        assert body(table) == "".join(
            f"{i},{f(p.mu)},{f(p.sup_norm)},{f(p.mean)},{f(p.r)},"
            f"{f(p.residual_norm)},{'turning_point' if i == 3 else ''}\n"
            for i, p in enumerate(branch.points)
        )
        pt = branch.last
        for M in (None, 16384):
            prof = surface_curve(pt.coeffs, pt.mu, H, M=M)
            path = write_profile(prof, pt, tmp_path / f"p{M}.csv")
            assert body(path) == "".join(
                f"{f(t)},{f(x)},{f(y)}\n" for t, x, y in zip(prof.t, prof.x, prof.y)
            )

    def test_event_flags_attach_to_nearest_point(self, c1_coarse, tmp_path):
        branch = Branch(label="flagged", mode=1, points=list(c1_coarse.points))
        target = branch.points[3]
        branch.events.append(
            BranchEvent("turning_point", target.mu, target.sup_norm)
        )
        path = write_branch(branch, tmp_path, H)[0]
        data = read_branch(path)
        assert data.table[3]["event_flags"] == "turning_point"
        assert all(row["event_flags"] == "" for i, row in enumerate(data.table) if i != 3)

    def test_unknown_format_rejected(self, c1_coarse, tmp_path):
        with pytest.raises(ValueError):
            write_branch(c1_coarse, tmp_path, H, fmt="parquet")


class TestBranchReadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_branch(tmp_path / "nope.csv")

    def test_foreign_csv_rejected(self, tmp_path):
        bad = tmp_path / "other.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_branch(bad)

    def test_foreign_json_rejected(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            read_branch(bad)

    @pytest.mark.parametrize("edit", ["drop_last_row", "repeat_last_row"])
    def test_sidecar_point_count_must_match_table(self, c1_coarse, tmp_path, edit):
        paths = write_branch(c1_coarse, tmp_path, H)
        rows = np.load(paths[1])
        np.save(paths[1], rows[:-1] if edit == "drop_last_row" else np.vstack([rows, rows[-1:]]))
        with pytest.raises(BranchFormatError, match="points"):
            read_branch(paths[0])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sidecar_mu_must_match_table(self, c1_coarse, tmp_path, fmt):
        # one table mu moved by one unit in the last place
        paths = write_branch(c1_coarse, tmp_path, H, fmt=fmt)
        assert read_branch(paths[0]).solutions.shape[0] == len(c1_coarse.points)
        mu = c1_coarse.points[2].mu
        shifted = np.nextafter(mu, np.inf)
        if fmt == "json":
            doc = json.loads(paths[0].read_text())
            doc["points"][2]["mu"] = shifted
            paths[0].write_text(json.dumps(doc))
        else:
            text = paths[0].read_text()
            assert text.count(",%.17g," % mu) == 1
            paths[0].write_text(text.replace(",%.17g," % mu, ",%.17g," % shifted))
        with pytest.raises(BranchFormatError, match="mu column"):
            read_branch(paths[0])

    def test_table_without_sidecar_loads(self, c1_coarse, tmp_path):
        paths = write_branch(c1_coarse, tmp_path, H)
        paths[1].unlink()
        data = read_branch(paths[0])
        assert data.points == []
        assert len(data.table) == len(c1_coarse.points)


class TestEventsFile:
    def test_events_json(self, c1_coarse, tmp_path):
        branch = Branch(label="C1", mode=1, points=list(c1_coarse.points))
        branch.events.append(BranchEvent("extreme_termination", 0.7, 0.35))
        path = write_events([branch], tmp_path, H)
        doc = json.loads(path.read_text())
        assert doc["format"] == "babenko-events"
        assert doc["depth"] == pytest.approx(H)
        assert doc["events"] == [
            {"branch": "C1", "kind": "extreme_termination", "mu": 0.7,
             "amplitude": 0.35, "diagnostics": {}}
        ]

    def test_events_keep_scalar_diagnostics(self, c1_full, tmp_path):
        # the fold of C1@512 (C1@64 has none: its mu rises to the end);
        # its fit, and a bifurcation's null vector and coefficients, are
        # arrays and stay out
        branch = Branch(label="C1", mode=1, events=list(c1_full.events))
        branch.events.append(BranchEvent("secondary_bifurcation", 0.7, 0.3, diagnostics={
            "class": 1, "sigma_min": 1e-13, "solves": 5, "located": True,
            "null_vector_coeffs": np.ones(4), "w_coeffs": np.ones(4)}))
        doc = json.loads(write_events([branch], tmp_path, H).read_text())
        fold = next(e for e in c1_full.events if e.kind == "turning_point")
        got = {e["kind"]: e["diagnostics"] for e in doc["events"]}
        assert got["turning_point"] == {
            k: fold.diagnostics[k] for k in ("index", "refined", "solves", "factorizations")}
        assert got["turning_point"]["refined"] is True
        assert set(got["extreme_termination"]) == {
            "stagnation", "reason", "stop_ratio", "location_solves"}
        assert got["secondary_bifurcation"] == {
            "class": 1, "sigma_min": 1e-13, "solves": 5, "located": True}


class TestProfileAndCurves:
    def test_profile_csv(self, c1_coarse, tmp_path):
        pt = c1_coarse.last
        prof = surface_curve(pt.coeffs, pt.mu, H)
        path = write_profile(prof, pt, tmp_path / "prof.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# babenko-profile")
        meta = json.loads(lines[1].lstrip("# "))
        assert meta["mu"] == pt.mu
        assert meta["sup_norm"] == pt.sup_norm
        assert meta["n_highest"] == 1
        assert lines[2] == "t,x,y"
        assert len(lines) == 3 + prof.t.size
        t0, x0, y0 = (float(v) for v in lines[3].split(","))
        assert t0 == prof.t[0] and x0 == prof.x[0] and y0 == prof.y[0]
        # an odd sample count misses the crest at t = 0; the metadata still
        # holds the point's amplitude, not the largest sample
        odd = surface_curve(pt.coeffs, pt.mu, H, M=129)
        lines = write_profile(odd, pt, tmp_path / "odd.csv").read_text().splitlines()
        assert json.loads(lines[1].lstrip("# "))["sup_norm"] == pt.sup_norm
        assert np.max(np.abs(odd.y)) < pt.sup_norm - 1e-5

    def test_profile_json(self, c1_coarse, tmp_path):
        pt = c1_coarse.last
        prof = surface_curve(pt.coeffs, pt.mu, H)
        path = write_profile(prof, pt, tmp_path / "prof.json", fmt="json")
        doc = json.loads(path.read_text())
        assert len(doc["samples"]) == prof.t.size
        assert doc["crest_census"][0]["height"] == pytest.approx(prof.crest_census[0][1])

    def test_rcurve_metadata_records_maximum(self, c1_coarse, tmp_path):
        series = np.array([(p.sup_norm, p.r) for p in c1_coarse.points])
        path = write_rcurve(series, tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        meta = json.loads(lines[1].lstrip("# "))
        imax = int(np.argmax(series[:, 1]))
        assert meta["r_max"] == series[imax, 1]
        assert meta["sup_norm_at_max"] == series[imax, 0]
        assert len(lines) == 3 + len(series)

    def test_rcurve_maximum_is_interpolated(self, c1_full, tmp_path):
        # the recorded point of largest r sits up to 4e-3 from the reference
        # maximum at a = 0.33433; the parabola through it and its neighbours
        # does not depend on where the continuation steps fell
        series = np.array([(p.sup_norm, p.r) for p in c1_full.points])
        lines = write_rcurve(series, tmp_path / "r.csv").read_text().splitlines()
        meta = json.loads(lines[1].lstrip("# "))
        assert meta["sup_norm_at_max"] == pytest.approx(0.33433, abs=1e-3)
        assert meta["r_max"] >= series[:, 1].max()

    def test_rcurve_json(self, c1_coarse, tmp_path):
        series = np.array([(p.sup_norm, p.r) for p in c1_coarse.points])
        doc = json.loads(
            write_rcurve(series, tmp_path / "r.json", fmt="json").read_text()
        )
        assert len(doc["samples"]) == len(series)

    def test_bad_formats(self, c1_coarse, tmp_path):
        pt = c1_coarse.last
        prof = surface_curve(pt.coeffs, pt.mu, H)
        with pytest.raises(ValueError):
            write_profile(prof, pt, tmp_path / "p.x", fmt="x")
        with pytest.raises(ValueError):
            write_rcurve(np.zeros((2, 2)), tmp_path / "r.x", fmt="x")


def _write_one_kind(kind, branch, outdir, k):
    """Write one kind of output file; k = 0 and k = 1 give different contents."""
    pt = branch.points[-1 - k]
    if kind == "branch":
        return write_branch(branch, outdir, H + k)
    if kind == "events":
        return [write_events([branch], outdir, H + k)]
    if kind == "profile":
        return [write_profile(surface_curve(pt.coeffs, pt.mu, H), pt, outdir / "p.csv")]
    if kind == "rcurve":
        series = np.array([(p.sup_norm, p.r) for p in branch.points])
        return [write_rcurve(series[k:], outdir / "r.csv")]
    return [write_report({"passed": bool(k)}, outdir / "v.json")]


@pytest.mark.parametrize("kind, target", [
    ("branch", "C1.csv"), ("branch", "C1.solutions.npy"), ("events", "events.json"),
    ("profile", "p.csv"), ("rcurve", "r.csv"), ("report", "v.json"),
])
def test_failed_write_keeps_old_file(c1_coarse, tmp_path, monkeypatch, kind, target):
    written = _write_one_kind(kind, c1_coarse, tmp_path, 0)
    old = {p.name: p.read_bytes() for p in written}
    replace = os.replace

    def fail_on_target(src, dst):
        if os.path.basename(dst) == target:
            raise OSError("no space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_target)
    with pytest.raises(OSError, match="no space"):
        _write_one_kind(kind, c1_coarse, tmp_path, 1)
    assert (tmp_path / target).read_bytes() == old[target]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(old)


def test_write_to_a_pipe_goes_through_it(tmp_path):
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so opening to write cannot block
    try:
        write_report({"passed": True}, fifo)
        text = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert json.loads(text)["passed"] is True
    assert stat.S_ISFIFO(fifo.stat().st_mode)


class TestReport:
    def test_report_written_with_format_tag(self, tmp_path):
        path = write_report({"passed": True, "checks": {"a": 1.0}}, tmp_path / "v.json")
        doc = json.loads(path.read_text())
        assert doc["format"] == "babenko-verify"
        assert doc["passed"] is True
        assert doc["checks"] == {"a": 1.0}
