import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import babenko
from babenko import cli
from babenko.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VERIFY, main
from babenko.solver import SolutionPoint

from conftest import H


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def traced_dir(tmp_path_factory):
    """A small C1 trace shared by the read-side commands."""
    outdir = tmp_path_factory.mktemp("traced")
    res = CliRunner().invoke(main, [
        "trace", "--branch", "C1", "--modes", "32",
        "--amplitude-max", "0.06", "--out", str(outdir),
    ])
    assert res.exit_code == EXIT_OK, res.output
    return outdir


@pytest.fixture()
def table_without_sidecar(traced_dir, tmp_path):
    """A copy of the traced C1 table whose solution sidecar is gone."""
    path = tmp_path / "C1.csv"
    path.write_text((traced_dir / "C1.csv").read_text())
    return path


class TestBifpoints:
    def test_default_table(self, runner):
        res = runner.invoke(main, ["bifpoints"])
        assert res.exit_code == EXIT_OK
        lines = res.output.strip().splitlines()
        assert lines[0] == "n,mu"
        assert len(lines) == 6
        for line, n in zip(lines[1:], range(1, 6)):
            got_n, got_mu = line.split(",")
            assert int(got_n) == n
            assert float(got_mu) == pytest.approx(math.tanh(n * H) / n, abs=1e-15)

    def test_json_format_and_depth_flag(self, runner):
        res = runner.invoke(main, ["bifpoints", "--format", "json",
                                   "--depth", "1.0", "--n-max", "2"])
        assert res.exit_code == EXIT_OK
        doc = json.loads(res.output)
        assert doc["depth"] == 1.0
        assert doc["points"][0]["mu"] == pytest.approx(math.tanh(1.0))

    def test_trace_options_are_usage_errors(self, runner):
        # bifpoints reads only --config, --depth, --format and --n-max
        for args in (["--modes", "64"], ["--branch", "C1"], ["--amplitude-max", "0.1"],
                     ["--step", "0.01"], ["--out", "runs"]):
            res = runner.invoke(main, ["bifpoints", *args])
            assert res.exit_code == 2, args
            assert "No such option" in res.output

    def test_bad_depth_is_config_error(self, runner):
        for depth in ("-1", "inf"):
            res = runner.invoke(main, ["bifpoints", "--depth", depth])
            assert res.exit_code == EXIT_CONFIG, depth

    def test_config_file_gives_depth_and_format_only(self, runner, tmp_path):
        # bifpoints reads and checks the file's depth and format alone; trace,
        # which reads modes, refuses the same file
        cfgfile = tmp_path / "m.json"
        cfgfile.write_text(json.dumps({"modes": 100}))
        res = runner.invoke(main, ["bifpoints", "--config", str(cfgfile)])
        assert res.exit_code == EXIT_OK, res.output
        res = runner.invoke(main, ["trace", "--config", str(cfgfile)])
        assert res.exit_code == EXIT_CONFIG
        cfgfile.write_text(json.dumps({"modes": 100, "depth": 1.0, "format": "json"}))
        res = runner.invoke(main, ["bifpoints", "--config", str(cfgfile)])
        assert res.exit_code == EXIT_OK, res.output
        assert json.loads(res.output)["depth"] == 1.0
        for doc in ({"depth": -1}, {"format": "xml"}):
            cfgfile.write_text(json.dumps(doc))
            res = runner.invoke(main, ["bifpoints", "--config", str(cfgfile)])
            assert res.exit_code == EXIT_CONFIG, doc


class TestTrace:
    def test_writes_branch_and_events(self, traced_dir):
        assert (traced_dir / "C1.csv").exists()
        assert (traced_dir / "C1.solutions.npy").exists()
        assert (traced_dir / "events.json").exists()

    def test_navigation_writes_each_secondary(self, runner, tmp_path):
        res = runner.invoke(main, ["trace", "--branch", "C3+", "--modes", "64",
                                   "--out", str(tmp_path)])
        assert res.exit_code == EXIT_OK, res.output
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "C3.csv", "C3.solutions.npy", "C32.csv", "C32.solutions.npy",
            "C33.csv", "C33.solutions.npy", "events.json"]
        events = json.loads((tmp_path / "events.json").read_text())["events"]
        found = [e for e in events if e["kind"] == "secondary_bifurcation"]
        assert [e["branch"] for e in found] == ["C3"]
        assert found[0]["diagnostics"]["class"] == 1

    def test_no_branches_is_noop(self, runner):
        res = runner.invoke(main, ["trace"])
        assert res.exit_code == EXIT_OK

    def test_bad_branch_spec(self, runner):
        res = runner.invoke(main, ["trace", "--branch", "Cfoo"])
        assert res.exit_code == EXIT_CONFIG

    def test_bad_modes_is_config_error(self, runner):
        res = runner.invoke(main, ["trace", "--modes", "100"])
        assert res.exit_code == EXIT_CONFIG
        assert "modes must be a power of two" in res.output

    def test_config_file_drives_run(self, runner, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "modes": 32,
            "format": "json",
            "outdir": str(tmp_path / "out"),
            "branches": [{"mode": 2, "amplitude_max": 0.05}],
        }))
        res = runner.invoke(main, ["trace", "--config", str(cfgfile)])
        assert res.exit_code == EXIT_OK, res.output
        assert (tmp_path / "out" / "C2.json").exists()

    def test_flags_override_config_file(self, runner, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"modes": 7}))  # invalid on its own
        res = runner.invoke(main, [
            "trace", "--config", str(cfgfile), "--modes", "32",
            "--branch", "1", "--amplitude-max", "0.03",
            "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == EXIT_OK, res.output

    def test_outdir_from_environment(self, runner, tmp_path):
        env = {"BABENKO_OUTDIR": str(tmp_path / "envout")}
        res = runner.invoke(main, [
            "trace", "--branch", "C1", "--modes", "32",
            "--amplitude-max", "0.03",
        ], env=env)
        assert res.exit_code == EXIT_OK, res.output
        assert (tmp_path / "envout" / "C1.csv").exists()

    def test_seed_failure_exits_numerical(self, runner, tmp_path):
        # at depth 1e-3 the limiting height is far below the seed amplitude
        res = runner.invoke(main, [
            "trace", "--branch", "C1", "--modes", "16", "--depth", "0.001",
            "--out", str(tmp_path),
        ])
        assert res.exit_code == EXIT_NUMERICAL

    @pytest.mark.parametrize("extra, doc", [
        (["--step", "0.5"], None),
        (["--step", "0"], None),
        ([], {"residual_tol": 0}),
        (["--amplitude-max", "nan"], None),
        (["--amplitude-max", "0"], None),
        (["--amplitude-max", "-1"], None),
        ([], {"branches": [{"mode": 1, "amplitude_max": "x"}]}),
        (["--depth", "inf"], None),
    ], ids=["step-above-max", "step-zero", "residual-tol-zero", "amplitude-max-nan",
            "amplitude-max-zero", "amplitude-max-negative", "amplitude-max-not-a-number",
            "depth-inf"])
    def test_bad_solver_settings_are_config_errors(self, runner, tmp_path, extra, doc):
        # the branch and its cap come from the config file, so that both a
        # flag and the file's own fields can replace the cap
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"branches": [{"mode": 1, "amplitude_max": 0.03}], **(doc or {})}
        ))
        args = ["trace", "--modes", "32", "--config", str(cfgfile), "--out", str(tmp_path)]
        res = runner.invoke(main, args + extra)
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)

    @pytest.mark.parametrize("doc", [
        {"depth": "x"},
        [1, 2],
        {"branches": [{"mode": "x"}]},
        # values that convert, but to something else: N = 32, depth 1.0,
        # mode 2, the branch "5" read as a list of characters, and a
        # navigated branch
        {"modes": 32.9},
        {"depth": True},
        {"modes": 32, "branches": [{"mode": 2.7, "amplitude_max": 0.03}]},
        {"modes": 32, "branches": "5"},
        {"modes": 32, "branches": [{"mode": 1, "amplitude_max": 0.03, "navigate": "false"}]},
        {"branches": [5]},
    ], ids=["depth-not-a-number", "not-an-object", "branch-mode-not-a-number",
            "modes-not-an-integer", "depth-a-boolean", "branch-mode-not-an-integer",
            "branches-a-string", "navigate-a-string", "branch-not-an-object"])
    def test_malformed_config_is_config_error(self, runner, tmp_path, doc):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(doc))
        res = runner.invoke(main, ["trace", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)

    @pytest.mark.parametrize("args, doc", [
        (["--branch", "C300", "--modes", "256"], None),
        ([], {"modes": 64, "branches": [{"mode": 64}]}),
    ], ids=["flag", "config-file"])
    def test_branch_mode_not_below_modes_is_config_error(self, runner, tmp_path, args, doc):
        # the seed sets coefficient n, which a grid of N modes does not hold
        if doc is not None:
            cfgfile = tmp_path / "run.json"
            cfgfile.write_text(json.dumps(doc))
            args = ["--config", str(cfgfile)]
        res = runner.invoke(main, ["trace", *args, "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)
        assert "1 <= mode < modes" in res.output
        assert not (tmp_path / "o").exists()

    def test_unreadable_config(self, runner, tmp_path):
        res = runner.invoke(main, ["trace", "--config", str(tmp_path / "missing.json")])
        assert res.exit_code == EXIT_CONFIG


class TestProfile:
    def test_endpoint_profile(self, runner, traced_dir):
        res = runner.invoke(main, ["profile", str(traced_dir / "C1.csv")])
        assert res.exit_code == EXIT_OK, res.output
        out = res.output.strip().splitlines()[-1]
        lines = open(out).read().splitlines()
        assert lines[0].startswith("# babenko-profile")
        meta = json.loads(lines[1].lstrip("# "))
        assert meta["n_highest"] == 1

    def test_mu_selector(self, runner, traced_dir, tmp_path):
        out = tmp_path / "p.json"
        res = runner.invoke(main, [
            "profile", str(traced_dir / "C1.csv"),
            "--point", "mu=0.557", "--format", "json", "--out", str(out),
        ])
        assert res.exit_code == EXIT_OK, res.output
        doc = json.loads(out.read_text())
        assert doc["mu"] == pytest.approx(0.557, abs=2e-3)

    def test_bad_selector(self, runner, traced_dir):
        res = runner.invoke(main, ["profile", str(traced_dir / "C1.csv"),
                                   "--point", "crest"])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("selector", ["mu=abc", "mu=", "mu=nan", "mu=inf"])
    def test_bad_mu_selector(self, runner, traced_dir, selector):
        res = runner.invoke(main, ["profile", str(traced_dir / "C1.csv"),
                                   "--point", selector])
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)

    def test_index_out_of_range(self, runner, traced_dir):
        res = runner.invoke(main, ["profile", str(traced_dir / "C1.csv"),
                                   "--point", "9999"])
        assert res.exit_code == EXIT_CONFIG

    def test_missing_sidecar_is_config_error(self, runner, table_without_sidecar):
        res = runner.invoke(main, ["profile", str(table_without_sidecar)])
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)
        assert "no solution sidecar" in res.output

    def test_nonpositive_samples(self, runner, traced_dir):
        res = runner.invoke(main, ["profile", str(traced_dir / "C1.csv"),
                                   "--samples", "-5"])
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)


def _count_point_builds(monkeypatch) -> list:
    """Spy on SolutionPoint.from_solution; returns the list of recorded calls."""
    calls, build = [], SolutionPoint.from_solution

    def spy(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(SolutionPoint, "from_solution", spy)
    return calls


@pytest.mark.parametrize("args, builds", [
    (["profile", "--point", "3"], 1),
    (["rcurve"], 0),
], ids=["profile", "rcurve"])
def test_postprocessing_builds_only_the_points_it_uses(
        runner, traced_dir, tmp_path, monkeypatch, args, builds):
    calls = _count_point_builds(monkeypatch)
    res = runner.invoke(main, [args[0], str(traced_dir / "C1.csv"), *args[1:],
                               "--out", str(tmp_path / "out.csv")])
    assert res.exit_code == EXIT_OK, res.output
    assert len(calls) == builds


class TestRcurve:
    def test_series_written(self, runner, traced_dir, tmp_path):
        out = tmp_path / "r.csv"
        res = runner.invoke(main, ["rcurve", str(traced_dir / "C1.csv"),
                                   "--out", str(out)])
        assert res.exit_code == EXIT_OK, res.output
        lines = out.read_text().splitlines()
        meta = json.loads(lines[1].lstrip("# "))
        # small amplitudes: r close to the trivial value exp(-h)
        assert meta["r_max"] == pytest.approx(math.exp(-H), abs=5e-3)

    def test_default_out_beside_table(self, runner, table_without_sidecar):
        # the series comes from the table alone, so no sidecar is needed
        res = runner.invoke(main, ["rcurve", str(table_without_sidecar)])
        assert res.exit_code == EXIT_OK, res.output
        out = table_without_sidecar.with_name("C1.rcurve.csv")
        assert res.output.strip() == str(out)
        assert out.read_text().startswith("# babenko-rcurve v2\n")


def _truncated_header(src, dst):
    (dst / "C1.csv").write_text("# babenko-branch v2\n")


def _not_a_branch_file(src, dst):
    (dst / "C1.csv").write_text("hello,world\n1,2\n")


def _npy_bytes(array, **kw):
    buf = io.BytesIO()
    np.save(buf, array, **kw)
    return buf.getvalue()


def _sidecar_damage(make):
    """A damage that copies the table and writes make(bytes, rows) as its sidecar.

    bytes is the traced .npy file and rows its (mu, c_0, ..., c_31) array.
    """
    def damage(src, dst):
        (dst / "C1.csv").write_text((src / "C1.csv").read_text())
        raw = (src / "C1.solutions.npy").read_bytes()
        (dst / "C1.solutions.npy").write_bytes(make(raw, np.load(io.BytesIO(raw))))
    damage.__name__ = make.__name__
    return damage


@_sidecar_damage
def _empty_sidecar(raw, rows):
    return b""


@_sidecar_damage
def _truncated_sidecar(raw, rows):
    return raw[:-8]


@_sidecar_damage
def _sidecar_header_only(raw, rows):
    return raw[:-rows.nbytes]


@_sidecar_damage
def _sidecar_header_n_off(raw, rows):
    # the header's shape claims N = 33 coefficients per row, the data 32
    n = len(rows)
    assert raw.count(b"(%d, 33)" % n) == 1
    return raw.replace(b"(%d, 33)" % n, b"(%d, 34)" % n)


@_sidecar_damage
def _float32_sidecar(raw, rows):
    return _npy_bytes(rows.astype(np.float32))


@_sidecar_damage
def _int64_sidecar(raw, rows):
    return _npy_bytes(rows.astype(np.int64))


@_sidecar_damage
def _one_dimensional_sidecar(raw, rows):
    return _npy_bytes(rows[-1])


@_sidecar_damage
def _non_numeric_coefficient(raw, rows):
    # an object array can only be saved pickled, which the reader refuses
    rows = rows.astype(object)
    rows[len(rows) // 2, 5] = "abc"
    return _npy_bytes(rows, allow_pickle=True)


@_sidecar_damage
def _npz_under_npy_name(raw, rows):
    buf = io.BytesIO()
    np.savez(buf, solutions=rows)
    return buf.getvalue()


def _v1_sidecar_text(rows):
    """The text sidecar format version 1 wrote for the (mu, c_0, ..., c_{N-1}) rows."""
    N = rows.shape[1] - 1
    header = ["# babenko-solutions v1", f"# label=C1 depth={H!r} N={N}",
              "index,mu," + ",".join(f"c{k}" for k in range(N))]
    return "\n".join(header + [
        f"{i}," + ",".join("%.17g" % v for v in row) for i, row in enumerate(rows)]) + "\n"


@_sidecar_damage
def _text_under_npy_name(raw, rows):
    return _v1_sidecar_text(rows).encode()


@_sidecar_damage
def _sidecar_missing_row(raw, rows):
    return _npy_bytes(rows[:-1])


def _table_mu_shifted(src, dst):
    # a table beside another run's sidecar: profile reads mu from the
    # sidecar, and --point mu= selects on the table's
    lines = (src / "C1.csv").read_text().splitlines()
    for i in range(3, len(lines)):
        cells = lines[i].split(",")
        cells[1] = "%.17g" % (float(cells[1]) + 0.01)
        lines[i] = ",".join(cells)
    (dst / "C1.csv").write_text("\n".join(lines) + "\n")
    (dst / "C1.solutions.npy").write_bytes((src / "C1.solutions.npy").read_bytes())


# profile reads point 0, so a bad row elsewhere is caught only by
# validating the whole sidecar on read
@pytest.mark.parametrize("damage", [
    _truncated_header, _not_a_branch_file, _empty_sidecar, _truncated_sidecar,
    _sidecar_header_only, _sidecar_header_n_off, _float32_sidecar, _int64_sidecar,
    _one_dimensional_sidecar, _non_numeric_coefficient, _npz_under_npy_name,
    _text_under_npy_name, _sidecar_missing_row, _table_mu_shifted,
], ids=lambda damage: damage.__name__)
def test_malformed_branch_file_is_config_error(runner, traced_dir, tmp_path, damage):
    damage(traced_dir, tmp_path)
    path = str(tmp_path / "C1.csv")
    for args in (["profile", path, "--point", "0"], ["rcurve", path],
                 ["verify", path, "--out", str(tmp_path / "rep.json")]):
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_CONFIG, (args[0], res.output, res.exception)
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: "), (args[0], res.output)
        if damage not in (_truncated_header, _not_a_branch_file):
            assert str(tmp_path / "C1.solutions.npy") in lines[0], (args[0], res.output)


def test_v1_directory_reads_as_a_branch_without_sidecar(runner, traced_dir, tmp_path):
    # a directory written by format version 1: the table carries an
    # a_target column, and the coefficients sit in a text sidecar
    # C1.solutions.csv, which is not read
    lines = (traced_dir / "C1.csv").read_text().splitlines()
    assert lines[0] == "# babenko-branch v2"
    v1 = ["# babenko-branch v1", lines[1], "index,a_target," + lines[2].split(",", 1)[1]]
    for line in lines[3:]:
        index, mu, sup_norm, rest = line.split(",", 3)
        v1.append(",".join([index, sup_norm, mu, sup_norm, rest]))
    (tmp_path / "C1.csv").write_text("\n".join(v1) + "\n")
    rows = np.load(traced_dir / "C1.solutions.npy")
    (tmp_path / "C1.solutions.csv").write_text(_v1_sidecar_text(rows))
    path = str(tmp_path / "C1.csv")

    res = runner.invoke(main, ["profile", path])
    assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)
    assert res.output.strip().splitlines() == [
        "Error: branch C1 has no solution sidecar C1.solutions.npy; re-run trace first"]
    # the r-curve comes from the table alone, as from the v2 table
    for where in (tmp_path, traced_dir):
        res = runner.invoke(main, ["rcurve", str(where / "C1.csv"),
                                   "--out", str(tmp_path / f"{where.name}.r.csv")])
        assert res.exit_code == EXIT_OK, res.output
    assert ((tmp_path / f"{tmp_path.name}.r.csv").read_text()
            == (tmp_path / f"{traced_dir.name}.r.csv").read_text())
    report = tmp_path / "rep.json"
    res = runner.invoke(main, ["verify", path, "--out", str(report)])
    assert res.exit_code == EXIT_VERIFY, (res.output, res.exception)
    assert [(c["check"], c["passed"]) for c in json.loads(report.read_text())["checks"]] == [
        ("sidecar_present", False)]


@pytest.mark.parametrize("case", [
    "profile", "rcurve", "verify", "trace-flag", "trace-config", "trace-env",
    "profile-missing-dir", "rcurve-missing-dir", "verify-missing-dir",
    "profile-below-file", "rcurve-below-file", "verify-below-file",
    "trace-flag-below-file", "trace-config-below-file", "trace-env-below-file",
])
def test_unwritable_output_path_is_config_error(runner, traced_dir, tmp_path, case,
                                                 monkeypatch):
    # a directory where profile, rcurve or verify writes a file, a file
    # where trace makes its output directory (from --out, the config's
    # outdir or BABENKO_OUTDIR), and a path whose parent is missing or is
    # a file: each exits 2 before any branch is read or traced, and
    # writes nothing
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the output path was checked")

    monkeypatch.setattr(cli, "_read_branch", no_work)
    monkeypatch.setattr(cli, "start_branch", no_work)
    taken = tmp_path / "taken"
    taken.write_text("")
    cfgfile = tmp_path / "run.json"
    doc, env = {"modes": 32, "branches": [{"mode": 1, "amplitude_max": 0.03}]}, {}
    command, _, where = case.partition("-")
    if where.endswith("missing-dir"):
        out = tmp_path / "missing" / "out.csv"
    elif where.endswith("below-file"):
        out = taken / "out"
    else:
        out = taken if command == "trace" else tmp_path
    if command == "trace":
        args = ["trace", "--config", str(cfgfile)]
        if where.startswith("flag"):
            args += ["--out", str(out)]
        elif where.startswith("config"):
            doc["outdir"] = str(out)
        else:
            env["BABENKO_OUTDIR"] = str(out)
    else:
        args = [command, str(traced_dir / "C1.csv"), "--out", str(out)]
    cfgfile.write_text(json.dumps(doc))
    res = runner.invoke(main, args, env=env)
    assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)
    assert len(res.output.strip().splitlines()) == 1, res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "taken"]
    assert taken.read_text() == ""


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", ["profile", "rcurve", "verify"])
def test_unreadable_branch_file_is_config_error(runner, traced_dir, tmp_path, monkeypatch,
                                                command, kind):
    # a missing file or a directory as the branch file exits 2 with one
    # line and writes nothing; verify reads every file before it checks
    # one, so a good file before the bad one is not checked either
    def no_work(*args, **kwargs):
        raise AssertionError("a point was checked before every branch was read")

    monkeypatch.setattr(cli, "residual_fixed_r", no_work)
    monkeypatch.setattr(cli, "surface_curve", no_work)
    path = tmp_path / "C1.csv"
    if kind == "directory":
        path.mkdir()
    args = [command, str(path)]
    if command == "verify":
        args = ["verify", str(traced_dir / "C1.csv"), str(path),
                "--out", str(tmp_path / "rep.json")]
    res = runner.invoke(main, args)
    assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)
    assert res.output.strip().splitlines() == [f"Error: cannot read '{path}': " + (
        "No such file or directory" if kind == "missing" else "Is a directory")]
    assert [p.name for p in tmp_path.rglob("*")] == (["C1.csv"] if kind == "directory" else [])


@pytest.mark.parametrize("command, default", [
    ("profile", "C1.profile0.csv"), ("rcurve", "C1.rcurve.csv"), ("verify", "verify_report.json"),
])
def test_default_output_path_is_checked(runner, traced_dir, tmp_path, command, default):
    # with no --out, each command writes beside its input; a directory
    # there exits 2 with one line, as it does when --out names it
    for name in ("C1.csv", "C1.solutions.npy"):
        (tmp_path / name).write_bytes((traced_dir / name).read_bytes())
    (tmp_path / default).mkdir()
    args = [command, str(tmp_path / "C1.csv"), *(["--point", "0"] if command == "profile" else [])]
    res = runner.invoke(main, args)
    assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)
    assert res.output.strip().splitlines() == [
        f"Error: cannot write '{tmp_path / default}': it is a directory"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        ["C1.csv", "C1.solutions.npy", default])


class TestVerify:
    def test_clean_branch_passes(self, runner, traced_dir, tmp_path):
        report = tmp_path / "rep.json"
        res = runner.invoke(main, ["verify", str(traced_dir / "C1.csv"),
                                   "--out", str(report)])
        assert res.exit_code == EXIT_OK, res.output
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        names = {c["check"] for c in doc["checks"]}
        assert names == {"proposition1_roundtrip", "mean_nonpositive",
                         "height_below_mu_half", "radius_in_unit_interval",
                         "zero_mean_surface"}

    @staticmethod
    def damage_last_point(traced_dir, tmp_path, column, value):
        """Copy the branch and overwrite one stored value of its last point.

        Column 0 of a sidecar row is mu, column k + 1 holds c_k.
        """
        (tmp_path / "C1.csv").write_text((traced_dir / "C1.csv").read_text())
        rows = np.load(traced_dir / "C1.solutions.npy")
        rows[-1, column] = value(rows[-1, column])
        np.save(tmp_path / "C1.solutions.npy", rows)
        return tmp_path / "C1.csv"

    def test_corrupted_solution_fails(self, runner, traced_dir, tmp_path):
        path = self.damage_last_point(traced_dir, tmp_path, 2, lambda _: 0.01)
        res = runner.invoke(main, ["verify", str(path),
                                   "--out", str(tmp_path / "rep.json")])
        assert res.exit_code == EXIT_VERIFY
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["passed"] is False

    def test_last_point_always_checked(self, runner, traced_dir, tmp_path):
        # --sample 1 strides past every point after the first; the last
        # one, the highest wave of the branch, is checked all the same.
        # A 1e-6 change in its highest mode moves only the residual.
        path = self.damage_last_point(traced_dir, tmp_path, -1, lambda c: c + 1e-6)
        res = runner.invoke(main, ["verify", str(path), "--sample", "1",
                                   "--out", str(tmp_path / "rep.json")])
        assert res.exit_code == EXIT_VERIFY, res.output
        doc = json.loads((tmp_path / "rep.json").read_text())
        failed = {c["check"] for c in doc["checks"] if not c["passed"]}
        assert failed == {"proposition1_roundtrip"}

    def test_point_outside_the_domain_fails(self, runner, traced_dir, tmp_path):
        # c_0 = -1 at depth pi/5 puts r = exp(-h - c_0) = 1.45 outside (0, 1),
        # where neither residual nor the surface is defined: the round trips
        # fail beside the radius check, and the report is written
        path = self.damage_last_point(traced_dir, tmp_path, 1, lambda _: -1.0)
        res = runner.invoke(main, ["verify", str(path), "--out", str(tmp_path / "rep.json")])
        assert res.exit_code == EXIT_VERIFY, (res.output, res.exception)
        doc = json.loads((tmp_path / "rep.json").read_text())
        failed = {c["check"]: c["detail"] for c in doc["checks"] if not c["passed"]}
        assert set(failed) == {"proposition1_roundtrip", "height_below_mu_half",
                               "radius_in_unit_interval", "zero_mean_surface"}
        assert failed["radius_in_unit_interval"]["r_range"][1] == pytest.approx(
            math.exp(1 - H))
        assert failed["proposition1_roundtrip"]["outside_domain"] == 1
        assert failed["zero_mean_surface"]["outside_domain"] == 1

    def test_missing_sidecar_fails(self, runner, table_without_sidecar, tmp_path):
        report = tmp_path / "rep.json"
        res = runner.invoke(main, ["verify", str(table_without_sidecar),
                                   "--out", str(report)])
        assert res.exit_code == EXIT_VERIFY, (res.output, res.exception)
        doc = json.loads(report.read_text())
        assert doc["passed"] is False
        assert [(c["check"], c["passed"]) for c in doc["checks"]] == [
            ("sidecar_present", False)]

    def test_zero_sample_count(self, runner, traced_dir, tmp_path):
        res = runner.invoke(main, ["verify", str(traced_dir / "C1.csv"),
                                   "--sample", "0", "--out", str(tmp_path / "rep.json")])
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)

    def test_empty_input_vacuous_pass(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["verify"])
        assert res.exit_code == EXIT_OK
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        assert doc["passed"] is True
        assert doc["warning"] == "empty input"


class TestColdImports:
    # one fresh interpreter per command; at exit it prints the scipy and
    # numpy.f2py modules it loaded, as a JSON list on its last line of output
    CODE = (
        "import atexit, json, sys\n"
        "atexit.register(lambda: print(json.dumps(sorted(\n"
        "    m for m in sys.modules\n"
        "    if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'f2py']))))\n"
        "from babenko.cli import main\n"
        "if sys.argv[1:]:\n"
        "    main(sys.argv[1:])\n"
    )

    def run_cold(self, *args):
        src = str(Path(babenko.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", self.CODE, *args],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=120,
        )
        return run.returncode, run.stderr, json.loads(run.stdout.splitlines()[-1])

    def test_only_tracing_loads_scipy(self, tmp_path):
        # the transforms run on numpy.fft and scipy's LAPACK wrappers are
        # loaded only where Newton factors, so the import and the read-side
        # commands on a stored C1@64 branch load no scipy module; the trace
        # loads the wrappers without the scipy.linalg package, its array-API
        # layer or the numpy.f2py that layer imports
        status, err, loaded = self.run_cold("trace", "--branch", "C1", "--modes", "64",
                                            "--out", str(tmp_path))
        assert status == EXIT_OK, err
        assert "scipy.linalg._flapack" in loaded
        assert not {"scipy.linalg", "scipy._lib._array_api", "numpy.f2py"} & set(loaded)
        branch = str(tmp_path / "C1.csv")
        for args in ([], ["profile", branch, "--point", "3", "--out", str(tmp_path / "p.csv")],
                     ["rcurve", branch, "--out", str(tmp_path / "r.csv")],
                     ["verify", branch, "--out", str(tmp_path / "rep.json")]):
            status, err, loaded = self.run_cold(*args)
            assert status == EXIT_OK, (args, err)
            assert loaded == [], args
