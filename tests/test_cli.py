import json
import math

import pytest
from click.testing import CliRunner

from babenko.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VERIFY, main

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

    def test_bad_modes_is_config_error(self, runner):
        res = runner.invoke(main, ["bifpoints", "--modes", "100"])
        assert res.exit_code == EXIT_CONFIG

    def test_bad_depth_is_config_error(self, runner):
        res = runner.invoke(main, ["bifpoints", "--depth", "-1"])
        assert res.exit_code == EXIT_CONFIG


class TestTrace:
    def test_writes_branch_and_events(self, traced_dir):
        assert (traced_dir / "C1.csv").exists()
        assert (traced_dir / "C1.solutions.csv").exists()
        assert (traced_dir / "events.json").exists()

    def test_no_branches_is_noop(self, runner):
        res = runner.invoke(main, ["trace"])
        assert res.exit_code == EXIT_OK

    def test_bad_branch_spec(self, runner):
        res = runner.invoke(main, ["trace", "--branch", "Cfoo"])
        assert res.exit_code == EXIT_CONFIG

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
    ], ids=["step-above-max", "step-zero", "residual-tol-zero"])
    def test_bad_solver_settings_are_config_errors(self, runner, tmp_path, extra, doc):
        args = ["trace", "--branch", "C1", "--modes", "32", "--amplitude-max", "0.03",
                "--out", str(tmp_path)]
        if doc is not None:
            cfgfile = tmp_path / "run.json"
            cfgfile.write_text(json.dumps(doc))
            args += ["--config", str(cfgfile)]
        res = runner.invoke(main, args + extra)
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)

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

    def test_nonpositive_samples(self, runner, traced_dir):
        res = runner.invoke(main, ["profile", str(traced_dir / "C1.csv"),
                                   "--samples", "-5"])
        assert res.exit_code == EXIT_CONFIG, (res.output, res.exception)


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


def _truncated_header(src, dst):
    (dst / "C1.csv").write_text("# babenko-branch v1\n")


def _not_a_branch_file(src, dst):
    (dst / "C1.csv").write_text("hello,world\n1,2\n")


def _truncated_sidecar(src, dst):
    (dst / "C1.csv").write_text((src / "C1.csv").read_text())
    first = (src / "C1.solutions.csv").read_text().splitlines()[0]
    (dst / "C1.solutions.csv").write_text(first + "\n")


def _short_sidecar_row(src, dst):
    (dst / "C1.csv").write_text((src / "C1.csv").read_text())
    lines = (src / "C1.solutions.csv").read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]  # drop the last coefficient
    (dst / "C1.solutions.csv").write_text("\n".join(lines) + "\n")


def _sidecar_missing_row(src, dst):
    (dst / "C1.csv").write_text((src / "C1.csv").read_text())
    lines = (src / "C1.solutions.csv").read_text().splitlines()
    (dst / "C1.solutions.csv").write_text("\n".join(lines[:-1]) + "\n")


@pytest.mark.parametrize("damage", [
    _truncated_header, _not_a_branch_file, _truncated_sidecar, _short_sidecar_row,
    _sidecar_missing_row,
])
def test_malformed_branch_file_is_config_error(runner, traced_dir, tmp_path, damage):
    damage(traced_dir, tmp_path)
    path = str(tmp_path / "C1.csv")
    for args in (["profile", path], ["rcurve", path],
                 ["verify", path, "--out", str(tmp_path / "rep.json")]):
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_CONFIG, (args[0], res.output, res.exception)


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
        """Copy the branch and overwrite one stored coefficient of its last point."""
        for name in ("C1.csv", "C1.solutions.csv"):
            (tmp_path / name).write_text((traced_dir / name).read_text())
        lines = (tmp_path / "C1.solutions.csv").read_text().splitlines()
        cells = lines[-1].split(",")
        cells[column] = value(cells[column])
        lines[-1] = ",".join(cells)
        (tmp_path / "C1.solutions.csv").write_text("\n".join(lines) + "\n")
        return tmp_path / "C1.csv"

    def test_corrupted_solution_fails(self, runner, traced_dir, tmp_path):
        path = self.damage_last_point(traced_dir, tmp_path, 3, lambda _: "0.01")
        res = runner.invoke(main, ["verify", str(path),
                                   "--out", str(tmp_path / "rep.json")])
        assert res.exit_code == EXIT_VERIFY
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["passed"] is False

    def test_last_point_always_checked(self, runner, traced_dir, tmp_path):
        # --sample 1 strides past every point after the first; the last
        # one, the highest wave of the branch, is checked all the same.
        # A 1e-6 change in its highest mode moves only the residual.
        path = self.damage_last_point(traced_dir, tmp_path, -1,
                                      lambda cell: repr(float(cell) + 1e-6))
        res = runner.invoke(main, ["verify", str(path), "--sample", "1",
                                   "--out", str(tmp_path / "rep.json")])
        assert res.exit_code == EXIT_VERIFY, res.output
        doc = json.loads((tmp_path / "rep.json").read_text())
        failed = {c["check"] for c in doc["checks"] if not c["passed"]}
        assert failed == {"proposition1_roundtrip"}

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
