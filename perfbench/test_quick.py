"""The harness's own test: every workload path at N = 64, in a few seconds.

    python3 -m pytest -q perfbench/test_quick.py

Runs run.py in fresh processes in --quick mode, checks the result line
against BENCHMARK.json, and checks that a traced run's counts repeat
exactly for one seed.  At N = 64 the reference bands of the gate do not
hold, so only the harness is tested here, not the answers.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_line(result: dict, specs: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_line_has_every_end_to_end_metric(workload):
    check_line(run(workload, 0), SPEC["end_to_end"])


def test_traced_counts_repeat_exactly():
    first, second = run("c1-extreme-1024", 1), run("c1-extreme-1024", 1)
    check_line(first, SPEC["per_layer"])
    counts = [s["name"] for s in SPEC["per_layer"] if s["unit"] in ("count", "B")]
    assert counts
    assert all(first["metrics"][k] == second["metrics"][k] for k in counts)
    assert first["metrics"]["solver.newton.calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "postprocess", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
