"""Smoke test of the benchmark itself: every workload at reduced length.

Run from the root of a source checkout::

    python3 -m pytest windimbench/test_smoke.py

Each workload runs for one second untraced and one second traced.  The
test asserts that every metric ``BENCHMARK.json`` declares is printed
with its declared unit, that no point failed, and that the traced run
passed its span-coverage guard.
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_emits_declared_metrics(workload, trace, group):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in DECLARED[group]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_source(tmp_path):
    bench = tmp_path / HERE.name
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "arpanet-loads",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
