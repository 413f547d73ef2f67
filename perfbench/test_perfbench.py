"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q

Checks that every workload emits every metric ``BENCHMARK.json`` names,
with its unit, in both the untraced and the traced run (a traced run is
only correct when its reports are byte-identical to the untraced ones),
that the seed argument changes the generated world, and that run.py
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload: str, trace: str) -> None:
    result = _result(_run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--toy",
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in named}
    if trace == "0":
        assert result["metrics"]["mav_recall"]["value"] == 1.0
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def _digest(tmp_path: Path, seed: int) -> str:
    out = tmp_path / f"result-{seed}.json"
    subprocess.run(
        [
            sys.executable, "perfbench/worker.py", "--workload", "sweep-sparse",
            "--seed", str(seed), "--out", str(out), "--toy",
        ],
        cwd=ROOT, check=True, capture_output=True, timeout=300,
    )
    return json.loads(out.read_text())["digest"]


def test_seed_changes_the_world(tmp_path: Path) -> None:
    first = _digest(tmp_path, 1)
    assert _digest(tmp_path, 1) == first
    assert _digest(tmp_path, 2) != first


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
