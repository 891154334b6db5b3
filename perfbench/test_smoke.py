"""Smoke test of the benchmark at a tiny T.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ENV_KEYS = {"python", "numpy", "scipy", "nproc", "cpu_model", "git_commit", "seed", "T", "n", "rounds"}


def test_spec_names_every_reported_metric():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    result, env = run.measure(
        workload, None, seconds=0.0, trace=trace, tiny=True, setup_repeats=1, min_units=1
    )
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert ENV_KEYS <= set(env)
    if trace:
        assert result["metrics"]["harness.rounds"]["value"] == env["rounds"]
    else:
        assert result["metrics"]["passed_share"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learners-export",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
