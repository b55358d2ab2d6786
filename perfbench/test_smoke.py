"""Smoke test: every workload at tiny sizes, all output checks on.

    python3 -m pytest perfbench/test_smoke.py

Runs ``perfbench/run.py`` as a separate process and checks the
result line against ``BENCHMARK.json``.  The default seed also checks the
recorded tiny-scale output digests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
               "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]["value"]
        if m["unit"] in ("s", "ms", "MB", "items/s") and m["name"] != "item.tail_ms":
            assert value > 0, m["name"]


def test_other_seed_checks_invariants_only():
    proc = run(ROOT, "--workload", "adversary_games", "--seed", "7", "--seconds", "0.2",
               "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
