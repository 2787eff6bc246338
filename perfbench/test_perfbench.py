"""The benchmark's own test: output contract and exactly repeating counters.

Run with ``python -m pytest perfbench`` from the root of a checkout
(the repository's tier-1 suite collects ``tests/`` only).  Each
workload runs twice, traced, on one seed: both runs must be correct,
report exactly the per-layer metrics of ``BENCHMARK.json``, and repeat
the deterministic work counters and result digests bit for bit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int, seconds: float = 1.0):
    output = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    ).stdout
    record, result = (json.loads(line) for line in output.strip().splitlines()[-2:])
    return record, result


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_work_counters_and_digests_repeat(workload):
    first_record, first = run(workload, seed=7, trace=1)
    second_record, second = run(workload, seed=7, trace=1)
    names = {entry["name"] for entry in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
    assert first_record["work_counters"] == second_record["work_counters"]
    assert first_record["work_counters"]["execute.tasks"] > 0
    for key in ("digests", "state_digests"):
        assert first_record.get(key) == second_record.get(key)
    assert first_record["host"]["seed"] == 7


def test_untraced_run_reports_every_end_to_end_metric():
    _record, result = run("exact-cold", seed=3, trace=0)
    assert result["correct"] and result["attempted"] >= 1
    metrics = result["metrics"]
    for entry in SPEC["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert metrics[entry["name"]]["value"] > 0
