"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload exact-cold --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the same spread of the
times as measured, before scaling to the reference host speed, and the
metric's bound in ``BENCHMARK.json``.  A benchmark is steady when each spread, except
that of ``setup_s``, is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    options = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = options.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    measured: dict[str, list[float]] = {}
    for seed in seeds_from(options.seeds):
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", options.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        output = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout
        record, result = (json.loads(line) for line in output.strip().splitlines()[-2:])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect output {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, value in record["measured"].items():
            measured.setdefault(name, []).append(value)
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in sorted(result["metrics"].items())
        ), flush=True)
    for entry in spec["end_to_end"]:
        series = values[entry["name"]]
        print(
            f"{entry['name']:<18} median {statistics.median(series):10.4f}"
            f"  spread {spread(series):6.3f}"
            f"  as measured {spread(measured[entry['name']]):6.3f}"
            f"  bound {entry['bound']}"
        )
    return 0


def spread(series: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / statistics.median(series)


if __name__ == "__main__":
    sys.exit(main())
