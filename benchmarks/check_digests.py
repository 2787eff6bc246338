#!/usr/bin/env python
"""Check the benchmark's result digests against the committed reference.

Usage::

    python benchmarks/check_digests.py            # compare, exit 1 on drift
    python benchmarks/check_digests.py --write    # re-record the reference

For every ``(workload, seed)`` pair of ``REFERENCE`` this runs
``perfbench/run.py --workload W --seed S --seconds 1 --trace 1`` and
reads the ``digests`` (and, where the workload reports them,
``state_digests``) of its record line, the second-to-last line of its
output.  ``pytest perfbench`` checks that two runs agree with each
other, so a changed result that repeats itself passes there; this
check pins the results themselves.  A change that moves a digest on
purpose re-records the reference with ``--write`` and says why.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "benchmarks" / "baselines" / "perfbench_digests.json"
RUNS = [
    (workload, seed)
    for workload in ("exact-cold", "sampled-hard")
    for seed in (1, 2)
]
KEYS = ("digests", "state_digests")


def run_digests(workload: str, seed: int) -> dict[str, dict[str, str]]:
    """The digests of one short traced run of ``workload`` at ``seed``."""
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            *("--workload", workload, "--seed", str(seed)),
            *("--seconds", "1", "--trace", "1"),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    record = json.loads(completed.stdout.splitlines()[-2])
    return {key: record[key] for key in KEYS if key in record}


def main(argv: list[str]) -> int:
    seen = {
        f"{workload}@{seed}": run_digests(workload, seed) for workload, seed in RUNS
    }
    if argv == ["--write"]:
        REFERENCE.write_text(json.dumps(seen, indent=2, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    drift = sorted(
        run for run in reference.keys() | seen.keys() if reference.get(run) != seen.get(run)
    )
    for run in drift:
        print(f"DRIFT {run}: reference {reference.get(run)} != run {seen.get(run)}")
    print(f"{len(seen) - len(drift)}/{len(seen)} runs match {REFERENCE.name}")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
