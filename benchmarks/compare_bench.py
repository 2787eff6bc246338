#!/usr/bin/env python
"""Diff a ``--bench-json`` record against the committed baseline.

Usage::

    python benchmarks/compare_bench.py CURRENT.json [BASELINE.json]

``CURRENT.json`` is a document produced by the benchmark harness's
``--bench-json`` option (see ``benchmarks/conftest.py``).  Without an
explicit baseline the newest ``benchmarks/baselines/BENCH_*.json`` is
used — the dated records CI commits alongside the suite.

Tables pair by ``(test, title)``, rows by their first (label) cell, and
cells by header; every numeric cell present on both sides is compared
and its relative delta printed.  Cells with a time-unit suffix
(``ns``/``us``/``µs``/``ms``/``s``) are scaled to milliseconds first.  Cells in *time-like* columns (header
mentions ms/sec/time/latency/p50/p99) that got more than
``WARN_THRESHOLD`` slower are flagged.

The comparison is **informational**: shared CI runners make wall-clock
noisy, so regressions warn — loudly, with a summary line a human can
grep for — but the script always exits 0.  Structural drift (tables or
rows that exist on only one side) is listed so renames don't silently
shrink coverage.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

WARN_THRESHOLD = 0.20

#: A header containing one of these names a lower-is-better time column.
TIME_HINTS = ("ms", "sec", "time", "latency", "p50", "p99", "wall")


#: Time-unit suffixes of table cells and their factor to milliseconds.
UNITS_TO_MS = {"ns": 1e-6, "us": 1e-3, "µs": 1e-3, "ms": 1.0, "s": 1000.0}


def _numeric(cell: str) -> float | None:
    """A cell's number; times with a unit suffix are scaled to ms.

    ``"1.12 ms"``, ``"900 us"`` and ``"0.5 s"`` all read as
    milliseconds, so cells that changed unit between two records
    still compare.  A trailing ``x`` or ``%`` is dropped.
    """
    text = str(cell).strip()
    scale = 1.0
    for unit in ("ns", "us", "µs", "ms", "s"):
        if text.endswith(unit):
            text, scale = text[: -len(unit)].rstrip(), UNITS_TO_MS[unit]
            break
    try:
        return float(text.rstrip("x%")) * scale
    except ValueError:
        return None


def _is_time_column(header: str) -> bool:
    lowered = header.lower()
    return any(hint in lowered for hint in TIME_HINTS)


def _tables(document: dict) -> dict[tuple[str, str], dict]:
    return {
        (table.get("test", "?"), table.get("title", "?")): table
        for table in document.get("tables", [])
    }


def _rows(table: dict) -> dict[str, list[str]]:
    rows: dict[str, list[str]] = {}
    for row in table.get("rows", []):
        if row:
            # Last write wins on duplicate labels; benchmark tables key
            # rows by their first cell (instance size, tier name, ...).
            rows[str(row[0])] = [str(cell) for cell in row]
    return rows


def _latest_baseline(directory: Path) -> Path | None:
    candidates = sorted(directory.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def _describe(path: Path, document: dict) -> str:
    mode = "quick" if document.get("quick") else "full"
    return f"{path} (python {document.get('python', '?')}, {mode})"


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    current_path = Path(argv[1])
    if len(argv) == 3:
        baseline_path = Path(argv[2])
    else:
        baseline_path = _latest_baseline(Path(__file__).parent / "baselines")
        if baseline_path is None:
            print(
                "no baseline found under benchmarks/baselines/ — nothing"
                " to compare against (commit one with --bench-json)"
            )
            return 0
    current = json.loads(current_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    print(f"baseline: {_describe(baseline_path, baseline)}")
    print(f"current:  {_describe(current_path, current)}")
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        print("note: quick/full modes differ; deltas are not comparable")

    baseline_tables = _tables(baseline)
    current_tables = _tables(current)
    warnings = 0
    compared = 0
    for key in sorted(baseline_tables.keys() & current_tables.keys()):
        base_table = baseline_tables[key]
        cur_table = current_tables[key]
        headers = base_table.get("headers", [])
        if headers != cur_table.get("headers", []):
            print(f"\n{key[1]} [{key[0]}]: headers changed, skipping")
            continue
        base_rows = _rows(base_table)
        cur_rows = _rows(cur_table)
        lines: list[str] = []
        for label in base_rows:
            if label not in cur_rows:
                lines.append(f"  - row {label!r} only in baseline")
                continue
            for index, header in enumerate(headers[1:], start=1):
                if index >= len(base_rows[label]) or index >= len(
                    cur_rows[label]
                ):
                    continue
                before = _numeric(base_rows[label][index])
                after = _numeric(cur_rows[label][index])
                if before is None or after is None:
                    continue
                compared += 1
                if before == 0:
                    delta_text = "n/a" if after == 0 else "new!=0"
                    relative = 0.0
                else:
                    relative = (after - before) / abs(before)
                    delta_text = f"{relative:+.1%}"
                flag = ""
                if _is_time_column(header) and relative > WARN_THRESHOLD:
                    flag = "  <-- WARNING: slower than baseline"
                    warnings += 1
                if flag or abs(relative) > 0.05:
                    lines.append(
                        f"  {label} / {header}: {before:g} -> {after:g}"
                        f" ({delta_text}){flag}"
                    )
        for label in cur_rows.keys() - base_rows.keys():
            lines.append(f"  + row {label!r} only in current")
        if lines:
            print(f"\n{key[1]} [{key[0]}]")
            print("\n".join(lines))
    for key in sorted(baseline_tables.keys() - current_tables.keys()):
        print(f"\nmissing from current run: {key[1]} [{key[0]}]")
    for key in sorted(current_tables.keys() - baseline_tables.keys()):
        print(f"\nnew in current run: {key[1]} [{key[0]}]")

    print(
        f"\ncompared {compared} numeric cells across"
        f" {len(baseline_tables.keys() & current_tables.keys())} tables"
    )
    if warnings:
        print(
            f"WARNING: {warnings} time-like cell(s) regressed more than"
            f" {WARN_THRESHOLD:.0%} (informational — not failing the build)"
        )
    else:
        print("no time-like cell regressed past the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
