"""``benchmarks/compare_bench.py``: unit-suffixed cells are compared in ms."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_bench.py"
BASELINE = SCRIPT.parent / "baselines" / "BENCH_2026-08-08.json"


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "cell, expected",
    [
        ("1.12 ms", 1.12),
        ("900 us", 0.9),
        ("900us", 0.9),
        ("2.5 µs", 0.0025),
        ("40 ns", 4e-05),
        ("0.25 s", 250.0),
        ("3.5x", 3.5),
        ("12%", 12.0),
        ("7", 7.0),
        (" 1e3 ", 1000.0),
    ],
)
def test_numeric_scales_time_units_to_ms(compare_bench, cell, expected):
    assert compare_bench._numeric(cell) == pytest.approx(expected)


@pytest.mark.parametrize("cell", ["ms", "s", "yes", "n/a", ""])
def test_non_numbers_are_skipped(compare_bench, cell):
    assert compare_bench._numeric(cell) is None


def _record(rows):
    return {
        "quick": True,
        "tables": [
            {
                "test": "bench_x",
                "title": "latency",
                "headers": ["size", "p50"],
                "rows": rows,
            }
        ],
    }


def test_cells_in_other_units_compare_and_only_warn(compare_bench, tmp_path, capsys):
    baseline = tmp_path / "base.json"
    current = tmp_path / "current.json"
    baseline.write_text(json.dumps(_record([["a", "1.00 ms"], ["b", "2 ms"]])))
    current.write_text(json.dumps(_record([["a", "1500 us"], ["b", "0.002 s"]])))
    assert compare_bench.main(["compare_bench", str(current), str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "compared 2 numeric cells" in out
    assert "a / p50: 1 -> 1.5 (+50.0%)  <-- WARNING" in out
    assert "b / p50" not in out


def test_committed_baseline_compares_its_unit_cells(compare_bench, capsys):
    document = json.loads(BASELINE.read_text(encoding="utf-8"))
    suffixed = sum(
        1
        for table in document["tables"]
        for row in table["rows"]
        for cell in row[1:]
        if str(cell).strip().endswith(("ns", "us", "µs", "ms"))
        and compare_bench._numeric(cell) is not None
    )
    assert suffixed == 61
    assert compare_bench.main(["compare_bench", str(BASELINE), str(BASELINE)]) == 0
    out = capsys.readouterr().out
    # 175 cells are bare numbers; every unit-suffixed cell now joins them.
    assert f"compared {175 + suffixed} numeric cells" in out
