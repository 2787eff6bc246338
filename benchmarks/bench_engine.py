"""E-ENGINE — the shared-work batch engine vs the seed fact-at-a-time loop.

Three claims are made executable:

* on the paper's running example the batch values equal the seed values
  *exactly* (Fraction equality against Example 2.3);
* on medium workload-generator instances the engine computes all-facts
  Shapley at least 5x faster than the seed loop (one shared recursion
  instead of two CntSat recursions per fact) — in practice the measured
  speedup is an order of magnitude;
* repeated requests are served from the engine's result cache at
  essentially zero cost.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

from repro.engine import BatchAttributionEngine
from repro.workloads.generators import export_database, star_join_database
from repro.workloads.queries import intro_export_query
from repro.workloads.running_example import (
    EXAMPLE_2_3_SHAPLEY,
    figure_1_database,
    query_q1,
)

TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if TESTS not in sys.path:  # the seed reference implementation lives there
    sys.path.insert(0, TESTS)
SPEEDUP_FLOOR = 5.0


def test_engine_exactness_on_running_example(benchmark, report):
    db = figure_1_database()
    q1 = query_q1()
    result = benchmark(lambda: BatchAttributionEngine().batch(db, q1))
    assert dict(result.shapley) == EXAMPLE_2_3_SHAPLEY
    report(
        "E-ENGINE: batch values vs Example 2.3 (Fraction equality)",
        ("fact", "batch", "paper", "status"),
        [
            (repr(f), str(result.shapley[f]), str(expected), "=")
            for f, expected in sorted(EXAMPLE_2_3_SHAPLEY.items(), key=repr)
        ],
    )


def test_engine_speedup_on_medium_instances(benchmark, report, quick):
    """All-facts Shapley: batch engine ≥ 5x over the seed per-fact loop."""
    from harness.seed_cntsat import shapley_all_values_per_fact

    q1 = query_q1()
    sizes = ((10, 5), (16, 6)) if quick else ((20, 6), (30, 8))
    rows = []
    speedups = []
    for students, courses in sizes:
        db = star_join_database(students, courses, rng=random.Random(11))
        engine = BatchAttributionEngine()

        start = time.perf_counter()
        batch = engine.batch(db, q1)
        batch_seconds = time.perf_counter() - start

        start = time.perf_counter()
        seed = shapley_all_values_per_fact(db, q1)
        seed_seconds = time.perf_counter() - start

        assert dict(batch.shapley) == seed, "batch and seed values must agree"
        speedup = seed_seconds / batch_seconds
        speedups.append(speedup)
        rows.append(
            (
                len(db.endogenous),
                f"{seed_seconds * 1000:.1f} ms",
                f"{batch_seconds * 1000:.1f} ms",
                f"{speedup:.1f}x",
            )
        )

    # The benchmarked payload: one batch on the largest instance.
    db = star_join_database(*sizes[-1], rng=random.Random(11))
    benchmark(lambda: BatchAttributionEngine().batch(db, q1))
    report(
        "E-ENGINE: all-facts Shapley, seed per-fact loop vs batch engine (q1)",
        ("|Dn|", "seed loop", "batch engine", "speedup"),
        rows,
    )
    assert max(speedups) >= SPEEDUP_FLOOR, (
        f"expected ≥{SPEEDUP_FLOOR}x speedup on medium instances, got {speedups}"
    )


def test_engine_speedup_on_exoshap_instances(benchmark, report, quick):
    """The exoshap route amortizes the rewrite once instead of per fact."""
    from harness.seed_cntsat import shapley_all_values_per_fact

    q = intro_export_query()
    scale = (3, 2, 2) if quick else (4, 3, 2)
    db = export_database(*scale, rng=random.Random(9))
    engine = BatchAttributionEngine()

    start = time.perf_counter()
    batch = engine.batch(db, q)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    seed = shapley_all_values_per_fact(db, q)
    seed_seconds = time.perf_counter() - start

    assert batch.method == "exoshap"
    assert dict(batch.shapley) == seed
    benchmark(lambda: BatchAttributionEngine().batch(db, q))
    report(
        "E-ENGINE: exogenous-relations route (intro export query)",
        ("|Dn|", "seed loop", "batch engine", "speedup"),
        [
            (
                len(db.endogenous),
                f"{seed_seconds * 1000:.1f} ms",
                f"{batch_seconds * 1000:.1f} ms",
                f"{seed_seconds / batch_seconds:.1f}x",
            )
        ],
    )


def test_engine_result_cache_on_repeats(benchmark, report, quick):
    """Repeated identical requests hit the result cache."""
    q1 = query_q1()
    db = star_join_database(6 if quick else 12, 4, rng=random.Random(2))
    engine = BatchAttributionEngine()

    start = time.perf_counter()
    cold = engine.batch(db, q1)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = engine.batch(db, q1)
    warm_seconds = time.perf_counter() - start

    assert not cold.from_cache and warm.from_cache
    assert dict(warm.shapley) == dict(cold.shapley)
    benchmark(lambda: engine.batch(db, q1))
    report(
        "E-ENGINE: result-cache repeats",
        ("|Dn|", "cold", "warm (cached)", "stats"),
        [
            (
                len(db.endogenous),
                f"{cold_seconds * 1000:.2f} ms",
                f"{warm_seconds * 1000:.3f} ms",
                repr(engine.stats["results"]),
            )
        ],
    )
