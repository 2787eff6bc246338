"""E-ANSWERS — engine-backed answer & aggregate attribution vs the seed loop.

The seed implementation of ``answer_attribution`` called the single-fact
``shapley_value`` dispatch (kept in ``tests/harness/seed_cntsat.py``)
once per endogenous fact per grounded query:
``2 · |answers| · |Dn|`` full CntSat recursions for an all-answers
attribution.  The engine path issues **one** shared recursion per
grounding and shares component bundles across groundings through the
cross-grounding pool.  Three claims made executable:

* per answer, the engine values equal the seed values *exactly*
  (``Fraction`` equality, every fact, every answer);
* on medium multi-answer generator instances the engine attributes all
  answers at least 5x faster than the seed per-fact loop;
* with a durable SQLite store, a second engine (fresh process state)
  serves the whole answer batch warm from disk.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, SQLiteResultStore
from repro.shapley.aggregates import aggregate_attribution, candidate_answers
from repro.shapley.answers import ground_at_answer
from repro.workloads.generators import star_join_database

TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if TESTS not in sys.path:  # the seed reference implementation lives there
    sys.path.insert(0, TESTS)

SPEEDUP_FLOOR = 5.0

ANSWERS_Q1 = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"


def seed_answer_attribution(database, query, answer):
    """The seed per-fact loop: one full dispatch per endogenous fact."""
    from harness.seed_cntsat import shapley_value

    grounded = ground_at_answer(query, answer)
    return {
        f: shapley_value(database, grounded, f)
        for f in sorted(database.endogenous, key=repr)
    }


def test_answers_engine_exactness_and_speedup(benchmark, report, quick):
    """All-answers attribution: engine ≥ 5x over the seed per-fact loop."""
    q = parse_query(ANSWERS_Q1)
    sizes = ((6, 4), (9, 4)) if quick else ((12, 5), (16, 6))
    rows = []
    speedups = []
    for students, courses in sizes:
        db = star_join_database(students, courses, rng=random.Random(17))
        answers = sorted(candidate_answers(db, q), key=repr)
        engine = BatchAttributionEngine()

        start = time.perf_counter()
        batch = engine.batch_answers(db, q)
        engine_seconds = time.perf_counter() - start

        start = time.perf_counter()
        seed = {answer: seed_answer_attribution(db, q, answer) for answer in answers}
        seed_seconds = time.perf_counter() - start

        assert set(batch.per_answer) == set(seed)
        for answer in answers:
            assert dict(batch.per_answer[answer].shapley) == seed[answer], (
                f"engine and seed values must agree exactly for {answer!r}"
            )
        speedup = seed_seconds / engine_seconds
        speedups.append(speedup)
        rows.append(
            (
                f"{len(answers)}x{len(db.endogenous)}",
                f"{seed_seconds * 1000:.1f} ms",
                f"{engine_seconds * 1000:.1f} ms",
                f"{speedup:.1f}x",
            )
        )

    db = star_join_database(*sizes[-1], rng=random.Random(17))
    benchmark(lambda: BatchAttributionEngine().batch_answers(db, q))
    report(
        "E-ANSWERS: all-answers attribution, seed per-fact loop vs engine",
        ("answers x |Dn|", "seed loop", "engine", "speedup"),
        rows,
    )
    assert max(speedups) >= SPEEDUP_FLOOR, (
        f"expected ≥{SPEEDUP_FLOOR}x speedup on medium instances, got {speedups}"
    )


def test_aggregate_engine_matches_seed_linearity(benchmark, report, quick):
    """Aggregate attribution: engine linearity == seed weighted sums."""
    q = parse_query(ANSWERS_Q1)
    db = star_join_database(6 if quick else 10, 4, rng=random.Random(23))
    answers = sorted(candidate_answers(db, q), key=repr)

    def weight(row):
        return 1

    totals = aggregate_attribution(db, q, weight)
    expected = {f: Fraction(0) for f in sorted(db.endogenous, key=repr)}
    for answer in answers:
        for f, value in seed_answer_attribution(db, q, answer).items():
            expected[f] += value
    assert totals == expected
    benchmark(lambda: aggregate_attribution(db, q, weight))
    report(
        "E-ANSWERS: aggregate attribution (count) vs seed per-answer sums",
        ("answers", "|Dn|", "status"),
        [(len(answers), len(db.endogenous), "exact match")],
    )


def test_persistent_cache_cold_vs_warm(benchmark, report, quick, tmp_path):
    """A fresh engine over a populated store file serves the batch warm."""
    q = parse_query(ANSWERS_Q1)
    db = star_join_database(8 if quick else 14, 5, rng=random.Random(29))
    path = tmp_path / "results.db"

    cold_engine = BatchAttributionEngine(shared=SQLiteResultStore(path))
    start = time.perf_counter()
    cold = cold_engine.batch_answers(db, q)
    cold_seconds = time.perf_counter() - start

    warm_engine = BatchAttributionEngine(shared=SQLiteResultStore(path))
    start = time.perf_counter()
    warm = warm_engine.batch_answers(db, q)
    warm_seconds = time.perf_counter() - start

    assert all(result.from_cache for result in warm.per_answer.values())
    for answer, result in warm.per_answer.items():
        assert dict(result.shapley) == dict(cold.per_answer[answer].shapley)
    benchmark(lambda: warm_engine.batch_answers(db, q))
    report(
        "E-ANSWERS: persistent result cache, cold vs warm (fresh engine)",
        ("answers", "cold", "warm (disk)", "store stats"),
        [
            (
                len(warm.per_answer),
                f"{cold_seconds * 1000:.1f} ms",
                f"{warm_seconds * 1000:.2f} ms",
                repr(warm_engine.shared.stats.snapshot()),
            )
        ],
    )


@pytest.mark.slow
def test_answers_engine_scaling_large(report):
    """Larger multi-answer instances (excluded from the CI smoke job)."""
    q = parse_query(ANSWERS_Q1)
    rows = []
    for students, courses in ((24, 6), (32, 8)):
        db = star_join_database(students, courses, rng=random.Random(31))
        answers = sorted(candidate_answers(db, q), key=repr)
        start = time.perf_counter()
        BatchAttributionEngine().batch_answers(db, q)
        engine_seconds = time.perf_counter() - start
        rows.append(
            (
                f"{len(answers)}x{len(db.endogenous)}",
                f"{engine_seconds * 1000:.1f} ms",
            )
        )
    report(
        "E-ANSWERS: engine scaling on large multi-answer instances",
        ("answers x |Dn|", "engine"),
        rows,
    )
