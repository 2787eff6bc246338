"""E2 — Theorem 3.1 positive side: CntSat correctness and polynomial scaling.

Two claims are made executable:

* the polynomial algorithm returns exactly the brute-force values on
  random hierarchical instances (correctness sweep);
* its running time scales polynomially in the number of endogenous facts
  where brute force scales exponentially (timing series on the scaled
  running-example family).

Two ``batch`` ladders time the engine's all-facts pass.  On
``star_join_database(n, 8)`` the per-student slices fall into a few
shape classes, which the backward pass pulls back once each; on the
all-distinct ladder (student ``i`` registers in ``i + 1`` courses) every
slice has a shape of its own, so it guards the cost of computing shapes
where no class repeats.

The ``batch_answers`` ladder times one plan over every grounding of the
non-Boolean companion query on the same databases, next to the
positive-part join that finds its candidate answers
(``candidate_answers``), which reads each ``Reg`` step from the bound
student's column and so grows linearly.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import pytest

from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, SerialExecutor, batch_count_vectors
from repro.engine.bundles import OR
from repro.shapley.aggregates import candidate_answers
from repro.shapley.answers import ground_at_answer
from repro.shapley.brute_force import satisfying_subset_counts, shapley_brute_force
from repro.shapley.exact import count_satisfying_subsets, shapley_from_counts
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
    star_join_database,
)
from repro.workloads.running_example import query_q1

TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if TESTS not in sys.path:  # the seed reference implementation lives there
    sys.path.insert(0, TESTS)


def test_e2_correctness_sweep(benchmark, report):
    from harness.seed_cntsat import counts_from_both

    rng = random.Random(2024)

    def sweep() -> tuple[int, int]:
        agreements = instances = 0
        local = random.Random(rng.randint(0, 10**9))
        while instances < 10:
            q = random_hierarchical_query(rng=local)
            db = random_database_for_query(q, domain_size=3, rng=local)
            if len(db.endogenous) > 11:
                continue
            instances += 1
            if counts_from_both(db, q) == satisfying_subset_counts(db, q):
                agreements += 1
        return agreements, instances

    agreements, instances = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert agreements == instances
    report(
        "E2: CntSat vs enumeration on random hierarchical CQ¬ instances",
        ("instances per round", "agreements", "status"),
        [(instances, agreements, "all equal")],
    )


def test_e2_polynomial_vs_exponential_scaling(benchmark, report):
    rng = random.Random(7)
    q1 = query_q1()
    rows = []
    for students, courses in ((3, 2), (4, 3), (6, 4), (10, 6), (16, 8), (24, 10)):
        db = star_join_database(students, courses, rng=random.Random(rng.random()))
        endo = sorted(db.endogenous, key=repr)
        if not endo:
            continue
        target = endo[0]

        start = time.perf_counter()
        value = shapley_from_counts(db, q1, target)
        poly_seconds = time.perf_counter() - start

        if len(endo) <= 14:
            start = time.perf_counter()
            brute = shapley_brute_force(db, q1, target)
            brute_seconds: float | None = time.perf_counter() - start
            assert brute == value
        else:
            brute_seconds = None
        rows.append(
            (
                len(endo),
                f"{poly_seconds * 1000:.2f} ms",
                f"{brute_seconds * 1000:.2f} ms" if brute_seconds else "(2^n, skipped)",
            )
        )

    # The benchmarked payload: one mid-size polynomial computation, the
    # per-fact CntSat route (two forward passes, nothing cached).
    db = star_join_database(12, 6, rng=random.Random(1))
    target = sorted(db.endogenous, key=repr)[0]
    benchmark(lambda: shapley_from_counts(db, q1, target))
    report(
        "E2: exact Shapley scaling on scaled running-example databases (q1)",
        ("|Dn|", "CntSat time", "brute-force time"),
        rows,
    )


def test_e2_count_vector_cost(benchmark, report):
    """Cost of one full |Sat(D, q, k)| vector on a larger instance."""
    db = star_join_database(20, 8, rng=random.Random(3))
    q1 = query_q1()
    counts = benchmark(lambda: count_satisfying_subsets(db, q1))
    assert len(counts) == len(db.endogenous) + 1
    report(
        "E2: CntSat count-vector on a 20-student instance",
        ("|Dn|", "vector length", "subsets counted"),
        [(len(db.endogenous), len(counts), sum(counts))],
    )


def _distinct_shapes_database(num_students: int) -> Database:
    """Student ``i`` is a TA and registers in ``i + 1`` courses."""
    db = Database()
    for j in range(num_students):
        db.add_exogenous(Fact("Course", (f"c{j}", "CS")))
    for i in range(num_students):
        db.add_exogenous(Fact("Stud", (f"s{i}",)))
        db.add_endogenous(Fact("TA", (f"s{i}",)))
        for j in range(i + 1):
            db.add_endogenous(Fact("Reg", (f"s{i}", f"c{j}")))
    return db


def _batch_seconds(db, repeats: int = 2) -> float:
    """Best wall time of ``batch`` on a fresh serial engine (cold caches)."""
    best = math.inf
    for _ in range(repeats):
        engine = BatchAttributionEngine(executor=SerialExecutor())
        start = time.perf_counter()
        engine.batch(db, query_q1())
        best = min(best, time.perf_counter() - start)
    return best


def _slice_classes(db) -> tuple[int, int]:
    """``(slices, shape classes)`` of the per-student OR step of q1."""
    root = batch_count_vectors(db, query_q1()).root
    students = next(child for child in root.parts if child.kind == OR)
    return len(students.parts), len({child.shape for child in students.parts})


def _exponent(sizes, seconds) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in seconds]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return numerator / sum((x - mean_x) ** 2 for x in xs)


def _batch_ladder(report, title: str, databases) -> None:
    rows, sizes, seconds = [], [], []
    for n, db in databases:
        elapsed = _batch_seconds(db)
        slices, classes = _slice_classes(db)
        sizes.append(n)
        seconds.append(elapsed)
        milliseconds = f"{elapsed * 1000:.1f} ms"
        rows.append((n, len(db.endogenous), slices, classes, milliseconds))
    rows.append(("fit", "", "", "", f"time ~ n^{_exponent(sizes, seconds):.2f}"))
    report(title, ("n", "|Dn|", "slices", "shape classes", "batch time"), rows)


def test_e2_batch_bit_identical_to_per_fact_cntsat():
    """The all-facts pass equals the seed per-fact CntSat at the quick size."""
    from harness.seed_cntsat import shapley_hierarchical as seed_shapley

    q1 = query_q1()
    for db in (
        star_join_database(12, 8, rng=random.Random(12)),
        _distinct_shapes_database(6),
    ):
        result = BatchAttributionEngine(executor=SerialExecutor()).batch(db, q1)
        for item in db.endogenous:
            assert result.shapley[item] == seed_shapley(db, q1, item)


@pytest.mark.slow
def test_e2_batch_shape_class_ladder(report):
    _batch_ladder(
        report,
        "E2: batch on star_join_database(n, 8), few shape classes",
        [(n, star_join_database(n, 8, rng=random.Random(n))) for n in (100, 200, 400)],
    )


def test_e2_batch_distinct_shape_ladder(report, quick):
    sizes = (8, 12) if quick else (20, 30, 40)
    databases = [(n, _distinct_shapes_database(n)) for n in sizes]
    for _, db in databases:
        slices, classes = _slice_classes(db)
        assert slices == classes
    _batch_ladder(
        report, "E2: batch with every student slice of its own shape", databases
    )


ANSWERS_QUERY = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")


def _best_seconds(call, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _answers_ladder(report, title: str, sizes) -> None:
    """``batch_answers`` (fresh serial engine) and ``candidate_answers``."""
    rows, answers_seconds, join_seconds = [], [], []
    for n in sizes:
        db = star_join_database(n, 8, rng=random.Random(n))
        answers_seconds.append(
            _best_seconds(
                lambda: BatchAttributionEngine(
                    executor=SerialExecutor()
                ).batch_answers(db, ANSWERS_QUERY)
            )
        )
        join_seconds.append(
            _best_seconds(lambda: candidate_answers(db, ANSWERS_QUERY))
        )
        rows.append(
            (
                n,
                len(db.endogenous),
                len(candidate_answers(db, ANSWERS_QUERY)),
                f"{answers_seconds[-1] * 1000:.1f} ms",
                f"{join_seconds[-1] * 1000:.2f} ms",
            )
        )
    if len(sizes) > 1:
        rows.append(
            (
                "fit",
                "",
                "",
                f"time ~ n^{_exponent(sizes, answers_seconds):.2f}",
                f"time ~ n^{_exponent(sizes, join_seconds):.2f}",
            )
        )
    report(
        title,
        ("n", "|Dn|", "answers", "batch_answers", "candidate_answers"),
        rows,
    )


def test_e2_answers_bit_identical_to_batch(report):
    """At the quick size, every answer equals ``batch`` on its grounding."""
    db = star_join_database(30, 8, rng=random.Random(30))
    engine = BatchAttributionEngine(executor=SerialExecutor())
    result = engine.batch_answers(db, ANSWERS_QUERY)
    assert set(result.per_answer) == set(candidate_answers(db, ANSWERS_QUERY))
    for answer, per_answer in result.per_answer.items():
        grounded = ground_at_answer(ANSWERS_QUERY, answer)
        single = BatchAttributionEngine(executor=SerialExecutor()).batch(db, grounded)
        assert per_answer.shapley == single.shapley
        assert per_answer.banzhaf == single.banzhaf
    _answers_ladder(report, "E2: batch_answers on star_join_database(30, 8)", (30,))


@pytest.mark.slow
def test_e2_answers_ladder(report):
    _answers_ladder(
        report,
        "E2: batch_answers and its candidate join on star_join_database(n, 8)",
        (30, 60, 120, 240),
    )
