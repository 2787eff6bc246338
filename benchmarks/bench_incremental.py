"""E-INCREMENTAL — delta-scoped maintenance vs cold recomputation.

Three claims made executable (ISSUE 5 acceptance):

* **delta-scoped work** — after a 1-fact delta on a multi-answer
  ``hard_answers_database``, a warm engine re-executes only the *dirty*
  groundings' plan tasks (asserted via executor stats against the dirty
  count the delta actually induces); every untouched request is served
  across the version change through the relevance-scoped store keys.
* **component-scoped work** — on a multi-component CntSat query, a
  1-fact delta recomputes exactly the one dirty Gaifman component; the
  clean components hit the bundle caches (asserted via the engine's
  delta stats and :func:`repro.engine.delta.dirty_components`).
* **latency** (``-m slow``) — warm-delta maintenance beats cold
  recomputation on the successor database by ≥ 5x wall-clock on large
  instances.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.database import Database
from repro.core.facts import Fact, fact
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    DatabaseDelta,
    apply_delta,
    delta_touches_query,
    dirty_components,
)
from repro.shapley.aggregates import candidate_answers
from repro.shapley.answers import ground_at_answer
from repro.workloads.generators import hard_answers_database
from repro.workloads.queries import audit_query

SPEEDUP_FLOOR = 5.0


def _dirty_groundings(base, successor, query, delta) -> int:
    """How many of the successor's groundings a delta actually dirties.

    A grounding is dirty when it is new (not a candidate answer of the
    base version) or when some touched fact is relevant to its grounded
    Boolean query — everything else keeps its relevance-scoped store key
    across the version change.
    """
    previous = set(candidate_answers(base, query))
    dirty = 0
    for answer in candidate_answers(successor, query):
        grounded = ground_at_answer(query, tuple(answer))
        if tuple(answer) not in previous or delta_touches_query(delta, grounded):
            dirty += 1
    return dirty


def _assert_identical(left, right):
    assert set(left.per_answer) == set(right.per_answer)
    for answer, result in left.per_answer.items():
        other = right.per_answer[answer]
        assert dict(result.shapley) == dict(other.shapley)
        assert dict(result.banzhaf) == dict(other.banzhaf)


def test_one_fact_delta_reexecutes_only_dirty_groundings(benchmark, report, quick):
    """Executed tasks after a delta == dirty groundings, not all of them."""
    answers, core = (4, 3) if quick else (6, 3)
    query = audit_query()
    base = hard_answers_database(answers, core, rng=random.Random(5))
    delta = DatabaseDelta(added_endogenous=frozenset({fact("W", "w-new")}))
    successor = apply_delta(base, delta)
    dirty = _dirty_groundings(base, successor, query, delta)

    warm = BatchAttributionEngine()
    warm.batch_answers(base, query)
    cold_tasks = warm.executor_stats.tasks
    before = warm.executor_stats.tasks
    incremental = warm.batch_answers(successor, query)
    executed = warm.executor_stats.tasks - before

    assert executed <= dirty, (executed, dirty)
    assert dirty < cold_tasks  # the delta is genuinely small
    pruned = warm.planner_stats.pruned
    fresh = BatchAttributionEngine()
    _assert_identical(incremental, fresh.batch_answers(successor, query))

    benchmark(lambda: warm.batch_answers(successor, query))
    report(
        "E-INCREMENTAL: 1-fact delta on hard_answers_database",
        ("answers x |Dn|", "cold tasks", "delta tasks", "dirty", "pruned"),
        [
            (
                f"{answers}x{len(base.endogenous)}",
                cold_tasks,
                executed,
                dirty,
                pruned,
            )
        ],
    )


def test_one_fact_delta_recomputes_one_component(benchmark, report, quick):
    """CntSat family: one dirty Gaifman component, the rest cache hits."""
    components, facts_per = (6, 4) if quick else (10, 8)
    endogenous = [
        Fact(f"R{index}", (value,))
        for index in range(components)
        for value in range(facts_per)
    ]
    base = Database(endogenous=endogenous)
    query = parse_query(
        "q() :- " + ", ".join(f"R{index}(x{index})" for index in range(components))
    )
    delta = DatabaseDelta(added_endogenous=frozenset({fact("R0", 999)}))
    successor = apply_delta(base, delta)
    dirty, clean = dirty_components(successor, query, delta)
    assert len(dirty) == 1 and len(clean) == components - 1

    warm = BatchAttributionEngine()
    warm.batch(base, query)
    reused_before = warm.delta_stats.components_reused
    dirty_before = warm.delta_stats.components_dirty
    incremental = warm.batch(successor, query)
    recomputed = warm.delta_stats.components_dirty - dirty_before
    reused = warm.delta_stats.components_reused - reused_before

    assert recomputed <= len(dirty), (recomputed, dirty)
    assert reused >= len(clean), (reused, clean)
    fresh = BatchAttributionEngine().batch(successor, query)
    assert dict(incremental.shapley) == dict(fresh.shapley)

    benchmark(lambda: warm.batch(successor, query))
    report(
        "E-INCREMENTAL: component-scoped invalidation (CntSat)",
        ("components", "facts", "dirty", "recomputed", "reused"),
        [
            (
                components,
                len(successor.endogenous),
                len(dirty),
                recomputed,
                reused,
            )
        ],
    )


@pytest.mark.slow
def test_warm_delta_beats_cold_recompute_by_5x(report):
    """The acceptance floor: warm-delta latency ≥ 5x better than cold.

    The groundings of ``audit_query`` over ``hard_answers_database`` are
    independent coalition enumerations over their relevance slices
    (2^(1 + 2 * core) coalitions each); a 1-fact delta dirties
    exactly one of them, so a warm engine pays ~1/answers of the cold
    cost — far above the 5x floor on these sizes.
    """
    query = audit_query()
    rows = []
    speedups = []
    for answers, core in ((6, 4), (8, 4)):
        base = hard_answers_database(answers, core, rng=random.Random(11))
        delta = DatabaseDelta(added_endogenous=frozenset({fact("W", "w-new")}))
        successor = apply_delta(base, delta)
        dirty = _dirty_groundings(base, successor, query, delta)

        warm = BatchAttributionEngine()
        warm.batch_answers(base, query)
        tasks_before = warm.executor_stats.tasks
        start = time.perf_counter()
        incremental = warm.batch_answers(successor, query)
        warm_seconds = time.perf_counter() - start
        executed = warm.executor_stats.tasks - tasks_before

        cold_engine = BatchAttributionEngine()
        start = time.perf_counter()
        cold = cold_engine.batch_answers(successor, query)
        cold_seconds = time.perf_counter() - start

        _assert_identical(incremental, cold)
        assert executed <= dirty, (executed, dirty)
        speedup = cold_seconds / warm_seconds
        speedups.append(speedup)
        rows.append(
            (
                f"{answers}x{len(base.endogenous)}",
                f"{cold_seconds:.2f} s",
                f"{warm_seconds * 1000:.1f} ms",
                f"{executed}/{cold_engine.executor_stats.tasks}",
                f"{speedup:.1f}x",
            )
        )
    report(
        "E-INCREMENTAL: warm delta vs cold recompute (1-fact delta)",
        ("answers x |Dn|", "cold", "warm delta", "tasks", "speedup"),
        rows,
    )
    assert max(speedups) >= SPEEDUP_FLOOR, (
        f"expected >={SPEEDUP_FLOOR}x warm-delta advantage, got {speedups}"
    )
