"""The delta-aware engine (ISSUE 5 acceptance criteria).

* :func:`repro.engine.delta.database_delta` / ``apply_delta`` round-trip
  arbitrary edits (insertions, deletions, endogenous/exogenous flips);
* **bit-identity**: for random CQ¬ queries and random fact deltas, a
  warm engine served across versions returns exactly (``Fraction``
  equality) what a cold engine computes on the successor database — on
  the serial and the ``jobs=2`` sharded backend, in-process and through
  the daemon (the daemon half lives in ``tests/test_server_delta.py``);
* **delta-scoped work**: a delta that leaves a request's relevant slice
  untouched executes *zero* new plan tasks (the relevance-scoped store
  key survives the version change), and the new irrelevant facts come
  back zero-filled;
* the durable store serves across versions and processes alike.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    FactIndex,
    DatabaseDelta,
    SQLiteResultStore,
    apply_delta,
    database_delta,
    delta_from_dict,
    delta_to_dict,
    delta_touches_query,
    dirty_components,
    relevant_facts,
)
from repro.workloads.generators import (
    random_database_for_query,
    random_delta,
    random_hierarchical_query,
)
from repro.workloads.running_example import figure_1_database, query_q1

seeds = st.integers(min_value=0, max_value=10_000)


def _instance(seed: int):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng=rng)
    database = random_database_for_query(query, domain_size=3, rng=rng)
    return rng, query, database


def _assert_bit_identical(left, right):
    """Same fact sets, exactly equal Fraction values, both measures."""
    assert set(left.shapley) == set(right.shapley)
    for item in left.shapley:
        assert left.shapley[item] == right.shapley[item]
        assert left.banzhaf[item] == right.banzhaf[item]
    assert left.player_count == right.player_count


class TestDeltaStructures:
    def test_diff_apply_round_trip_with_flips(self):
        base = Database(
            endogenous=[fact("R", 1), fact("R", 2), fact("S", 1)],
            exogenous=[fact("T", 1)],
        )
        successor = Database(
            endogenous=[fact("R", 1), fact("T", 1), fact("S", 2)],  # T flips in
            exogenous=[fact("S", 1)],  # S(1) flips out
        )
        delta = database_delta(base, successor)
        rebuilt = apply_delta(base, delta)
        assert rebuilt.endogenous == successor.endogenous
        assert rebuilt.exogenous == successor.exogenous
        accounting = delta.accounting(base)
        assert accounting["flipped"] == 2
        assert accounting["added"] == 1  # S(2)
        assert accounting["removed"] == 1  # R(2)

    def test_random_diffs_round_trip(self):
        for seed in range(30):
            rng, query, base = _instance(seed)
            successor = random_database_for_query(query, domain_size=3, rng=rng)
            delta = database_delta(base, successor)
            rebuilt = apply_delta(base, delta)
            assert rebuilt.endogenous == successor.endogenous
            assert rebuilt.exogenous == successor.exogenous

    def test_dict_round_trip(self):
        delta = DatabaseDelta(
            added_endogenous=frozenset({fact("R", 1, "x")}),
            added_exogenous=frozenset({fact("S", 2)}),
            removed=frozenset({fact("R", 0, "y")}),
        )
        assert delta_from_dict(delta_to_dict(delta)) == delta

    def test_malformed_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            delta_from_dict([])
        with pytest.raises(ValueError, match="list of fact rows"):
            delta_from_dict({"remove": "oops"})
        with pytest.raises(ValueError, match="malformed fact row"):
            delta_from_dict({"add_endogenous": [["R"]]})

    def test_overlapping_add_sides_rejected(self):
        with pytest.raises(ValueError, match="both endogenous and exogenous"):
            DatabaseDelta(
                added_endogenous=frozenset({fact("R", 1)}),
                added_exogenous=frozenset({fact("R", 1)}),
            )

    def test_accounting_ignores_same_side_readds(self):
        base = Database(endogenous=[fact("R", 1)], exogenous=[fact("S", 1)])
        delta = DatabaseDelta(
            added_endogenous=frozenset({fact("R", 1), fact("S", 1), fact("T", 9)})
        )
        accounting = delta.accounting(base)
        assert accounting["flipped"] == 1  # only S(1) changes sides
        assert accounting["added"] == 1  # only T(9) is new

    def test_removing_missing_fact_is_a_value_error(self):
        base = Database(endogenous=[fact("R", 1)])
        delta = DatabaseDelta(removed=frozenset({fact("R", 99)}))
        with pytest.raises(ValueError, match="does not hold"):
            apply_delta(base, delta)

    def test_applied_databases_never_alias_the_base(self):
        base = Database(endogenous=[fact("R", 1)])
        successor = apply_delta(
            base, DatabaseDelta(added_endogenous=frozenset({fact("R", 2)}))
        )
        assert fact("R", 2) not in base
        assert fact("R", 2) in successor


class TestRelevance:
    def test_relevant_facts_respect_constant_patterns(self):
        db = Database(
            endogenous=[fact("Reg", "ann", "db"), fact("Reg", "bob", "os")],
            exogenous=[fact("Stud", "ann"), fact("Audit", "x")],
        )
        query = parse_query("q() :- Stud('ann'), Reg('ann', y)")
        endogenous, exogenous = relevant_facts(db, query)
        assert endogenous == {fact("Reg", "ann", "db")}
        assert exogenous == {fact("Stud", "ann")}

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_fact_index_slices_equal_a_full_scan(self, seed):
        # Index lookups by constant must find exactly the facts a scan
        # with Atom.matches finds — repeated variables, cross-type equal
        # constants (1 == True) and wrong constants included.
        rng, query, database = _instance(seed)
        database.add_endogenous(fact("Unrelated", True))
        index = FactIndex(database)
        variables = sorted(query.variables, key=repr)
        for _ in range(4):
            assignment = {
                variable: rng.choice((0, 1, 2, True, 7))
                for variable in variables
                if rng.random() < 0.5
            }
            grounded = query.substitute(assignment)
            atoms = grounded.atoms
            scan = tuple(
                frozenset(
                    item for item in facts if any(atom.matches(item) for atom in atoms)
                )
                for facts in (database.endogenous, database.exogenous)
            )
            assert index.relevant(grounded) == scan
            assert relevant_facts(database, grounded) == scan

    def test_delta_touches_query(self):
        q1 = query_q1()
        inside = DatabaseDelta(added_endogenous=frozenset({fact("Reg", "x", "y")}))
        outside = DatabaseDelta(added_endogenous=frozenset({fact("Audit", "x")}))
        assert delta_touches_query(inside, q1)
        assert not delta_touches_query(outside, q1)

    def test_dirty_components_split(self):
        db = Database(
            endogenous=[fact("A", 1), fact("A", 2), fact("B", 7), fact("B", 8)]
        )
        query = parse_query("q() :- A(x), B(y)")
        delta = DatabaseDelta(added_endogenous=frozenset({fact("A", 3)}))
        successor = apply_delta(db, delta)
        dirty, clean = dirty_components(successor, query, delta)
        assert len(dirty) == 1 and len(clean) == 1


class TestIncrementalBitIdentity:
    """Warm-across-versions == cold-on-successor, exactly."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=seeds)
    def test_serial_backend(self, seed):
        rng, query, database = _instance(seed)
        warm = BatchAttributionEngine()
        warm.batch(database, query)
        # A chain of versions, each diffed off the previous one.
        for _ in range(3):
            delta = random_delta(database, rng=rng)
            database = apply_delta(database, delta)
            incremental = warm.batch(database, query)
            cold = BatchAttributionEngine().batch(database, query)
            _assert_bit_identical(incremental, cold)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=seeds)
    def test_sharded_backend(self, seed):
        rng, query, database = _instance(seed)
        warm = BatchAttributionEngine(jobs=2)
        warm.batch(database, query)
        for _ in range(2):
            delta = random_delta(database, rng=rng)
            database = apply_delta(database, delta)
            incremental = warm.batch(database, query)
            cold = BatchAttributionEngine().batch(database, query)
            _assert_bit_identical(incremental, cold)

    def test_answers_across_versions(self):
        database = figure_1_database()
        query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        warm = BatchAttributionEngine()
        warm.batch_answers(database, query)
        rng = random.Random(0xDE17A)
        for _ in range(4):
            delta = random_delta(database, rng=rng)
            database = apply_delta(database, delta)
            incremental = warm.batch_answers(database, query)
            cold = BatchAttributionEngine().batch_answers(database, query)
            assert set(incremental.per_answer) == set(cold.per_answer)
            for answer, result in incremental.per_answer.items():
                _assert_bit_identical(result, cold.per_answer[answer])


class TestDeltaScopedWork:
    def test_irrelevant_delta_executes_nothing(self, running_example_db, q1):
        engine = BatchAttributionEngine()
        engine.batch(running_example_db, q1)
        successor = apply_delta(
            running_example_db,
            DatabaseDelta(added_endogenous=frozenset({fact("Audit", "x")})),
        )
        before_tasks = engine.executor_stats.tasks
        before_pruned = engine.planner_stats.pruned
        served = engine.batch(successor, q1)
        assert engine.executor_stats.tasks == before_tasks
        assert engine.planner_stats.pruned == before_pruned + 1
        assert served.from_cache
        # The new fact is a null player, zero-filled on inflation.
        assert served.shapley[fact("Audit", "x")] == 0
        assert served.banzhaf[fact("Audit", "x")] == 0
        assert served.player_count == len(successor.endogenous)
        assert engine.delta_stats.facts_zero_filled >= 1
        assert engine.delta_stats.versions_seen == 2

    def test_removal_of_irrelevant_fact_is_also_free(self, q1):
        base = apply_delta(
            figure_1_database(),
            DatabaseDelta(added_endogenous=frozenset({fact("Audit", "x")})),
        )
        engine = BatchAttributionEngine()
        engine.batch(base, q1)
        successor = apply_delta(
            base, DatabaseDelta(removed=frozenset({fact("Audit", "x")}))
        )
        before = engine.executor_stats.tasks
        served = engine.batch(successor, q1)
        assert engine.executor_stats.tasks == before
        assert fact("Audit", "x") not in served.shapley

    def test_relevant_delta_recomputes(self, running_example_db, q1):
        engine = BatchAttributionEngine()
        engine.batch(running_example_db, q1)
        successor = apply_delta(
            running_example_db,
            DatabaseDelta(added_endogenous=frozenset({fact("Reg", "ann", "oop")})),
        )
        before = engine.executor_stats.tasks
        served = engine.batch(successor, q1)
        assert engine.executor_stats.tasks == before + 1
        assert not served.from_cache

    def test_untouched_answer_groundings_are_pruned(self):
        # One new student dirties only *their* grounding: every other
        # answer's request is served across the version change.
        database = figure_1_database()
        query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        engine = BatchAttributionEngine()
        baseline = engine.batch_answers(database, query)
        successor = apply_delta(
            database,
            DatabaseDelta(
                added_exogenous=frozenset({fact("Stud", "dora")}),
                added_endogenous=frozenset({fact("Reg", "dora", "db")}),
            ),
        )
        before = engine.planner_stats.pruned
        updated = engine.batch_answers(successor, query)
        pruned = engine.planner_stats.pruned - before
        assert pruned == len(baseline.per_answer)
        assert set(updated.per_answer) == set(baseline.per_answer) | {("dora",)}

    def test_sharded_bundle_reuse_is_counted(self):
        db = Database(
            endogenous=[fact("A", value) for value in range(4)]
            + [fact("B", value) for value in range(4)]
        )
        query = parse_query("q() :- A(x), B(y)")
        engine = BatchAttributionEngine(jobs=2)
        engine.batch(db, query)
        successor = apply_delta(
            db, DatabaseDelta(added_endogenous=frozenset({fact("A", 99)}))
        )
        before = engine.planner_stats.bundles_reused
        engine.batch(successor, query)
        # The B component kept its fingerprint across the delta and was
        # already warm at plan time.
        assert engine.planner_stats.bundles_reused == before + 1


class TestZeroFillAccounting:
    """``delta.facts_zero_filled``: one count per null player per result."""

    def _database(self):
        # Audit is an unrelated relation; Reg(bob, os) and TA(bob) fall
        # outside the grounding at ann, Reg(ann, db) outside the one at bob.
        return Database(
            endogenous=[
                fact("Reg", "ann", "db"),
                fact("Reg", "bob", "os"),
                fact("TA", "bob"),
                fact("Audit", "x"),
            ],
            exogenous=[fact("Stud", "ann"), fact("Stud", "bob")],
        )

    def _filled(self, engine, request):
        before = engine.delta_stats.facts_zero_filled
        request()
        return engine.delta_stats.facts_zero_filled - before

    def test_boolean_batch_cold_and_warm(self):
        db = self._database()
        query = parse_query("q() :- Stud(x), not TA(x), Reg(x, y)")
        engine = BatchAttributionEngine()
        assert self._filled(engine, lambda: engine.batch(db, query)) == 1
        assert self._filled(engine, lambda: engine.batch(db, query)) == 1
        assert engine.executor_stats.tasks == 1

    def test_answer_batch_cold_and_warm(self):
        db = self._database()
        query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        engine = BatchAttributionEngine()
        # ann fills TA(bob), Reg(bob, os), Audit(x); bob fills Reg(ann, db)
        # and Audit(x).
        assert self._filled(engine, lambda: engine.batch_answers(db, query)) == 5
        assert self._filled(engine, lambda: engine.batch_answers(db, query)) == 5
        assert engine.executor_stats.tasks == 2


class TestPersistentAcrossVersions:
    def test_disk_entries_survive_irrelevant_deltas(self, tmp_path, q1):
        database = figure_1_database()
        writer = BatchAttributionEngine(
            shared=SQLiteResultStore(tmp_path / "results.db")
        )
        writer.batch(database, q1)
        successor = apply_delta(
            database,
            DatabaseDelta(added_endogenous=frozenset({fact("Audit", "x")})),
        )
        reader = BatchAttributionEngine(
            shared=SQLiteResultStore(tmp_path / "results.db")
        )
        served = reader.batch(successor, q1)
        assert served.from_cache
        assert reader.executor_stats.tasks == 0
        assert served.shapley[fact("Audit", "x")] == 0

    def test_stats_expose_delta_layer(self, running_example_db, q1):
        engine = BatchAttributionEngine()
        engine.batch(running_example_db, q1)
        assert "delta" in engine.stats
        flat = engine.counters()
        assert "delta.versions_seen" in flat
        assert flat["delta.versions_seen"] == 1
