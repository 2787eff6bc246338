"""Engine-backed answer attribution: batches, pooling, keys, orderings.

Covers the PR 2 tentpole surface:

* ``batch_answers`` — one engine batch per grounding, cross-grounding
  bundle pooling, inconsistent-tuple handling;
* the grounding component of the request fingerprint — the collision
  regression for two groundings whose atom sets coincide;
* the documented deterministic orderings (facts and answers sorted by
  ``repr``) on every path out of the engine;
* the with/without sharing identity behind the per-fact numerators.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from harness.seed_cntsat import count_satisfying_subsets
from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.core.hierarchy import is_hierarchical
from repro.engine import (
    BatchAttributionEngine,
    BundlePool,
    DatabaseDelta,
    LRUCache,
    apply_delta,
    batch_count_vectors,
    fact_numerators,
    fingerprint_grounding,
    fingerprint_request,
    result_from_vectors,
)
from repro.shapley.aggregates import candidate_answers
from repro.shapley.answers import (
    answer_attribution,
    answers_attribution,
    ground_at_answer,
    head_assignment,
    shapley_for_answer,
)
from repro.shapley.banzhaf import banzhaf_all_brute_force
from repro.shapley.brute_force import shapley_all_brute_force, shapley_brute_force
from repro.workloads.generators import random_delta, star_join_database
from repro.workloads.running_example import figure_1_database


class TestBatchAnswers:
    def test_values_match_brute_force_per_grounding(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        engine = BatchAttributionEngine()
        batch = engine.batch_answers(db, q)
        assert set(batch.per_answer) == {("Adam",), ("Ben",), ("Caroline",)}
        for answer, result in batch.per_answer.items():
            grounded = ground_at_answer(q, answer)
            for item in db.endogenous:
                assert result.shapley[item] == shapley_brute_force(
                    db, grounded, item
                )

    def test_boolean_query_rejected(self):
        engine = BatchAttributionEngine()
        db = Database(endogenous=[fact("R", 1)])
        with pytest.raises(ValueError):
            engine.batch_answers(db, parse_query("q() :- R(x)"))

    def test_explicit_answers_restrict_the_batch(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        batch = BatchAttributionEngine().batch_answers(db, q, [("Caroline",)])
        assert list(batch.per_answer) == [("Caroline",)]

    def test_inconsistent_tuple_gets_zero_result(self):
        # Head (x, x): the tuple (1, 2) can never be an answer, so every
        # fact's value is exactly zero (method "inconsistent").
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        q = parse_query("ans(x, x) :- R(x)")
        batch = BatchAttributionEngine().batch_answers(
            db, q, [(1, 2), (2, 2)]
        )
        inconsistent = batch.per_answer[(1, 2)]
        assert inconsistent.method == "inconsistent"
        assert all(value == 0 for value in inconsistent.shapley.values())
        assert batch.per_answer[(2, 2)].shapley[fact("R", 2)] == 1

    def test_cross_grounding_pool_shares_context_components(self):
        # S(y) never mentions the head variable: its component bundle is
        # identical across groundings and must be computed exactly once.
        # Answer t has t R facts, so no two groundings are isomorphic and
        # each runs its own task.
        db = Database(
            endogenous=[fact("R", t, c) for t in (1, 2, 3) for c in range(t)]
            + [fact("S", 7)]
        )
        q = parse_query("ans(x) :- R(x, z), S(y)")
        engine = BatchAttributionEngine()
        batch = engine.batch_answers(db, q)
        assert len(batch.per_answer) == 3
        assert batch.pool_stats.hits >= 2, (
            "the S(y) component must be pooled across groundings: "
            f"{batch.pool_stats!r}"
        )

    def test_aggregate_helper_applies_linearity(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        batch = BatchAttributionEngine().batch_answers(db, q)
        totals = batch.aggregate(lambda row: 1)
        for item in db.endogenous:
            expected = sum(
                (result.shapley[item] for result in batch.per_answer.values()),
                Fraction(0),
            )
            assert totals.get(item, Fraction(0)) == expected

    def test_aggregate_helper_rejects_unknown_measure(self):
        db = Database(endogenous=[fact("R", 1)])
        q = parse_query("ans(x) :- R(x)")
        batch = BatchAttributionEngine().batch_answers(db, q)
        with pytest.raises(ValueError):
            batch.aggregate(lambda row: 1, measure="nucleolus")


class TestGroundingCollisions:
    """Satellite regression: groundings must never collide in the caches."""

    def test_repeated_head_variable_conflict_raises(self):
        q = parse_query("ans(x, x) :- R(x)")
        with pytest.raises(ValueError):
            ground_at_answer(q, (1, 2))
        assert ground_at_answer(q, (2, 2)).atoms[0].terms == (2,)

    def test_head_assignment_detects_conflicts(self):
        q = parse_query("ans(x, x) :- R(x)")
        assert head_assignment(q, (1, 2)) is None
        assert head_assignment(q, (2, 2)) == {q.head[0]: 2}

    def test_fingerprint_distinguishes_equal_atom_groundings(self):
        # The seed keyed the result cache on (database, query atoms, X)
        # alone; the groundings of head (x, x) at (1, 2) and (2, 2) both
        # substitute to R(2) and collided.  The grounding component keeps
        # them apart.
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        grounded = parse_query("q() :- R(2)")
        key_a = fingerprint_request(db, grounded, None, grounding=(1, 2))
        key_b = fingerprint_request(db, grounded, None, grounding=(2, 2))
        assert key_a != key_b
        assert fingerprint_request(db, grounded, None) not in (key_a, key_b)

    def test_fingerprint_distinguishes_type_punned_constants(self):
        # 1 == True == 1.0 in Python; the grounding fingerprint tags each
        # constant with its concrete type.
        assert fingerprint_grounding((1,)) != fingerprint_grounding((True,))
        assert fingerprint_grounding((1,)) != fingerprint_grounding((1.0,))

    def test_answer_attribution_end_to_end_no_collision(self):
        # End-to-end: ask about the inconsistent tuple first so a stale
        # cache entry would poison the consistent one (and vice versa).
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        q = parse_query("ans(x, x) :- R(x)")
        first = answer_attribution(db, q, (1, 2))
        assert all(value == 0 for value in first.values())
        second = answer_attribution(db, q, (2, 2))
        assert second[fact("R", 2)] == 1
        assert second[fact("R", 1)] == 0


class TestDeterministicOrdering:
    """Satellite regression: one documented ordering on every path."""

    def test_batch_orders_facts_by_repr(self):
        db = star_join_database(6, 3, rng=random.Random(5))
        q = parse_query("q1() :- Stud(x), not TA(x), Reg(x, y)")
        engine = BatchAttributionEngine()
        cold = engine.batch(db, q)
        warm = engine.batch(db, q)
        expected = sorted(db.endogenous, key=repr)
        assert list(cold.shapley) == expected
        assert list(cold.banzhaf) == expected
        assert list(warm.shapley) == expected, "cached path must agree"

    def test_answer_attribution_orders_facts_by_repr(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        values = answer_attribution(db, q, ("Adam",))
        assert list(values) == sorted(db.endogenous, key=repr)

    def test_answers_attribution_orders_answers_by_repr(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        per_answer = answers_attribution(db, q)
        assert list(per_answer) == sorted(per_answer, key=repr)
        for values in per_answer.values():
            assert list(values) == sorted(db.endogenous, key=repr)

    def test_brute_force_path_orders_facts_by_repr(self):
        # Self-join forces the brute-force fallback.
        db = Database(endogenous=[fact("R", 2), fact("R", 1), fact("R", 3)])
        q = parse_query("q() :- R(x), R(y), R(z)")
        result = BatchAttributionEngine().batch(db, q)
        assert result.method == "brute-force"
        assert list(result.shapley) == sorted(db.endogenous, key=repr)


class TestAnswerHelpers:
    def test_shapley_for_answer_requires_endogenous_target(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        with pytest.raises(ValueError):
            shapley_for_answer(db, q, ("Adam",), fact("Stud", "Adam"))

    def test_shapley_for_answer_inconsistent_tuple_is_zero(self):
        db = Database(endogenous=[fact("R", 1)])
        q = parse_query("ans(x, x) :- R(x)")
        assert shapley_for_answer(db, q, (1, 2), fact("R", 1)) == 0


def _weights(n):
    """The Shapley coalition weights ``k!(n - 1 - k)!`` over ``n!``."""
    return [factorial(k) * factorial(n - 1 - k) for k in range(n)]


class TestWithWithoutSharing:
    def test_numerators_follow_the_partition_identity(self):
        # Sat(k+1) = Sat^{+f}(k) + Sat^{-f}(k+1) turns each measure into a
        # baseline constant minus a functional of Sat^{-f} alone; the
        # backward pass must agree with the seed's two-vector form.
        db = Database(
            endogenous=[fact("R", 1), fact("R", 2), fact("S", 1, 1)],
            exogenous=[fact("S", 2, 2)],
        )
        q = parse_query("q() :- R(x), S(x, y)")
        vectors = batch_count_vectors(db, q, LRUCache(16))
        m = vectors.total_players
        weights = _weights(m)
        numerators = fact_numerators(vectors)
        assert set(numerators) == set(db.endogenous) - vectors.zero_facts
        for item, (shapley, banzhaf) in numerators.items():
            sat_del = count_satisfying_subsets(db.without_fact(item), q)
            sat_exo = count_satisfying_subsets(db.with_fact_exogenous(item), q)
            assert len(sat_exo) == m and len(sat_del) == m
            for k in range(m):
                below = sat_del[k + 1] if k + 1 < m else 0
                assert vectors.baseline[k + 1] == sat_exo[k] + below
            differences = [a - b for a, b in zip(sat_exo, sat_del)]
            assert shapley == sum(w * d for w, d in zip(weights, differences))
            assert banzhaf == sum(differences)

    def test_bundle_pool_reads_and_writes_through(self):
        backing = LRUCache(8)
        pool = BundlePool(backing)
        calls = []

        def make(value):
            def compute():
                calls.append(value)
                return value

            return compute

        assert pool.get_or_compute("a", make(1)) == 1
        assert pool.get_or_compute("a", make(99)) == 1  # local hit
        assert calls == [1]
        assert backing.get("a") == 1  # written through
        backing.put("b", 2)
        assert pool.get_or_compute("b", make(99)) == 2  # backing hit
        assert calls == [1]
        assert pool.stats.hits == 2 and pool.stats.misses == 1


# ----------------------------------------------------------------------
# Differential oracle: every grounding runs on its relevance slice, and
# the zero-filled result must equal a computation over the whole of D.
# ----------------------------------------------------------------------
SLICE_FAMILIES = {
    # Hierarchical groundings (CntSat): a plain head, a constant, and a
    # repeated head variable with an explicit inconsistent tuple.
    "cntsat": (
        ("ans(x) :- Stud(x), not TA(x), Reg(x, y)", None),
        ("ans(x) :- Stud(x), Reg(x, 'c1'), not TA(x)", None),
        ("ans(x, x) :- Stud(x), Reg(x, y)", ("a", "b")),
    ),
    # Every grounding is q2 of Example 2.3 with its faculty as a
    # constant in a negated exogenous atom: ExoShap on the slice.
    "exoshap": (
        ("ans(f) :- Fac(f), Stud(x), not TA(x), Reg(x, y), not Course(y, f)", None),
    ),
    # qRST behind a head constant: R facts of other answers are
    # irrelevant facts of a query relation.
    "brute-force": (("ans(w) :- R(w, x), S(x, y), T(y)", None),),
}


def _school(rng: random.Random, students: tuple[str, ...]) -> Database:
    db = Database(
        endogenous=[fact("Reg", "a", "c1"), fact("Audit", rng.choice(students))],
        exogenous=[fact("Stud", "a"), fact("Course", "c1", "CS")],
    )
    for name in students:
        if rng.random() < 0.7:
            db.add_exogenous(fact("Stud", name))
        if rng.random() < 0.4:
            db.add_endogenous(fact("TA", name))
        for course in ("c1", "c2"):
            if rng.random() < 0.5:
                db.add_endogenous(fact("Reg", name, course))
    db.add_exogenous(fact("Course", "c2", rng.choice(("CS", "EE"))))
    for faculty in ("CS", "EE", "ME"):
        db.add_exogenous(fact("Fac", faculty))
    return db


def _core(rng: random.Random) -> Database:
    db = Database(
        endogenous=[fact("R", "p", 1), fact("T", 2), fact("Audit", "p")],
        exogenous=[fact("S", 1, 2)],
    )
    for left in (1, 2):
        if rng.random() < 0.5:
            db.add_endogenous(fact("R", "q", left))
        if rng.random() < 0.5:
            db.add_endogenous(fact("T", left))
        for right in (1, 2):
            if rng.random() < 0.5:
                db.add_exogenous(fact("S", left, right))
    return db


def _family_database(family: str, rng: random.Random) -> Database:
    if family == "cntsat":
        return _school(rng, ("a", "b", "c"))
    if family == "exoshap":
        return _school(rng, ("a", "b"))
    return _core(rng)


def _full_database_reference(database, query, answer):
    """Both measures of ``q_t`` computed over all of ``D``, never a slice."""
    if head_assignment(query, answer) is None:
        zeros = {item: Fraction(0) for item in database.endogenous}
        return zeros, dict(zeros)
    grounded = ground_at_answer(query, answer).as_boolean()
    if grounded.is_self_join_free and is_hierarchical(grounded):
        result = result_from_vectors(batch_count_vectors(database, grounded), "cntsat")
        return dict(result.shapley), dict(result.banzhaf)
    assert len(database.endogenous) <= 12
    return (
        shapley_all_brute_force(database, grounded),
        banzhaf_all_brute_force(database, grounded),
    )


def _assert_matches_full_database(engine, database, query, extra):
    answers = set(candidate_answers(database, query))
    if extra is not None:
        answers.add(extra)
    batch = engine.batch_answers(database, query, answers)
    order = sorted(database.endogenous, key=repr)
    assert set(batch.per_answer) == answers
    for answer, result in batch.per_answer.items():
        shapley, banzhaf = _full_database_reference(database, query, answer)
        assert list(result.shapley) == order
        assert list(result.banzhaf) == order
        assert result.player_count == len(order)
        for item in order:
            assert type(result.shapley[item]) is Fraction
            assert result.shapley[item] == shapley[item], (answer, item)
            assert result.banzhaf[item] == banzhaf[item], (answer, item)
    return batch


class TestSliceEqualsFullDatabase:
    """Sliced groundings are bit-identical to groundings over all of D."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @pytest.mark.parametrize("family", sorted(SLICE_FAMILIES))
    def test_versions_and_store_hits(self, family, seed):
        rng = random.Random(seed)
        database = _family_database(family, rng)
        engine = BatchAttributionEngine()
        queries = [(parse_query(text), extra) for text, extra in SLICE_FAMILIES[family]]
        for query, extra in queries:
            batch = _assert_matches_full_database(engine, database, query, extra)
            methods = {result.method for result in batch.per_answer.values()}
            assert methods <= {family, "inconsistent"}, methods
        database = apply_delta(database, random_delta(database, rng=rng, max_changes=2))
        for query, extra in queries:
            _assert_matches_full_database(engine, database, query, extra)
        # An irrelevant edit: every consistent grounding is a store hit
        # across the version change, zero-filled to the new fact set.
        database = apply_delta(
            database, DatabaseDelta(added_endogenous=frozenset({fact("Audit", "zz")}))
        )
        before = engine.planner_stats.pruned
        consistent = 0
        for query, extra in queries:
            batch = _assert_matches_full_database(engine, database, query, extra)
            consistent += sum(
                result.method != "inconsistent" for result in batch.per_answer.values()
            )
        assert engine.planner_stats.pruned - before == consistent
