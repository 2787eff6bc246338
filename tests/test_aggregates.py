"""Unit tests for aggregate Shapley values (Section 3 remarks)."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.shapley.aggregates import (
    candidate_answers,
    shapley_aggregate,
    shapley_count,
    shapley_sum,
)
from repro.shapley.games import shapley_by_subsets


def brute_force_aggregate_shapley(database, query, target, value_of):
    """Direct Shapley of the aggregate game (ground truth for the tests)."""
    from repro.core.evaluation import answers

    players = sorted(database.endogenous, key=repr)
    exogenous = list(database.exogenous)

    def aggregate(facts) -> Fraction:
        return sum(
            (Fraction(value_of(row)) for row in answers(query, facts)),
            Fraction(0),
        )

    baseline = aggregate(exogenous)

    def value(coalition: frozenset) -> Fraction:
        return aggregate(exogenous + list(coalition)) - baseline

    return shapley_by_subsets(players, value, target)


@pytest.fixture
def export_db() -> Database:
    db = Database()
    db.add_exogenous(fact("Grows", "fr", "wine"))
    db.add_endogenous(fact("Export", "m1", "wine", "us"))
    db.add_endogenous(fact("Export", "m1", "cheese", "fr"))
    db.add_endogenous(fact("Export", "m2", "cheese", "us"))
    db.add_endogenous(fact("Profit", "us", "wine", 10))
    db.add_endogenous(fact("Profit", "us", "cheese", 4))
    return db


class TestCandidateAnswers:
    def test_includes_tuples_blocked_on_full_database(self):
        # y=1 is blocked by T(1) on the full database but reachable for
        # E = {R(1)}; candidate enumeration must include it.
        q = parse_query("ans(y) :- R(y), not T(y)")
        db = Database(endogenous=[fact("R", 1), fact("T", 1)])
        assert candidate_answers(db, q) == {(1,)}

    def test_rejects_boolean_query(self):
        q = parse_query("q() :- R(x)")
        with pytest.raises(ValueError):
            candidate_answers(Database(endogenous=[fact("R", 1)]), q)


class TestCount:
    def test_count_matches_direct_game(self):
        q = parse_query("ans(y) :- R(y), not T(y)")
        db = Database(
            endogenous=[fact("R", 1), fact("R", 2), fact("T", 1)]
        )
        for f in sorted(db.endogenous, key=repr):
            expected = brute_force_aggregate_shapley(db, q, f, lambda row: 1)
            assert shapley_count(db, q, f) == expected

    def test_count_linearity_on_disjoint_answers(self):
        q = parse_query("ans(x) :- R(x)")
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        # Each fact alone produces its own answer: Shapley = 1 each.
        assert shapley_count(db, q, fact("R", 1)) == 1
        assert shapley_count(db, q, fact("R", 2)) == 1


class TestSum:
    def test_paper_sum_example_shape(self, export_db):
        # Sum{{r | Export(p,c), ¬Grows(c,p), Profit(c,p,r)}} — the paper's
        # aggregate; head (p, c, r), value at position 2.
        q = parse_query(
            "ans(p, c, r) :- Export(m, p, c), not Grows(c, p), Profit(c, p, r)"
        )
        for f in sorted(export_db.endogenous, key=repr):
            expected = brute_force_aggregate_shapley(
                export_db, q, f, lambda row: row[2]
            )
            assert shapley_sum(export_db, q, f, value_index=2) == expected

    def test_sum_validates_value_index(self, export_db):
        q = parse_query("ans(p) :- Export(m, p, c)")
        with pytest.raises(ValueError):
            shapley_sum(export_db, q, fact("Export", "m1", "wine", "us"), 3)

    def test_sum_needs_head(self, export_db):
        q = parse_query("q() :- Export(m, p, c)")
        with pytest.raises(ValueError):
            shapley_sum(export_db, q, fact("Export", "m1", "wine", "us"), 0)


class TestGeneralAggregate:
    def test_zero_weights_skipped(self):
        q = parse_query("ans(x) :- R(x)")
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        value = shapley_aggregate(db, q, fact("R", 1), lambda row: 0)
        assert value == 0

    def test_weighted_aggregate(self):
        q = parse_query("ans(x) :- R(x)")
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        weight = {(1,): 5, (2,): 3}
        value = shapley_aggregate(db, q, fact("R", 1), lambda row: weight[row])
        assert value == 5


# ----------------------------------------------------------------------
# AnswerBatchResult.aggregate sums nonzero values only
# ----------------------------------------------------------------------
STUDENTS = ("s1", "s2", "s10")
COURSES = (1, 2, 3)


def dense_sum(batch, value_of, measure):
    """The reference: every fact of every weighted answer's mapping."""
    totals = {}
    for answer, result in batch.per_answer.items():
        weight = Fraction(value_of(answer))
        if not weight:
            continue
        for item, value in getattr(result, measure).items():
            totals[item] = totals.get(item, Fraction(0)) + weight * value
    return {item: totals[item] for item in sorted(totals, key=repr)}


@st.composite
def numeric_databases(draw) -> Database:
    """Students with numeric courses, each fact endogenous, exogenous or absent."""
    database = Database()
    for student in STUDENTS:
        facts = [fact("Stud", student), fact("TA", student)]
        facts += [fact("Reg", student, course) for course in COURSES]
        for item in facts:
            side = draw(st.sampled_from(("endogenous", "exogenous", "absent")))
            if side != "absent":
                database.add(item, endogenous=side == "endogenous")
    return database


class TestNonzeroSum:
    QUERY = parse_query("ans(x, y) :- Stud(x), not TA(x), Reg(x, y)")

    @settings(max_examples=30, deadline=None)
    @given(
        database=numeric_databases(),
        weighting=st.sampled_from(("count", "sum", "drawn", "none")),
        drawn=st.lists(st.integers(-2, 2), min_size=9, max_size=9),
        policy=st.sampled_from(("exact", "sampled")),
    )
    @example(  # no answers at all
        database=Database(endogenous=[fact("TA", "s1")]),
        weighting="count",
        drawn=[0] * 9,
        policy="exact",
    )
    def test_equals_the_dense_sum(self, database, weighting, drawn, policy):
        from repro.engine import BatchAttributionEngine, MethodPolicy
        from repro.engine.results import aggregate_spec

        engine = BatchAttributionEngine(jobs=1)
        chosen = MethodPolicy("sampled", epsilon=0.5) if policy == "sampled" else policy
        answers = [] if weighting == "none" else None
        batch = engine.batch_answers(database, self.QUERY, answers, policy=chosen)
        if weighting == "drawn":  # zero weights among them
            ranks = {answer: index for index, answer in enumerate(batch.per_answer)}

            def value_of(answer):
                return drawn[ranks[answer]]

        else:
            value_of, _ = aggregate_spec("sum" if weighting == "sum" else "count", 1, 2)
        for measure in ("shapley", "banzhaf"):
            got = batch.aggregate(value_of, measure)
            want = dense_sum(batch, value_of, measure)
            assert list(got.items()) == list(want.items())
            assert all(type(value) is Fraction for value in got.values())
            if policy == "sampled" and measure == "banzhaf":
                assert got == {}
