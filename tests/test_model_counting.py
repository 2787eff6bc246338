"""Unit tests for query model counting (Section 6 connection)."""

import random
from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.facts import fact
from repro.core.parser import parse_query, parse_ucq
from repro.probabilistic.lifted import query_probability_lifted
from repro.probabilistic.tid import TupleIndependentDatabase
from repro.shapley.brute_force import satisfying_subset_counts
from repro.shapley.model_counting import model_count, satisfaction_probability
from repro.workloads.generators import random_database_for_query
from repro.workloads.queries import (
    ACADEMIC_EXOGENOUS,
    SECTION_4_EXOGENOUS,
    academic_query,
    q_rst,
    section_4_q,
)
from repro.workloads.running_example import figure_1_database, query_q1


class TestModelCount:
    def test_single_fact(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", 1)])
        assert model_count(db, q) == 1  # only {R(1)}

    def test_two_facts(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        assert model_count(db, q) == 3  # both singletons + the pair

    def test_exogenous_shortcut(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("S", 1)], exogenous=[fact("R", 1)])
        assert model_count(db, q) == 2  # all subsets of the free S fact

    def test_negation(self):
        q = parse_query("q() :- R(x), not T(x)")
        db = Database(endogenous=[fact("T", 1)], exogenous=[fact("R", 1)])
        assert model_count(db, q) == 1  # the empty subset only

    def test_running_example(self):
        db = figure_1_database()
        # Cross-check the polynomial route against brute-force enumeration.
        from repro.shapley.brute_force import satisfying_subset_counts

        assert model_count(db, query_q1()) == sum(
            satisfying_subset_counts(db, query_q1())
        )

    def test_non_hierarchical_falls_back(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)], exogenous=[fact("S", 1, 2)]
        )
        assert model_count(db, q_rst()) == 1  # needs both facts

    def test_ucq_supported(self):
        u = parse_ucq("R(x) | S(x)")
        db = Database(endogenous=[fact("R", 1), fact("S", 1)])
        assert model_count(db, u) == 3

    def test_intractable_guard(self):
        db = Database(
            endogenous=[fact("R", i) for i in range(30)]
            + [fact("T", i) for i in range(2)],
            exogenous=[fact("S", 1, 1)],
        )
        with pytest.raises(IntractableQueryError):
            model_count(db, q_rst(), allow_brute_force=False)


class TestPlannerDispatch:
    """The planner picks the method on the relevance slice."""

    def test_unmatched_facts_double_the_count(self):
        # Thirty U facts no atom matches: the 2-fact slice is enumerated
        # and each unmatched fact doubles its one satisfying subset.
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)]
            + [fact("U", i) for i in range(30)],
            exogenous=[fact("S", 1, 2)],
        )
        assert model_count(db, q_rst()) == 2**30
        assert satisfaction_probability(db, q_rst()) == Fraction(1, 4)
        with pytest.raises(IntractableQueryError):
            model_count(db, q_rst(), allow_brute_force=False)

    def test_oversized_slice_still_refused(self):
        db = Database(
            endogenous=[fact("R", i) for i in range(13)]
            + [fact("T", i) for i in range(13)],
            exogenous=[
                fact("S", i, j)
                for i in range(13)
                for j in range(13)
                if (i + j) % 3 == 0
            ],
        )
        with pytest.raises(IntractableQueryError, match="26"):
            model_count(db, q_rst(), allow_brute_force=True)

    @pytest.mark.parametrize(
        "query, exogenous",
        [
            (section_4_q(), SECTION_4_EXOGENOUS),
            (academic_query(), ACADEMIC_EXOGENOUS),
        ],
        ids=["section-4", "academic"],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_exoshap_counts_without_enumeration(self, query, exogenous, seed):
        # Non-hierarchical, but X removes every non-hierarchical path:
        # the ExoShap rewrite counts them with brute force disabled.
        rng = random.Random(seed)
        for _ in range(6):
            db = random_database_for_query(
                query,
                domain_size=2,
                exogenous_relations=tuple(sorted(exogenous)),
                rng=rng,
            )
            assert model_count(db, query, allow_brute_force=False) == sum(
                satisfying_subset_counts(db, query)
            )


class TestSatisfactionProbability:
    def test_matches_count(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        assert satisfaction_probability(db, q) == Fraction(3, 4)

    def test_matches_lifted_half_probabilities(self):
        db = figure_1_database()
        tid = TupleIndependentDatabase()
        for item in db.exogenous:
            tid.add_deterministic(item)
        for item in db.endogenous:
            tid.add(item, Fraction(1, 2))
        assert satisfaction_probability(db, query_q1()) == (
            query_probability_lifted(tid, query_q1())
        )
