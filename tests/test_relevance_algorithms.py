"""Unit tests for IsPosRelevant / IsNegRelevant (Algorithms 2 and 3).

Each case runs on CQ¬s and on UCQ¬s that are polarity consistent as a
whole (Section 5.2, last paragraphs).
"""

import random

import pytest

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query, parse_ucq
from repro.relevance.algorithms import (
    PolarityError,
    is_negatively_relevant,
    is_positively_relevant,
    is_relevant,
    is_shapley_zero,
)
from repro.relevance.brute_force import (
    is_negatively_relevant_brute_force,
    is_positively_relevant_brute_force,
)
from repro.shapley.brute_force import shapley_brute_force
from repro.workloads.generators import (
    random_database_for_query,
    random_self_join_free_query,
)
from repro.workloads.queries import q_sat
from repro.workloads.running_example import figure_1_database, query_q1


class TestBasics:
    def test_positive_relevance(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", 1)])
        assert is_positively_relevant(db, q, fact("R", 1))
        assert not is_negatively_relevant(db, q, fact("R", 1))
        # In a union, the other disjunct's witness S(1) is suppressible.
        u = parse_ucq("R(x) | S(x)")
        db = Database(endogenous=[fact("R", 1), fact("S", 1)])
        assert is_positively_relevant(db, u, fact("R", 1))
        assert not is_negatively_relevant(db, u, fact("R", 1))

    def test_negative_relevance(self):
        q = parse_query("q() :- R(x), not T(x)")
        db = Database(endogenous=[fact("T", 1)], exogenous=[fact("R", 1)])
        assert is_negatively_relevant(db, q, fact("T", 1))
        assert not is_positively_relevant(db, q, fact("T", 1))
        u = parse_ucq("R(x), not T(x) | S(x)")
        assert is_negatively_relevant(db, u, fact("T", 1))
        assert not is_positively_relevant(db, u, fact("T", 1))

    def test_irrelevant_fact(self):
        # TA(David): David is registered to nothing, so the fact is inert.
        db = figure_1_database()
        assert not is_relevant(db, query_q1(), fact("TA", "David"))
        assert is_shapley_zero(db, query_q1(), fact("TA", "David"))

    def test_running_example_relevance_matches_shapley(self):
        db = figure_1_database()
        for f in sorted(db.endogenous, key=repr):
            zero = shapley_brute_force(db, query_q1(), f) == 0
            assert is_shapley_zero(db, query_q1(), f) == zero, f

    def test_polarity_consistency_required(self):
        q = parse_query("q() :- R(x, y), not R(y, x)")
        db = Database(endogenous=[fact("R", 1, 2)])
        with pytest.raises(PolarityError):
            is_positively_relevant(db, q, fact("R", 1, 2))
        # qSAT's disjuncts are each polarity consistent, the union is not.
        db = Database(endogenous=[fact("R", 0)])
        with pytest.raises(PolarityError):
            is_relevant(db, q_sat(), fact("R", 0))

    def test_rejects_non_endogenous_target(self):
        db = Database(exogenous=[fact("R", 1)])
        for q in (parse_query("q() :- R(x)"), parse_ucq("R(x) | S(x)")):
            with pytest.raises(ValueError):
                is_positively_relevant(db, q, fact("R", 1))


class TestBlockedWitness:
    def test_positive_relevance_needs_suppressible_blockers(self):
        # R(2) completes a satisfying match, but the query is already
        # satisfied exogenously — so the fact is irrelevant.
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", 2)], exogenous=[fact("R", 1)])
        assert not is_positively_relevant(db, q, fact("R", 2))
        # Completing one disjunct is not enough when another holds on Dx.
        u = parse_ucq("R(x) | S(x)")
        db = Database(endogenous=[fact("R", 1)], exogenous=[fact("S", 1)])
        assert not is_relevant(db, u, fact("R", 1))

    def test_canonical_coalition_uses_negative_facts(self):
        # q is satisfied via R(1) unless T(1) blocks it; positive relevance
        # of R(2) requires adding the blocker T(1) to the coalition —
        # exactly what the canonical Negq(Dn) \\ N construction does.
        q = parse_query("q() :- R(x), not T(x)")
        db = Database(
            endogenous=[fact("R", 2), fact("T", 1)], exogenous=[fact("R", 1)]
        )
        assert is_positively_relevant(db, q, fact("R", 2))

    def test_exogenous_blocker_kills_mapping(self):
        q = parse_query("q() :- R(x), not T(x)")
        db = Database(endogenous=[fact("R", 1)], exogenous=[fact("T", 1)])
        assert not is_positively_relevant(db, q, fact("R", 1))


def _cq_instance(rng):
    """A random polarity-consistent CQ¬ and a database for it."""
    while True:
        q = random_self_join_free_query(
            num_variables=rng.randint(2, 4),
            num_atoms=rng.randint(2, 4),
            rng=rng,
        )
        if q.is_polarity_consistent:
            return q, random_database_for_query(
                q, domain_size=3, fill_probability=0.35, rng=rng
            )


def _union_instance(text):
    """Random databases for a fixed UCQ¬, filled per disjunct."""
    union = parse_ucq(text)
    assert union.is_polarity_consistent

    def draw(rng):
        db = Database()
        for disjunct in union.disjuncts:
            extra = random_database_for_query(
                disjunct, domain_size=3, fill_probability=0.4, rng=rng
            )
            for item in extra.endogenous:
                if item not in db:
                    db.add_endogenous(item)
            for item in extra.exogenous:
                if item not in db:
                    db.add_exogenous(item)
        return union, db

    return draw


UNIONS = [
    pytest.param("R(x) | S(x)", id="union-R-S"),
    pytest.param("R(x), not T(x) | S(x, y)", id="union-RnotT-S"),
    pytest.param("R(x), S(x, y) | S(y, y), not T(y)", id="union-RS-SnotT"),
    pytest.param("R(x), not T(x) | R(x), not U(x)", id="union-RnotT-RnotU"),
]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("case", [*range(4), *UNIONS])
    def test_random_polarity_consistent_queries(self, case):
        # An int case draws random CQ¬s from that seed; a string case is
        # a UCQ¬ over random databases, seeded by its text.
        rng = random.Random(case)
        draw = _cq_instance if isinstance(case, int) else _union_instance(case)
        checked = 0
        while checked < 25:
            q, db = draw(rng)
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 10:
                continue
            f = rng.choice(endo)
            assert is_positively_relevant(db, q, f) == (
                is_positively_relevant_brute_force(db, q, f)
            ), (q, f)
            assert is_negatively_relevant(db, q, f) == (
                is_negatively_relevant_brute_force(db, q, f)
            ), (q, f)
            checked += 1
