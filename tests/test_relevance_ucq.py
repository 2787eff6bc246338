"""Unit tests for UCQ¬ relevance (Section 5.2, union-wide polarity).

Algorithms 2 and 3 take a UCQ¬ wherever they take a CQ¬; these cases
run the same deciders on unions.
"""

import random

import pytest

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_ucq
from repro.relevance.algorithms import (
    PolarityError,
    is_negatively_relevant,
    is_positively_relevant,
    is_relevant,
)
from repro.relevance.brute_force import (
    is_negatively_relevant_brute_force,
    is_positively_relevant_brute_force,
)
from repro.workloads.generators import random_database_for_query
from repro.workloads.queries import q_sat


class TestBasics:
    def test_disjunct_relevance_not_sufficient(self):
        # f completes disjunct R(x), but S(1) keeps the union true anyway.
        u = parse_ucq("R(x) | S(x)")
        db = Database(endogenous=[fact("R", 1)], exogenous=[fact("S", 1)])
        assert not is_relevant(db, u, fact("R", 1))

    def test_relevant_when_other_disjunct_suppressible(self):
        u = parse_ucq("R(x) | S(x)")
        db = Database(endogenous=[fact("R", 1), fact("S", 1)])
        assert is_positively_relevant(db, u, fact("R", 1))

    def test_negative_relevance_through_union(self):
        u = parse_ucq("R(x), not T(x) | S(x)")
        db = Database(endogenous=[fact("T", 1)], exogenous=[fact("R", 1)])
        assert is_negatively_relevant(db, u, fact("T", 1))

    def test_rejects_union_inconsistent_query(self):
        db = Database(endogenous=[fact("R", 0)])
        with pytest.raises(PolarityError):
            is_relevant(db, q_sat(), fact("R", 0))

    def test_rejects_non_endogenous(self):
        u = parse_ucq("R(x) | S(x)")
        db = Database(exogenous=[fact("R", 1)])
        with pytest.raises(ValueError):
            is_positively_relevant(db, u, fact("R", 1))


class TestAgainstBruteForce:
    UNIONS = [
        "R(x) | S(x)",
        "R(x), not T(x) | S(x, y)",
        "R(x), S(x, y) | S(y, y), not T(y)",
        "R(x), not T(x) | R(x), not U(x)",
    ]

    @pytest.mark.parametrize("text", UNIONS)
    def test_union_relevance_matches_oracle(self, text):
        rng = random.Random(hash(text) % (2**31))
        u = parse_ucq(text)
        assert u.is_polarity_consistent
        checked = 0
        while checked < 12:
            db = random_database_for_query(
                u.disjuncts[0], domain_size=3, fill_probability=0.4, rng=rng
            )
            for disjunct in u.disjuncts[1:]:
                extra = random_database_for_query(
                    disjunct, domain_size=3, fill_probability=0.4, rng=rng
                )
                for item in extra.endogenous:
                    if item not in db:
                        db.add_endogenous(item)
                for item in extra.exogenous:
                    if item not in db:
                        db.add_exogenous(item)
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 10:
                continue
            f = rng.choice(endo)
            assert is_positively_relevant(db, u, f) == (
                is_positively_relevant_brute_force(db, u, f)
            ), (text, f)
            assert is_negatively_relevant(db, u, f) == (
                is_negatively_relevant_brute_force(db, u, f)
            ), (text, f)
            checked += 1
