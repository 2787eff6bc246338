"""Unit tests for the CntSat count-vector algorithm (Lemma 3.2).

Every case runs both counters — the public
:func:`repro.shapley.count_satisfying_subsets` and the seed recursion of
:mod:`harness.seed_cntsat` — and holds them against each other and
against the expected vector or enumeration.
"""

import random

import pytest

from harness.seed_cntsat import COUNTERS, counts_from_both
from repro.core.database import Database
from repro.core.errors import NotHierarchicalError, SelfJoinError
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.shapley.brute_force import satisfying_subset_counts
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
)
from repro.workloads.queries import q_rst
from repro.workloads.running_example import figure_1_database, query_q1


class TestBasicCounts:
    def test_single_positive_atom(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        assert counts_from_both(db, q) == [0, 2, 1]

    def test_exogenous_satisfies_everywhere(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("S", 1)], exogenous=[fact("R", 1)])
        # R exogenous satisfies q; the unrelated S fact is free.
        assert counts_from_both(db, q) == [1, 1]

    def test_negated_endogenous_blocker(self):
        q = parse_query("q() :- R(x), not T(x)")
        db = Database(endogenous=[fact("T", 1)], exogenous=[fact("R", 1)])
        assert counts_from_both(db, q) == [1, 0]

    def test_negated_exogenous_zeroes(self):
        q = parse_query("q() :- R(x), not T(x)")
        db = Database(
            endogenous=[fact("R", 1)], exogenous=[fact("T", 1)]
        )
        assert counts_from_both(db, q) == [0, 0]

    def test_conjunction_convolution(self):
        q = parse_query("q() :- R(x), S(y)")
        db = Database(
            endogenous=[fact("R", 1), fact("S", 1)],
        )
        # Need both facts: only the full subset works.
        assert counts_from_both(db, q) == [0, 0, 1]

    def test_or_over_root_values(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", i) for i in range(3)])
        assert counts_from_both(db, q) == [0, 3, 3, 1]

    def test_constants_restrict(self):
        q = parse_query("q() :- Reg(x, OS)")
        db = Database(
            endogenous=[fact("Reg", "a", "OS"), fact("Reg", "a", "AI")]
        )
        # Reg(a, AI) is free: it can never match the constant OS.
        assert counts_from_both(db, q) == [0, 1, 1]

    def test_repeated_variable_mismatch_is_free(self):
        q = parse_query("q() :- R(x, x)")
        db = Database(endogenous=[fact("R", 1, 1), fact("R", 1, 2)])
        assert counts_from_both(db, q) == [0, 1, 1]

    def test_running_example_counts(self):
        db = figure_1_database()
        assert counts_from_both(db, query_q1()) == (
            satisfying_subset_counts(db, query_q1())
        )


class TestGuards:
    def test_rejects_self_joins(self):
        q = parse_query("q() :- R(x), R(y)")
        for counter in COUNTERS:
            with pytest.raises(SelfJoinError):
                counter(Database(endogenous=[fact("R", 1)]), q)

    def test_rejects_non_hierarchical(self):
        db = Database(endogenous=[fact("R", 1)], exogenous=[fact("S", 1, 1), fact("T", 1)])
        for counter in COUNTERS:
            with pytest.raises(NotHierarchicalError):
                counter(db, q_rst())

    def test_vector_length(self):
        q = parse_query("q() :- R(x)")
        db = Database(
            endogenous=[fact("R", 1), fact("Z", 9)], exogenous=[fact("R", 2)]
        )
        counts = counts_from_both(db, q)
        assert len(counts) == len(db.endogenous) + 1


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_hierarchical_instances(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            q = random_hierarchical_query(rng=rng)
            db = random_database_for_query(
                q, domain_size=3, fill_probability=0.4, rng=rng
            )
            if len(db.endogenous) > 12:
                continue
            assert counts_from_both(db, q) == (
                satisfying_subset_counts(db, q)
            ), (q, sorted(db.facts, key=repr))

    def test_negation_heavy_query(self, rng):
        q = parse_query(
            "q() :- R(x), not A(x), S(x, y), not B(x, y)"
        )
        for _ in range(10):
            db = random_database_for_query(
                q, domain_size=2, fill_probability=0.5, rng=rng
            )
            if len(db.endogenous) > 12:
                continue
            assert counts_from_both(db, q) == (
                satisfying_subset_counts(db, q)
            )
