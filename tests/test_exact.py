"""Unit tests for the exact-Shapley dispatcher and the counts reduction."""

from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.errors import (
    IntractableQueryError,
    NotHierarchicalError,
    SelfJoinError,
)
from repro.core.facts import fact
from repro.core.parser import parse_query, parse_ucq
from repro.io import save_database
from repro.shapley.banzhaf import banzhaf_value
from repro.shapley.brute_force import (
    satisfying_subset_counts,
    shapley_all_brute_force,
    shapley_brute_force,
)
from repro.shapley.exact import (
    shapley_all_values,
    shapley_from_counts,
    shapley_hierarchical,
    shapley_value,
)
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
)
from repro.workloads.queries import q_rst
from repro.workloads.running_example import (
    EXAMPLE_2_3_SHAPLEY,
    figure_1_database,
    query_q1,
    query_q2,
)


class TestShapleyFromCounts:
    def test_reduction_is_algorithm_agnostic(self, rng):
        # Plugging the brute-force counter into the reduction must equal
        # direct brute-force Shapley (checks the reduction itself).
        q = parse_query("q() :- R(x), not T(x)")
        for _ in range(8):
            db = random_database_for_query(q, domain_size=3, rng=rng)
            if not db.endogenous or len(db.endogenous) > 10:
                continue
            f = sorted(db.endogenous, key=repr)[0]
            via_counts = shapley_from_counts(
                db, q, f, counter=satisfying_subset_counts
            )
            direct = shapley_brute_force(db, q, f)
            assert via_counts == direct

    def test_rejects_exogenous_target(self):
        q = parse_query("q() :- R(x)")
        db = Database(exogenous=[fact("R", 1)], endogenous=[fact("R", 2)])
        with pytest.raises(ValueError):
            shapley_from_counts(db, q, fact("R", 1))


class TestShapleyHierarchical:
    def test_running_example_values(self):
        db = figure_1_database()
        for f, expected in EXAMPLE_2_3_SHAPLEY.items():
            assert shapley_hierarchical(db, query_q1(), f) == expected

    def test_refuses_queries_outside_theorem_3_1(self):
        # q2 is tractable by ExoShap, but shapley_hierarchical must not
        # run it: Theorem 3.1's class needs a hierarchical query.
        db = figure_1_database()
        target = fact("TA", "Adam")
        with pytest.raises(NotHierarchicalError):
            shapley_hierarchical(db, query_q2(), target)
        with pytest.raises(SelfJoinError):
            shapley_hierarchical(db, parse_query("q() :- TA(x), TA(y)"), target)

    def test_random_agreement_with_brute_force(self, rng):
        for _ in range(10):
            q = random_hierarchical_query(rng=rng)
            db = random_database_for_query(q, domain_size=3, rng=rng)
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 10:
                continue
            f = endo[0]
            assert shapley_hierarchical(db, q, f) == shapley_brute_force(db, q, f)


class TestDispatcher:
    def test_routes_hierarchical(self):
        db = figure_1_database()
        f = fact("TA", "Adam")
        assert shapley_value(db, query_q1(), f) == Fraction(-3, 28)

    def test_routes_exoshap(self):
        # q2 is non-hierarchical, but Stud/Course are exogenous in the
        # running example, so the dispatcher must still answer exactly.
        db = figure_1_database()
        f = fact("TA", "Adam")
        expected = shapley_brute_force(db, query_q2(), f)
        assert shapley_value(db, query_q2(), f) == expected

    def test_falls_back_to_brute_force(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        f = fact("R", 1)
        assert shapley_value(db, q_rst(), f) == shapley_brute_force(db, q_rst(), f)

    def test_intractable_raises_without_brute_force(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        with pytest.raises(IntractableQueryError):
            shapley_value(db, q_rst(), fact("R", 1), allow_brute_force=False)

    def test_ucq_brute_force(self):
        u = parse_ucq("R(x) | S(x)")
        db = Database(endogenous=[fact("R", 1), fact("S", 1)])
        assert shapley_value(db, u, fact("R", 1)) == Fraction(1, 2)


class TestShapleyAllValues:
    def test_matches_brute_force_everywhere(self):
        db = figure_1_database()
        polynomial = shapley_all_values(db, query_q1())
        brute = shapley_all_brute_force(db, query_q1())
        assert polynomial == brute

    def test_efficiency_axiom_on_running_example(self):
        db = figure_1_database()
        values = shapley_all_values(db, query_q1())
        assert sum(values.values()) == 1


def _rst_with_unmatched_players():
    """q_rst over R(1), T(2), exogenous S(1, 2), plus 30 facts no atom matches."""
    return Database(
        endogenous=[fact("R", 1), fact("T", 2)]
        + [fact("U", i) for i in range(30)],
        exogenous=[fact("S", 1, 2)],
    )


def _rst_over_the_cap():
    """q_rst with a 26-fact relevance slice: past the brute-force cap."""
    return Database(
        endogenous=[fact("R", i) for i in range(13)]
        + [fact("T", i) for i in range(13)],
        exogenous=[
            fact("S", i, j)
            for i in range(13)
            for j in range(13)
            if (i + j) % 3 == 0
        ],
    )


class TestBruteForceCapsTheRelevanceSlice:
    """The per-fact functions cap brute force by the relevance slice, not |Dn|."""

    def test_unmatched_players_do_not_count(self):
        db = _rst_with_unmatched_players()
        assert shapley_value(db, q_rst(), fact("R", 1)) == Fraction(1, 2)
        assert banzhaf_value(db, q_rst(), fact("R", 1)) == Fraction(1, 2)
        assert shapley_value(db, q_rst(), fact("U", 0)) == 0

    def test_exact_only_still_refuses(self):
        db = _rst_with_unmatched_players()
        for function in (shapley_value, banzhaf_value):
            with pytest.raises(IntractableQueryError):
                function(db, q_rst(), fact("R", 1), allow_brute_force=False)

    def test_cli_single_fact(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(_rst_with_unmatched_players(), path)
        code = main(
            ["shapley", str(path), "q() :- R(x), S(x, y), T(y)", "--fact", "R", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("R(1): 1/2 ")

    def test_slice_over_the_cap_raises_instead_of_sampling(self):
        db = _rst_over_the_cap()
        for function in (shapley_value, banzhaf_value):
            with pytest.raises(IntractableQueryError, match="26 endogenous facts"):
                function(db, q_rst(), fact("R", 0))
