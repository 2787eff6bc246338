"""Unit tests for fact-level Banzhaf values."""

from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.facts import fact
from repro.shapley.banzhaf import (
    banzhaf_brute_force,
    banzhaf_from_counts,
    banzhaf_value,
)
from repro.shapley.brute_force import satisfying_subset_counts
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
)
from repro.workloads.queries import q_rst
from repro.workloads.running_example import figure_1_database, query_q1, query_q2


class TestCountsRoute:
    def test_matches_brute_force_on_running_example(self):
        db = figure_1_database()
        for f in sorted(db.endogenous, key=repr):
            assert banzhaf_from_counts(db, query_q1(), f) == banzhaf_brute_force(
                db, query_q1(), f
            )

    def test_counter_is_pluggable(self):
        db = figure_1_database()
        f = fact("TA", "Adam")
        assert banzhaf_from_counts(
            db, query_q1(), f, counter=satisfying_subset_counts
        ) == banzhaf_brute_force(db, query_q1(), f)

    def test_random_hierarchical_instances(self, rng):
        checked = 0
        while checked < 8:
            q = random_hierarchical_query(rng=rng)
            db = random_database_for_query(q, domain_size=3, rng=rng)
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 9:
                continue
            f = rng.choice(endo)
            assert banzhaf_from_counts(db, q, f) == banzhaf_brute_force(db, q, f)
            checked += 1


class TestDispatcher:
    def test_exoshap_route(self):
        db = figure_1_database()
        for f in sorted(db.endogenous, key=repr)[:3]:
            assert banzhaf_value(
                db, query_q2(), f, exogenous_relations={"Stud", "Course"}
            ) == banzhaf_brute_force(db, query_q2(), f)

    def test_brute_force_fallback(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)], exogenous=[fact("S", 1, 2)]
        )
        assert banzhaf_value(db, q_rst(), fact("R", 1)) == Fraction(1, 2)

    def test_intractable_raises(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)], exogenous=[fact("S", 1, 2)]
        )
        with pytest.raises(IntractableQueryError):
            banzhaf_value(db, q_rst(), fact("R", 1), allow_brute_force=False)

    def test_same_zero_set_as_shapley(self):
        # The seed Shapley: banzhaf_value and the public Shapley functions
        # read one engine result, so the zero sets would agree by construction.
        from harness.seed_cntsat import shapley_hierarchical

        db = figure_1_database()
        for f in sorted(db.endogenous, key=repr):
            banzhaf = banzhaf_value(db, query_q1(), f)
            shapley = shapley_hierarchical(db, query_q1(), f)
            assert (banzhaf == 0) == (shapley == 0), f

    def test_rejects_non_endogenous(self):
        db = figure_1_database()
        with pytest.raises(ValueError):
            banzhaf_from_counts(db, query_q1(), fact("Stud", "Adam"))
