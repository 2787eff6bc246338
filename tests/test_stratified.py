"""Unit tests for the stratified Shapley estimator."""

import random
from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.shapley.exact import shapley_hierarchical
from repro.shapley.stratified import stratified_shapley_estimate
from repro.workloads.running_example import figure_1_database, query_q1


class TestStratifiedEstimate:
    def test_deterministic_game_is_exact(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", 1)])
        estimate = stratified_shapley_estimate(
            db, q, fact("R", 1), samples_per_stratum=3, rng=random.Random(0)
        )
        assert estimate.value == 1
        assert estimate.stratum_means == (Fraction(1),)

    def test_two_fact_game_exact_strata(self):
        # With m = 2, each stratum is deterministic: stratification gives
        # the exact value from any budget.
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        estimate = stratified_shapley_estimate(
            db, q, fact("R", 1), samples_per_stratum=1, rng=random.Random(1)
        )
        assert estimate.value == Fraction(1, 2)
        assert estimate.total_samples == 2

    def test_converges_on_running_example(self):
        db = figure_1_database()
        target = fact("TA", "Adam")
        exact = shapley_hierarchical(db, query_q1(), target)
        estimate = stratified_shapley_estimate(
            db, query_q1(), target, samples_per_stratum=400,
            rng=random.Random(2),
        )
        assert abs(estimate.value - exact) < Fraction(5, 100)

    def test_stratum_count_is_m(self):
        db = figure_1_database()
        estimate = stratified_shapley_estimate(
            db, query_q1(), fact("TA", "Adam"), samples_per_stratum=2,
            rng=random.Random(3),
        )
        assert len(estimate.stratum_means) == len(db.endogenous)

    def test_guards(self):
        db = figure_1_database()
        with pytest.raises(ValueError):
            stratified_shapley_estimate(
                db, query_q1(), fact("Stud", "Adam"), samples_per_stratum=1
            )
        with pytest.raises(ValueError):
            stratified_shapley_estimate(
                db, query_q1(), fact("TA", "Adam"), samples_per_stratum=0
            )

