"""Unit tests for the Monte-Carlo estimator and gap diagnostics."""

import random
from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.reductions.gap import gap_instance
from repro.shapley.approximate import (
    approximate_shapley,
    approximate_shapley_all,
    gap_property_floor,
    hoeffding_sample_count,
    multiplicative_sample_lower_bound,
)
from repro.workloads.running_example import figure_1_database, query_q1


class TestHoeffding:
    def test_monotone_in_epsilon_and_delta(self):
        assert hoeffding_sample_count(0.1, 0.05) > hoeffding_sample_count(0.2, 0.05)
        assert hoeffding_sample_count(0.1, 0.01) > hoeffding_sample_count(0.1, 0.1)

    def test_known_value(self):
        # n >= 2 ln(2/δ)/ε²; ε=0.1, δ=0.05 → 2·ln(40)/0.01 ≈ 738.
        assert hoeffding_sample_count(0.1, 0.05) == 738

    def test_rejects_bad_ranges(self):
        for epsilon, delta in ((0, 0.1), (1, 0.1), (0.1, 0), (0.1, 1)):
            with pytest.raises(ValueError):
                hoeffding_sample_count(epsilon, delta)


class TestSampling:
    def test_rejects_non_endogenous(self):
        q = parse_query("q() :- R(x)")
        db = Database(exogenous=[fact("R", 1)])
        with pytest.raises(ValueError, match="not an endogenous fact"):
            approximate_shapley(db, q, fact("R", 1), samples=1)

    def test_estimate_within_additive_epsilon(self):
        db = figure_1_database()
        target = fact("TA", "Adam")
        estimate = approximate_shapley(
            db, query_q1(), target, epsilon=0.15, delta=0.05,
            rng=random.Random(42),
        )
        assert estimate.within(Fraction(-3, 28))
        assert estimate.samples == hoeffding_sample_count(0.15, 0.05)

    def test_explicit_sample_count(self):
        db = figure_1_database()
        estimate = approximate_shapley(
            db, query_q1(), fact("TA", "David"), samples=50,
            rng=random.Random(7),
        )
        assert estimate.samples == 50
        # TA(David) is a null player: every marginal is 0.
        assert estimate.value == 0

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_non_positive_sample_counts(self, samples):
        db = figure_1_database()
        # Zero used to divide by zero; a negative count returned an
        # "estimate" of 0 over -3 samples.
        with pytest.raises(ValueError, match="samples must be positive"):
            approximate_shapley(db, query_q1(), fact("TA", "Adam"), samples=samples)
        with pytest.raises(ValueError, match="samples must be positive"):
            approximate_shapley_all(db, query_q1(), samples=samples)

    def test_negative_values_estimated_with_sign(self):
        db = figure_1_database()
        estimate = approximate_shapley(
            db, query_q1(), fact("TA", "Adam"), samples=600,
            rng=random.Random(3),
        )
        assert estimate.value < 0


class TestGapDiagnostics:
    def test_multiplicative_bound_grows_exponentially(self):
        small = gap_instance(2).expected_value
        smaller = gap_instance(4).expected_value
        assert multiplicative_sample_lower_bound(smaller) > (
            multiplicative_sample_lower_bound(small)
        )

    def test_lower_bound_exceeds_hoeffding_budget_on_gap_family(self):
        # Resolving the n=8 gap value multiplicatively needs far more
        # samples than any sane additive budget.
        value = gap_instance(8).expected_value
        assert multiplicative_sample_lower_bound(value) > 10**9

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            multiplicative_sample_lower_bound(Fraction(0))

    def test_gap_floor(self):
        db = figure_1_database()
        assert gap_property_floor(db) == Fraction(1, 8 * 9)
        with pytest.raises(ValueError):
            gap_property_floor(Database())

    def test_gap_family_violates_poly_floor(self):
        # The Section 5.1 family drops below the 1/poly floor quickly —
        # the quantitative content of "the gap property fails for CQ¬s".
        inst = gap_instance(5)
        assert 0 < inst.expected_value < gap_property_floor(inst.database)
