"""Unit tests for the stratified Shapley estimator."""

import random
from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.shapley.exact import shapley_hierarchical
from repro.shapley.stratified import (
    estimator_variance_comparison,
    stratified_shapley_estimate,
)
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


class TestVarianceComparison:
    def test_stratification_reduces_variance_on_running_example(self):
        db = figure_1_database()
        target = fact("Reg", "Caroline", "DB")
        plain, stratified = estimator_variance_comparison(
            db, query_q1(), target, budget=160, trials=12,
            rng=random.Random(4),
        )
        # Stratification should not noticeably increase variance; on this
        # instance it decreases it.
        assert stratified <= plain * 1.25

    def test_returns_nonnegative_variances(self):
        db = figure_1_database()
        plain, stratified = estimator_variance_comparison(
            db, query_q1(), fact("TA", "Ben"), budget=40, trials=5,
            rng=random.Random(5),
        )
        assert plain >= 0 and stratified >= 0


class TestEngineStrataFoldIn:
    """ISSUE 7 satellite: the allocator folded into the engine sampler.

    ``BatchAttributionEngine(sample_strata=s)`` spreads each antithetic
    round over ``s`` rotation offsets of one shuffled permutation —
    the stratified allocation idea of :mod:`repro.shapley.stratified`
    applied inside the engine's round stream.  The regression contract:
    the achieved epsilon never widens (it depends only on the round
    count, which the contract fixes), estimates stay within the
    contract of exact values, and ``strata=1`` is bit-identical to the
    historical sampler.
    """

    def _sampled(self, strata, **engine_options):
        from repro.engine import BatchAttributionEngine, MethodPolicy

        db = figure_1_database()
        engine = BatchAttributionEngine(sample_strata=strata, **engine_options)
        result = engine.batch(
            db, query_q1(), policy=MethodPolicy("sampled", epsilon=0.4, delta=0.1)
        )
        return db, result

    def test_strata_one_is_bit_identical_to_default(self):
        from repro.engine import BatchAttributionEngine, MethodPolicy

        db = figure_1_database()
        policy = MethodPolicy("sampled", epsilon=0.4, delta=0.1)
        default = BatchAttributionEngine().batch(db, query_q1(), policy=policy)
        explicit = BatchAttributionEngine(sample_strata=1).batch(
            db, query_q1(), policy=policy
        )
        assert dict(default.shapley) == dict(explicit.shapley)
        assert default.estimate.rounds == explicit.estimate.rounds
        assert default.estimate.epsilon == explicit.estimate.epsilon
        assert default.estimate.permutations == explicit.estimate.permutations

    @pytest.mark.parametrize("strata", [2, 3, 5])
    def test_stratification_never_widens_achieved_epsilon(self, strata):
        _, plain = self._sampled(1)
        _, stratified = self._sampled(strata)
        # The Hoeffding bound is a function of the round count alone —
        # each round's mean still lives in [-1, 1] — so the same
        # contract yields the same rounds and the same achieved bound.
        assert stratified.estimate.rounds == plain.estimate.rounds
        assert stratified.estimate.epsilon <= plain.estimate.epsilon
        # More sweeps per round, same bound: the extra work is free
        # accuracy, never a wider interval.
        assert (
            stratified.estimate.permutations
            == strata * plain.estimate.permutations
        )

    @pytest.mark.parametrize("strata", [2, 4])
    def test_stratified_estimates_stay_within_contract(self, strata):
        from repro.engine import BatchAttributionEngine

        db, result = self._sampled(strata)
        exact = BatchAttributionEngine().batch(db, query_q1(), policy="exact")
        for item, value in result.shapley.items():
            assert abs(value - exact.shapley[item]) <= Fraction(2, 5)

    def test_round_sweeps_shape(self):
        from repro.shapley.sampling import round_sweeps

        players = list(range(7))
        for strata in (1, 2, 3, 7, 11):
            sweeps = round_sweeps(list(players), random.Random(9), strata)
            # Always exactly 2*strata sweeps — the ``value_of`` divisor —
            # even when strata exceeds the player count.
            assert len(sweeps) == 2 * strata
            for forward, backward in zip(sweeps[::2], sweeps[1::2]):
                assert sorted(forward) == players
                assert backward == forward[::-1]

    def test_strata_states_never_collide_with_plain_states(self, tmp_path):
        from repro.engine import (
            BatchAttributionEngine,
            MethodPolicy,
            SQLiteResultStore,
        )

        db = figure_1_database()
        policy = MethodPolicy("sampled", epsilon=0.4, delta=0.1)
        plain = BatchAttributionEngine(
            shared=SQLiteResultStore(tmp_path / "results.db")
        ).batch(db, query_q1(), policy=policy)
        # A stratified engine sharing the store must not serve (or
        # clobber) the plain engine's estimate: its keys carry the
        # strata suffix.
        stratified_engine = BatchAttributionEngine(
            sample_strata=3, shared=SQLiteResultStore(tmp_path / "results.db")
        )
        stratified = stratified_engine.batch(db, query_q1(), policy=policy)
        assert stratified.estimate.permutations == 3 * plain.estimate.permutations
        # And the plain estimate is still served bit-identically.
        replay = BatchAttributionEngine(
            shared=SQLiteResultStore(tmp_path / "results.db")
        ).batch(db, query_q1(), policy=policy)
        assert dict(replay.shapley) == dict(plain.shapley)

    def test_stratified_state_round_trips_persistence(self, tmp_path):
        from repro.engine import (
            BatchAttributionEngine,
            MethodPolicy,
            SQLiteResultStore,
        )

        db = figure_1_database()
        policy = MethodPolicy("sampled", epsilon=0.4, delta=0.1)
        first = BatchAttributionEngine(
            sample_strata=2, shared=SQLiteResultStore(tmp_path / "results.db")
        ).batch(db, query_q1(), policy=policy)
        # A fresh stratified engine over the same store replays the
        # stored stratified state without recomputing a single round.
        replay = BatchAttributionEngine(
            sample_strata=2, shared=SQLiteResultStore(tmp_path / "results.db")
        ).batch(db, query_q1(), policy=policy)
        assert dict(replay.shapley) == dict(first.shapley)
        assert replay.estimate.permutations == first.estimate.permutations

    def test_refine_extends_stratified_stream(self):
        from repro.engine import BatchAttributionEngine, MethodPolicy

        db = figure_1_database()
        engine = BatchAttributionEngine(sample_strata=2)
        coarse = engine.batch(
            db, query_q1(), policy=MethodPolicy("sampled", epsilon=0.5, delta=0.1)
        )
        tight = engine.refine(db, query_q1(), epsilon=0.25, delta=0.1)
        assert tight.estimate.rounds > coarse.estimate.rounds
        assert tight.estimate.epsilon <= 0.25 + 1e-12
        assert tight.estimate.permutations == 4 * tight.estimate.rounds

    def test_invalid_strata_rejected(self):
        from repro.engine import BatchAttributionEngine
        from repro.shapley.sampling import run_rounds

        with pytest.raises(ValueError):
            BatchAttributionEngine(sample_strata=0)
        with pytest.raises(ValueError):
            run_rounds(figure_1_database(), query_q1(), 1, 0, 1, strata=0)
