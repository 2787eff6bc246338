"""Tests for the shared-work batch attribution engine (repro.engine)."""

import random
from fractions import Fraction
from math import factorial

import pytest

from harness.seed_cntsat import count_satisfying_subsets, shapley_all_values_per_fact
from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.facts import fact
from repro.core.parser import parse_query, parse_ucq
from repro.engine import (
    BatchAttributionEngine,
    batch_count_vectors,
    default_engine,
    fact_numerators,
)
from repro.engine.cache import LRUCache
from repro.engine.fingerprint import fingerprint_atoms, fingerprint_request
from repro.logic.cnf import CnfFormula
from repro.logic.counting import count_models, count_models_naive
from repro.shapley.approximate import approximate_shapley_all
from repro.shapley.banzhaf import banzhaf_all_brute_force, banzhaf_all_values
from repro.shapley.brute_force import shapley_all_brute_force
from repro.shapley.exact import shapley_all_values
from repro.shapley.exoshap import rewrite_to_hierarchical
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
    star_join_database,
)
from repro.workloads.queries import intro_export_query, q_rst
from repro.workloads.running_example import (
    EXAMPLE_2_3_SHAPLEY,
    figure_1_database,
    query_q2,
)


def _weights(n):
    """The Shapley coalition weights ``k!(n - 1 - k)!`` over ``n!``."""
    return [factorial(k) * factorial(n - 1 - k) for k in range(n)]


def _reference_numerators(db, q, f):
    """Seed-path ``(Shapley · n!, Banzhaf · 2^(n-1))`` numerators of ``f``.

    Two full CntSat runs on edited databases, weighted size by size.
    """
    sat_exo = count_satisfying_subsets(db.with_fact_exogenous(f), q)
    sat_del = count_satisfying_subsets(db.without_fact(f), q)
    weights = _weights(len(db.endogenous))
    differences = [a - b for a, b in zip(sat_exo, sat_del)]
    return sum(w * d for w, d in zip(weights, differences)), sum(differences)


def _assert_numerators_match_cntsat(db, q):
    vectors = batch_count_vectors(db, q)
    assert list(vectors.baseline) == count_satisfying_subsets(db, q)
    numerators = fact_numerators(vectors)
    assert set(numerators) | set(vectors.zero_facts) == set(db.endogenous)
    assert not set(numerators) & vectors.zero_facts
    for f in db.endogenous:
        assert numerators.get(f, (0, 0)) == _reference_numerators(db, q, f), f


class TestBatchVectors:
    def test_baseline_matches_cntsat(self, running_example_db, q1):
        vectors = batch_count_vectors(running_example_db, q1)
        assert list(vectors.baseline) == count_satisfying_subsets(
            running_example_db, q1
        )

    def test_per_fact_numerators_match_cntsat_on_edited_databases(
        self, running_example_db, q1
    ):
        # The backward pass must reproduce, for every fact, exactly the
        # numerators the seed pipeline computes from two fresh CntSat runs.
        _assert_numerators_match_cntsat(running_example_db, q1)

    def test_every_fact_is_covered_once(self, running_example_db, q1):
        vectors = batch_count_vectors(running_example_db, q1)
        live = set(fact_numerators(vectors))
        assert live | set(vectors.zero_facts) == set(running_example_db.endogenous)
        assert not live & vectors.zero_facts

    def test_irrelevant_facts_are_zero(self, q1):
        db = figure_1_database()
        db.add_endogenous(fact("Unrelated", 1))
        vectors = batch_count_vectors(db, q1)
        assert fact("Unrelated", 1) in vectors.zero_facts

    def test_property_random_hierarchical_instances(self, rng):
        # Randomized cross-check of the backward pass against the seed
        # CntSat on fresh per-fact databases: random hierarchical CQ¬s
        # (negated atoms, repeated variables), free facts that fail a
        # constant or repeated-variable pattern, facts outside the query,
        # and the hierarchical rewrite the ExoShap route runs on.
        checked = 0
        while checked < 12:
            q = random_hierarchical_query(rng=rng)
            db = random_database_for_query(q, domain_size=3, rng=rng)
            if not db.endogenous or len(db.endogenous) > 12:
                continue
            checked += 1
            _assert_numerators_match_cntsat(db, q)

        free = Database(
            endogenous=[
                fact("R", 1, 1),
                fact("R", 1, 2),  # free: constant mismatch
                fact("S", 1),
                fact("T", 1, 2, 2),
                fact("T", 1, 2, 3),  # free: repeated-variable mismatch
                fact("Unrelated", 4),  # outside the query
            ],
            exogenous=[fact("R", 2, 1), fact("T", 2, 5, 5)],
        )
        _assert_numerators_match_cntsat(
            free, parse_query("q() :- R(x, 1), not S(x), T(x, y, y)")
        )

        rewrite = rewrite_to_hierarchical(
            figure_1_database(), query_q2(), {"Stud", "Course"}
        )
        _assert_numerators_match_cntsat(rewrite.database, rewrite.query)


class TestBatchEngine:
    def test_running_example_values(self, running_example_db, q1):
        result = BatchAttributionEngine().batch(running_example_db, q1)
        assert result.method == "cntsat"
        assert dict(result.shapley) == EXAMPLE_2_3_SHAPLEY

    def test_matches_seed_per_fact_loop(self, running_example_db, q1):
        batch = shapley_all_values(running_example_db, q1)
        seed = shapley_all_values_per_fact(running_example_db, q1)
        assert batch == seed

    def test_exoshap_route(self, running_example_db):
        q2 = query_q2()
        result = BatchAttributionEngine().batch(running_example_db, q2)
        assert result.method == "exoshap"
        assert dict(result.shapley) == shapley_all_brute_force(running_example_db, q2)

    def test_exoshap_route_on_export_scenario(self):
        from repro.workloads.generators import export_database

        db = export_database(3, 2, 2, rng=random.Random(5))
        q = intro_export_query()
        result = BatchAttributionEngine().batch(db, q)
        assert result.method == "exoshap"
        assert dict(result.shapley) == shapley_all_brute_force(db, q)

    def test_brute_force_route(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        result = BatchAttributionEngine().batch(db, q_rst())
        assert result.method == "brute-force"
        assert dict(result.shapley) == shapley_all_brute_force(db, q_rst())

    def test_ucq_route(self):
        u = parse_ucq("R(x) | S(x)")
        db = Database(endogenous=[fact("R", 1), fact("S", 1)])
        result = BatchAttributionEngine().batch(db, u)
        assert result.shapley[fact("R", 1)] == Fraction(1, 2)

    def test_banzhaf_from_same_vectors(self, running_example_db, q1):
        values = banzhaf_all_values(running_example_db, q1)
        assert values == banzhaf_all_brute_force(running_example_db, q1)

    def test_empty_database(self):
        q = parse_query("q() :- R(x)")
        result = BatchAttributionEngine().batch(Database(), q)
        assert result.shapley == {} and result.banzhaf == {}

    def test_efficiency_axiom(self, running_example_db, q1):
        values = shapley_all_values(running_example_db, q1)
        assert sum(values.values()) == 1

    def test_property_matches_brute_force(self, rng):
        checked = 0
        engine = BatchAttributionEngine()
        while checked < 8:
            q = random_hierarchical_query(rng=rng)
            db = random_database_for_query(q, domain_size=3, rng=rng)
            if not db.endogenous or len(db.endogenous) > 10:
                continue
            checked += 1
            result = engine.batch(db, q)
            assert dict(result.shapley) == shapley_all_brute_force(db, q)
            assert dict(result.banzhaf) == banzhaf_all_brute_force(db, q)

    def test_star_instance_matches_seed_loop(self, q1):
        db = star_join_database(8, 4, rng=random.Random(3))
        batch = shapley_all_values(db, q1)
        seed = shapley_all_values_per_fact(db, q1)
        assert batch == seed


class TestUpFrontValidation:
    def test_all_values_raises_with_player_count(self):
        # "auto" now degrades oversized brute force to sampling, so the
        # plan-time error is the "exact" policy's contract.
        db = Database(
            endogenous=[fact("R", i) for i in range(28)]
            + [fact("T", i) for i in range(2)],
            exogenous=[fact("S", 1, 1)],
        )
        with pytest.raises(IntractableQueryError, match="30"):
            shapley_all_values(db, q_rst(), policy="exact")

    def test_all_brute_force_raises_before_any_work(self):
        q = parse_query("q() :- R(x)")
        db = Database(endogenous=[fact("R", i) for i in range(30)])
        with pytest.raises(IntractableQueryError, match="30"):
            shapley_all_brute_force(db, q)

    def test_disallowed_brute_force_raises(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        with pytest.raises(IntractableQueryError):
            shapley_all_values(db, q_rst(), policy="exact")

    def test_warm_cache_does_not_bypass_brute_force_flag(self):
        db = Database(
            endogenous=[fact("R", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 2)],
        )
        engine = BatchAttributionEngine()
        assert engine.batch(db, q_rst()).method == "brute-force"
        with pytest.raises(IntractableQueryError):
            engine.batch(db, q_rst(), policy="exact")

    def test_mutating_a_result_does_not_corrupt_the_cache(self, q1):
        db = figure_1_database()
        engine = BatchAttributionEngine()
        first = engine.batch(db, q1)
        # Published mappings are read-only views; callers mutate a copy.
        with pytest.raises(TypeError):
            first.shapley[fact("TA", "Adam")] = Fraction(999)
        values = dict(first.shapley)
        values[fact("TA", "Adam")] = Fraction(999)
        second = engine.batch(db, q1)
        assert second.shapley[fact("TA", "Adam")] == Fraction(-3, 28)


class TestCacheAccounting:
    def test_result_cache_hit_on_repeat(self, running_example_db, q1):
        engine = BatchAttributionEngine()
        first = engine.batch(running_example_db, q1)
        assert not first.from_cache
        assert engine.stats["results"].misses == 1
        assert engine.stats["results"].hits == 0
        second = engine.batch(running_example_db, q1)
        assert second.from_cache
        assert engine.stats["results"].hits == 1
        assert dict(second.shapley) == dict(first.shapley)

    def test_component_cache_sees_traffic(self, running_example_db, q1):
        engine = BatchAttributionEngine()
        engine.batch(running_example_db, q1)
        stats = engine.stats["components"]
        assert stats.misses > 0

    def test_overlapping_requests_share_components(self):
        # Every slice of x holds the two-atom component S(s, y), T(s, y, z),
        # which the bundle cache keys.  Deleting one fact of slice a only
        # perturbs that slice: the other slices' components are served
        # from the cache.
        query = parse_query("q() :- R(x), S(x, y), T(x, y, z)")
        database = Database()
        for s in ("a", "b", "c"):
            database.add_exogenous(fact("R", s))
            database.add_endogenous(fact("S", s, "p"))
            database.add_endogenous(fact("T", s, "p", "u"))
            database.add_endogenous(fact("T", s, "p", "v"))
        engine = BatchAttributionEngine()
        engine.batch(database, query)
        before = engine.stats["components"].hits
        edited = database.without_fact(fact("T", "a", "p", "v"))
        engine.batch(edited, query)
        assert engine.stats["components"].hits >= before + 2

    def test_edited_database_is_a_different_key(self, running_example_db, q1):
        engine = BatchAttributionEngine()
        engine.batch(running_example_db, q1)
        edited = running_example_db.without_fact(fact("TA", "David"))
        result = engine.batch(edited, q1)
        assert not result.from_cache
        assert engine.stats["results"].misses == 2

    def test_default_engine_is_shared(self):
        assert default_engine() is default_engine()


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.stats.evictions == 1

    def test_zero_size_disables_storage(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.stats.misses == 1

    def test_get_or_compute_counts_hits_and_misses(self):
        cache = LRUCache(maxsize=4)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 41) == 41
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 41
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_hit_rate(self):
        cache = LRUCache(maxsize=4)
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)


class TestFingerprints:
    def test_alpha_equivalent_queries_collide(self):
        left = parse_query("q() :- R(x), S(x, y)")
        right = parse_query("q() :- R(a), S(a, b)")
        assert fingerprint_atoms(left.atoms) == fingerprint_atoms(right.atoms)

    def test_distinct_constants_do_not_collide(self):
        left = parse_query("q() :- R(x, 1)")
        right = parse_query("q() :- R(x, '1')")
        assert fingerprint_atoms(left.atoms) != fingerprint_atoms(right.atoms)

    def test_request_key_ignores_fact_insertion_order(self, q1):
        forward = Database(endogenous=[fact("R", 1), fact("R", 2)])
        backward = Database(endogenous=[fact("R", 2), fact("R", 1)])
        assert fingerprint_request(forward, q1, None) == fingerprint_request(
            backward, q1, None
        )


class TestApproximateShapleyAll:
    def test_shared_permutations_converge(self, running_example_db, q1):
        estimates = approximate_shapley_all(
            running_example_db,
            q1,
            epsilon=0.2,
            delta=0.05,
            rng=random.Random(7),
        )
        exact = shapley_all_values(running_example_db, q1)
        assert set(estimates) == set(exact)
        for f, estimate in estimates.items():
            assert estimate.within(exact[f])

    def test_explicit_sample_count(self, running_example_db, q1):
        estimates = approximate_shapley_all(
            running_example_db, q1, samples=32, rng=random.Random(1)
        )
        assert all(estimate.samples == 32 for estimate in estimates.values())


class TestCountModelsImprovements:
    def test_disconnected_components_multiply(self):
        # (x1 ∨ x2) and (x3 ∨ x4) are independent: 3 * 3 models.
        formula = CnfFormula.from_lists([[1, 2], [3, 4]])
        assert count_models(formula) == 9
        assert count_models_naive(formula) == 9

    def test_tautological_clause_is_ignored(self):
        formula = CnfFormula.from_lists([[1, -1], [2]])
        assert count_models(formula) == count_models_naive(formula) == 2

    def test_random_agreement_with_naive(self, rng):
        from repro.logic.generators import random_3cnf

        for _ in range(15):
            formula = random_3cnf(num_variables=6, num_clauses=7, rng=rng)
            assert count_models(formula) == count_models_naive(formula)

    def test_cache_is_reused_across_calls(self):
        from repro.logic.counting import clear_counting_cache, counting_cache_stats

        clear_counting_cache()
        formula = CnfFormula.from_lists([[1, 2], [3, 4], [-1, 5]])
        expected = count_models_naive(formula)
        assert count_models(formula) == expected
        before = counting_cache_stats()
        assert count_models(formula) == expected
        after = counting_cache_stats()
        assert after.hits > before.hits
