"""The exact-integer kernel layer: every tier is the schoolbook reference.

The headline contracts (ISSUE 8):

* ``convolve_packed`` equals
  ``convolve_schoolbook`` on arbitrary vectors — including the negative
  entries an UNSAT vector difference can hold, empty vectors, and length-1
  edge cases — and the tiered :func:`repro.util.kernels.convolve` front
  door equals it with ``PACK_THRESHOLD`` patched to ``0`` (every call
  packed), to ``math.inf`` (every call schoolbook) and left alone;
* ``correlate`` — the adjoint of convolution the engine's backward pass
  runs on — equals the naive ``sum_j c[i + j] * r[j]`` on signed,
  empty, singleton and boundary-length inputs;
* ``binomial_row`` and ``reduced_shapley_weights``, built by exact
  integer recurrences, equal their ``comb`` closed forms, the weight
  table equals ``k!(n-k-1)!/n!`` as ``math.factorial`` gives it, and no
  function of the layer is memoized process-wide;
* ``convolve_many``'s balanced product tree is bit-identical to the
  sequential left fold, with the historical semantics at the edges
  (empty product ``[1]``, any empty factor nulls to ``[]``);
* :class:`ShapleyAccumulator` reproduces the per-size
  ``k!(n-k-1)!/n!`` multiply-add bit for bit, for integer and
  ``Fraction`` marginals alike;
* engine results are bit-identical across kernels and executors: the
  schoolbook-forced serial reference vs packed-forced serial, the size
  rule, and ``jobs=2`` under fork and spawn;
* the size rule is the only tier selector: a ``REPRO_KERNEL`` variable
  in the environment changes no counter, and the kernel counters of
  ``engine.stats`` are what the daemon's ``metrics`` operation reports.
"""

from __future__ import annotations

import math
import multiprocessing
import random
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from harness import running_daemon
from repro.engine import (
    BatchAttributionEngine,
    SerialExecutor,
    ShardedExecutor,
    batch_count_vectors,
)
from repro.core.parser import parse_query
from repro.engine.bundles import _subtract_vectors
from repro.engine.results import fact_numerators, result_from_vectors
from repro.obs.counters import Counters
from repro.server import AttributionClient
from repro.util import kernels
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
    star_join_database,
)
from repro.workloads.running_example import query_q1

entries = st.integers(min_value=-(10**6), max_value=10**6)
vectors = st.lists(entries, min_size=0, max_size=24)
counts = st.lists(st.integers(min_value=0, max_value=10**9), min_size=0, max_size=24)


#: ``PACK_THRESHOLD`` values that force a tier: every product is at
#: least ``0``, and none reaches ``math.inf``.
PACKED_ONLY = 0
SCHOOLBOOK_ONLY = math.inf


def _threshold(value):
    """Patch the size rule's cutover for one block (forces a tier)."""
    return mock.patch.object(kernels, "PACK_THRESHOLD", value)


class TestPackedKernel:
    @settings(max_examples=200, deadline=None)
    @given(vectors, vectors)
    def test_packed_equals_schoolbook_on_signed_vectors(self, left, right):
        assert kernels.convolve_packed(left, right) == kernels.convolve_schoolbook(
            left, right
        )

    @settings(max_examples=100, deadline=None)
    @given(counts, counts)
    def test_packed_equals_schoolbook_on_count_vectors(self, left, right):
        assert kernels.convolve_packed(left, right) == kernels.convolve_schoolbook(
            left, right
        )

    def test_empty_and_singleton_edges(self):
        for kernel in (kernels.convolve_schoolbook, kernels.convolve_packed):
            assert kernel([], [1, 2]) == []
            assert kernel([1, 2], []) == []
            assert kernel([], []) == []
            assert kernel([3], [5]) == [15]
            assert kernel([0], [0]) == [0]
            assert kernel([-2], [7, -1]) == [-14, 2]

    def test_subtract_vectors_output_is_convolvable(self):
        unsat = _subtract_vectors(kernels.binomial_row(12), [0] * 5 + [1] * 8)
        reference = kernels.convolve_schoolbook(unsat, unsat)
        assert kernels.convolve_packed(unsat, unsat) == reference

    def test_large_entries_do_not_overflow_limbs(self):
        big = [10**30, 1, 10**30]
        assert kernels.convolve_packed(big, big) == kernels.convolve_schoolbook(
            big, big
        )


class TestTieredDispatch:
    @settings(max_examples=100, deadline=None)
    @given(
        vectors,
        vectors,
        st.sampled_from((PACKED_ONLY, SCHOOLBOOK_ONLY, kernels.PACK_THRESHOLD)),
    )
    def test_every_forced_tier_equals_schoolbook(self, left, right, threshold):
        reference = kernels.convolve_schoolbook(left, right)
        with _threshold(threshold):
            assert kernels.convolve(left, right) == reference

    def test_auto_tier_switches_on_operand_size(self):
        assert kernels.tier_for_sizes(4, 4) == kernels.SCHOOLBOOK
        assert kernels.tier_for_sizes(64, 64) == kernels.PACKED
        with _threshold(PACKED_ONLY):
            assert kernels.tier_for_sizes(1, 1) == kernels.PACKED
        with _threshold(SCHOOLBOOK_ONLY):
            assert kernels.tier_for_sizes(10**6, 10**6) == kernels.SCHOOLBOOK

    def test_counters_attribute_calls_to_the_executing_tier(self):
        kernels.reset_kernel_stats()
        with _threshold(SCHOOLBOOK_ONLY):
            kernels.convolve([1] * 40, [1] * 40)
        with _threshold(PACKED_ONLY):
            kernels.convolve([1, 2], [3, 4])
        stats = kernels.kernel_stats()
        assert stats.schoolbook_calls == 1
        assert stats.packed_calls == 1


class TestProductTree:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(entries, min_size=1, max_size=8), max_size=8))
    def test_tree_equals_sequential_fold(self, factors):
        folded = reduce(kernels.convolve_schoolbook, factors, [1])
        assert kernels.convolve_many(factors) == folded

    def test_edge_semantics_match_the_historical_fold(self):
        assert kernels.convolve_many([]) == [1]
        assert kernels.convolve_many([[2, 1]]) == [2, 1]
        assert kernels.convolve_many([[1, 1], [], [1, 1]]) == []
        assert kernels.convolve_many([[1, 1]] * 3) == [1, 3, 3, 1]

    def test_bundles_route_every_product_through_the_kernel_module(self):
        # The engine looks ``kernels.convolve`` up at each call, so a patch
        # of it (as the layer recorder installs) sees every product that
        # the tier counters count.
        calls = []
        original = kernels.convolve

        def counted(left, right):
            calls.append(1)
            return original(left, right)

        database = star_join_database(6, 3, rng=random.Random(3))
        kernels.reset_kernel_stats()
        with mock.patch.object(kernels, "convolve", counted):
            batch_count_vectors(database, query_q1())
        stats = kernels.kernel_stats()
        assert stats.tree_products >= 1
        assert len(calls) == stats.schoolbook_calls + stats.packed_calls > 0


def _naive_correlate(coefficients, kernel, out_len):
    return [
        sum(
            coefficients[i + j] * kernel[j]
            for j in range(len(kernel))
            if i + j < len(coefficients)
        )
        for i in range(out_len)
    ]


class TestCorrelate:
    @settings(max_examples=200, deadline=None)
    @given(vectors, vectors, st.integers(min_value=0, max_value=30))
    def test_correlate_equals_naive_sum_on_signed_vectors(
        self, coefficients, kernel, out_len
    ):
        assert kernels.correlate(coefficients, kernel, out_len) == _naive_correlate(
            coefficients, kernel, out_len
        )

    @settings(max_examples=100, deadline=None)
    @given(vectors, st.lists(entries, min_size=1, max_size=24))
    def test_out_len_at_the_boundaries(self, coefficients, kernel):
        # Both loop orders meet at out_len == len(kernel); the "valid"
        # length len(coefficients) - len(kernel) + 1 is what the engine asks
        # for, and anything longer runs off the end into zeros.
        valid = max(0, len(coefficients) - len(kernel) + 1)
        edges = {len(kernel) - 1, len(kernel), len(kernel) + 1, valid, valid + 1}
        for out_len in edges:
            assert kernels.correlate(coefficients, kernel, out_len) == (
                _naive_correlate(coefficients, kernel, out_len)
            )

    @settings(max_examples=100, deadline=None)
    @given(vectors, st.lists(entries, min_size=1, max_size=12), vectors)
    def test_correlate_is_the_adjoint_of_convolve(self, cotangent, delta, rest):
        # <c, d * r> == <corr(c, r, len(d)), d>: the backward-pass identity.
        product = kernels.convolve_schoolbook(delta, rest)
        left = sum(c * p for c, p in zip(cotangent, product))
        pulled = kernels.correlate(cotangent, rest, len(delta))
        assert left == sum(g * d for g, d in zip(pulled, delta))

    def test_empty_and_singleton_edges(self):
        assert kernels.correlate([], [], 0) == []
        assert kernels.correlate([], [1, 2], 3) == [0, 0, 0]
        assert kernels.correlate([1, 2], [], 2) == [0, 0]
        assert kernels.correlate([3], [5], 1) == [15]
        assert kernels.correlate([-2, 7], [3], 2) == [-6, 21]
        assert kernels.correlate([1, 2, 3], [1, -1], 2) == [-1, -1]
        with pytest.raises(ValueError):
            kernels.correlate([1], [1], -1)


def _factorial_weight(n, k):
    """The Shapley coalition weight ``k!(n-k-1)!/n!`` from ``math.factorial``."""
    return Fraction(factorial(k) * factorial(n - 1 - k), factorial(n))


class TestWeightTables:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=60))
    def test_weights_are_the_lemma_32_numerators(self, n):
        weights, denominator = kernels.reduced_shapley_weights(n)
        assert len(weights) == n
        assert denominator == lcm(*range(1, n + 1))
        scale = factorial(n) // denominator
        for k in range(n):
            assert weights[k] * scale == factorial(k) * factorial(n - 1 - k)
            assert Fraction(weights[k], denominator) == _factorial_weight(n, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_reduced_weights_divide_out_the_gcd(self, n):
        weights = [factorial(k) * factorial(n - 1 - k) for k in range(n)]
        reduced, denominator = kernels.reduced_shapley_weights(n)
        common = reduce(gcd, weights)
        assert reduced == [weight // common for weight in weights]
        assert reduce(gcd, reduced) == 1
        assert denominator * common == factorial(n)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_reduced_and_unreduced_assembly_agree(self, students, courses, p, seed):
        # Up to 36 players; no student means no player at all.
        database = star_join_database(
            students, courses, p, p, rng=random.Random(seed)
        )
        vectors = batch_count_vectors(database, query_q1())
        players = vectors.total_players
        result = result_from_vectors(vectors, "cntsat")
        expected = {item: (Fraction(0), Fraction(0)) for item in vectors.zero_facts}
        for item, (shapley, banzhaf) in fact_numerators(vectors).items():
            expected[item] = (
                Fraction(shapley, factorial(players)),
                Fraction(banzhaf, 2 ** (players - 1)),
            )
        assert set(result.shapley) == set(expected) == set(database.endogenous)
        for item, (shapley, banzhaf) in expected.items():
            assert result.shapley[item] == shapley
            assert result.banzhaf[item] == banzhaf

    @staticmethod
    def _assert_tables_equal_the_comb_forms(n):
        assert kernels.binomial_row(n) == [comb(n, k) for k in range(n + 1)]
        if n:
            common = lcm(*range(1, n + 1))
            assert kernels.reduced_shapley_weights(n) == (
                [common // (n * comb(n - 1, k)) for k in range(n)],
                common,
            )

    def test_recurrences_equal_the_comb_forms_up_to_300(self):
        for n in range(301):
            self._assert_tables_equal_the_comb_forms(n)

    @pytest.mark.parametrize("n", [1000, 3500])
    def test_recurrences_equal_the_comb_forms_at_large_n(self, n):
        self._assert_tables_equal_the_comb_forms(n)

    def test_lcm_through_equals_math_lcm_up_to_400(self):
        for n in range(401):
            assert kernels._lcm_through(n) == math.lcm(*range(1, n + 1)), n

    def test_no_kernel_function_is_memoized(self):
        # A process-wide table memo would hold one row and one weight
        # table per player count a long-lived process ever served.
        memoized = [
            name
            for name, value in vars(kernels).items()
            if hasattr(value, "cache_info")
        ]
        assert memoized == []
        row = kernels.binomial_row(7)
        row[0] = 999
        assert kernels.binomial_row(7)[0] == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.data(),
    )
    def test_accumulator_equals_per_size_fraction_sum(self, n, data):
        marginals = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=-100, max_value=100),
                ),
                max_size=12,
            )
        )
        accumulator = kernels.ShapleyAccumulator(n)
        reference = Fraction(0)
        for size, marginal in marginals:
            accumulator.add(size, marginal)
            reference += _factorial_weight(n, size) * marginal
        assert accumulator.value() == reference

    def test_accumulator_promotes_on_fraction_marginals(self):
        accumulator = kernels.ShapleyAccumulator(3)
        accumulator.add(0, 1)
        accumulator.add(1, Fraction(1, 2))
        accumulator.add(2, -2)
        expected = (
            _factorial_weight(3, 0)
            + _factorial_weight(3, 1) * Fraction(1, 2)
            - 2 * _factorial_weight(3, 2)
        )
        assert accumulator.value() == expected
        assert isinstance(accumulator.value(), Fraction)


def _assert_identical(left, right):
    assert list(left.shapley) == list(right.shapley)
    for item in left.shapley:
        assert isinstance(right.shapley[item], Fraction)
        assert left.shapley[item] == right.shapley[item]
        assert left.banzhaf[item] == right.banzhaf[item]


def _instance(seed: int):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng=rng)
    database = random_database_for_query(query, domain_size=3, rng=rng)
    return query, database


# One sharded executor for the module (workers are shared per config).
SHARDED = ShardedExecutor(jobs=2)


class TestEngineBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_kernel_sweep_matches_schoolbook_reference(self, seed):
        query, db = _instance(seed)
        with _threshold(SCHOOLBOOK_ONLY):
            reference = BatchAttributionEngine(executor=SerialExecutor()).batch(
                db, query
            )
        for threshold in (PACKED_ONLY, kernels.PACK_THRESHOLD):
            with _threshold(threshold):
                result = BatchAttributionEngine(executor=SerialExecutor()).batch(
                    db, query
                )
            _assert_identical(reference, result)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sharded_matches_schoolbook_serial_reference(self, seed):
        query, db = _instance(seed)
        with _threshold(SCHOOLBOOK_ONLY):
            reference = BatchAttributionEngine(executor=SerialExecutor()).batch(
                db, query
            )
        sharded = BatchAttributionEngine(executor=SHARDED).batch(db, query)
        _assert_identical(reference, sharded)

    def test_star_join_identical_across_kernels(self):
        db = star_join_database(20, 4, rng=random.Random(8))
        with _threshold(SCHOOLBOOK_ONLY):
            reference = BatchAttributionEngine(executor=SerialExecutor()).batch(
                db, query_q1()
            )
        with _threshold(PACKED_ONLY):
            packed = BatchAttributionEngine(executor=SerialExecutor()).batch(
                db, query_q1()
            )
        _assert_identical(reference, packed)

    def test_star_join_answers_identical_serial_and_sharded(self):
        # Tape bundles computed in worker processes are shipped home and
        # shared across groundings through the BundlePool; the backward
        # pass over them must reproduce the serial values bit for bit.
        db = star_join_database(30, 8, rng=random.Random(30))
        query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        serial = BatchAttributionEngine(executor=SerialExecutor()).batch_answers(
            db, query
        )
        engine = BatchAttributionEngine(executor=SHARDED)
        sharded = engine.batch_answers(db, query)
        assert list(serial.per_answer) == list(sharded.per_answer)
        for answer, result in serial.per_answer.items():
            _assert_identical(result, sharded.per_answer[answer])
        stats = engine.stats["executor"]
        assert stats.shipped > 0 or stats.fallbacks > 0

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sharded_start_methods_match_schoolbook_serial(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        db = star_join_database(20, 4, rng=random.Random(12))
        query = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        with _threshold(SCHOOLBOOK_ONLY):
            reference = BatchAttributionEngine(
                executor=SerialExecutor()
            ).batch_answers(db, query)
        engine = BatchAttributionEngine(
            executor=ShardedExecutor(jobs=2, start_method=start_method)
        )
        sharded = engine.batch_answers(db, query)
        assert list(reference.per_answer) == list(sharded.per_answer)
        for answer, result in reference.per_answer.items():
            _assert_identical(result, sharded.per_answer[answer])
        assert engine.stats["executor"].shipped > 0

    def test_repro_kernel_environment_is_ignored(self, monkeypatch):
        db = star_join_database(20, 4, rng=random.Random(9))

        def run():
            engine = BatchAttributionEngine(executor=SerialExecutor())
            return engine.batch(db, query_q1()), vars(engine.stats["kernel"])

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        reference, unset = run()
        monkeypatch.setenv("REPRO_KERNEL", "packed")
        result, forced = run()
        assert unset["schoolbook_calls"] > 0
        assert forced == unset
        _assert_identical(reference, result)

    def test_engine_stats_expose_kernel_counters(self):
        kernels.reset_kernel_stats()
        db = star_join_database(20, 4, rng=random.Random(10))
        engine = BatchAttributionEngine(executor=SerialExecutor())
        engine.batch(db, query_q1())
        snapshot = engine.stats["kernel"]
        assert isinstance(snapshot, Counters)
        assert snapshot.schoolbook_calls + snapshot.packed_calls > 0
        flat = engine.counters()
        assert flat["kernel.tree_products"] == snapshot.tree_products
        assert flat["kernel.schoolbook_calls"] == snapshot.schoolbook_calls

    def test_metrics_document_shape(self, tmp_path):
        # The daemon's kernel section is its engine's ``stats["kernel"]``.
        engine = BatchAttributionEngine(executor=SerialExecutor())
        db = star_join_database(8, 3, rng=random.Random(4))
        with running_daemon(tmp_path, engine=engine) as daemon:
            with AttributionClient(daemon.address) as client:
                client.batch(db, query_q1())
                document = client.metrics()["kernel"]
        assert document == {"counters": vars(engine.stats["kernel"])}
        assert list(document["counters"]) == list(kernels.KERNEL_COUNTERS)
        assert document["counters"]["schoolbook_calls"] > 0
