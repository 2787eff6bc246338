"""The exact-integer kernel layer: every tier is the schoolbook reference.

The headline contracts (ISSUE 8):

* ``convolve_packed`` equals
  ``convolve_schoolbook`` on arbitrary vectors — including the negative
  entries ``subtract_vectors`` can produce, empty vectors, and length-1
  edge cases — and the tiered :func:`repro.util.kernels.convolve` front
  door equals it under every ``REPRO_KERNEL`` forcing;
* ``correlate`` — the adjoint of convolution the engine's backward pass
  runs on — equals the naive ``sum_j c[i + j] * r[j]`` on signed,
  empty, singleton and boundary-length inputs;
* ``binomial_row`` and ``reduced_shapley_weights``, built by exact
  integer recurrences, equal their ``comb`` closed forms;
* ``convolve_many``'s balanced product tree is bit-identical to the
  sequential left fold, with the historical semantics at the edges
  (empty product ``[1]``, any empty factor nulls to ``[]``);
* :class:`ShapleyAccumulator` reproduces the per-size
  ``shapley_coefficient`` multiply-add bit for bit, for integer and
  ``Fraction`` marginals alike;
* engine results are bit-identical across kernels and executors: serial
  vs ``jobs=2`` vs the schoolbook-forced reference under ``REPRO_KERNEL``
  sweeps, with the kernel counters visible in ``engine.stats``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    BatchAttributionEngine,
    SerialExecutor,
    ShardedExecutor,
    batch_count_vectors,
)
from repro.core.parser import parse_query
from repro.engine.results import fact_numerators, result_from_vectors
from repro.engine.plan import PlanRequest, build_plan
from repro.obs.counters import Counters
from repro.util import kernels
from repro.util.combinatorics import (
    binomial_vector,
    convolve,
    convolve_many,
    shapley_coefficient,
    subtract_vectors,
)
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
    star_join_database,
)
from repro.workloads.running_example import query_q1

entries = st.integers(min_value=-(10**6), max_value=10**6)
vectors = st.lists(entries, min_size=0, max_size=24)
counts = st.lists(st.integers(min_value=0, max_value=10**9), min_size=0, max_size=24)


@pytest.fixture(autouse=True)
def _auto_kernel(monkeypatch):
    """Each test starts from the default auto tier, whatever the env says."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    kernels.refresh_from_environment()
    yield
    kernels.refresh_from_environment()


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
        unsat = subtract_vectors(binomial_vector(12), [0] * 5 + [1] * 8)
        reference = kernels.convolve_schoolbook(unsat, unsat)
        assert kernels.convolve_packed(unsat, unsat) == reference

    def test_large_entries_do_not_overflow_limbs(self):
        big = [10**30, 1, 10**30]
        assert kernels.convolve_packed(big, big) == kernels.convolve_schoolbook(
            big, big
        )


class TestTieredDispatch:
    @settings(max_examples=100, deadline=None)
    @given(vectors, vectors, st.sampled_from(kernels.KERNEL_NAMES))
    def test_every_forced_tier_equals_schoolbook(self, left, right, name):
        reference = kernels.convolve_schoolbook(left, right)
        with kernels.use_kernel(name):
            assert kernels.convolve(left, right) == reference

    def test_auto_tier_switches_on_operand_size(self):
        assert kernels.tier_for_sizes(4, 4) == kernels.SCHOOLBOOK
        assert kernels.tier_for_sizes(64, 64) == kernels.PACKED

    def test_environment_refresh_parses_and_degrades(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "schoolbook")
        assert kernels.refresh_from_environment() == kernels.SCHOOLBOOK
        monkeypatch.setenv("REPRO_KERNEL", "  PACKED ")
        assert kernels.refresh_from_environment() == kernels.PACKED
        monkeypatch.setenv("REPRO_KERNEL", "no-such-kernel")
        assert kernels.refresh_from_environment() == kernels.AUTO
        monkeypatch.delenv("REPRO_KERNEL")
        assert kernels.refresh_from_environment() == kernels.AUTO
        # The retired gmpy tier is just another unknown value.
        monkeypatch.setenv("REPRO_KERNEL", "gmpy")
        assert kernels.refresh_from_environment() == kernels.AUTO

    def test_use_kernel_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            with kernels.use_kernel("fft"):
                pass  # pragma: no cover - never reached

    def test_counters_attribute_calls_to_the_executing_tier(self):
        kernels.reset_kernel_stats()
        with kernels.use_kernel(kernels.SCHOOLBOOK):
            kernels.convolve([1] * 40, [1] * 40)
        with kernels.use_kernel(kernels.PACKED):
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
        assert convolve_many([]) == [1]
        assert convolve_many([[2, 1]]) == [2, 1]
        assert convolve_many([[1, 1], [], [1, 1]]) == []
        assert convolve_many([[1, 1]] * 3) == [1, 3, 3, 1]

    def test_facade_routes_through_the_kernel_layer(self):
        kernels.reset_kernel_stats()
        convolve_many([[1, 1], [1, 2], [1, 3]])
        convolve([1, 1], [1, 1])
        stats = kernels.kernel_stats()
        assert stats.tree_products == 1
        assert stats.schoolbook_calls >= 3


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


class TestWeightTables:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_weights_are_the_lemma_32_numerators(self, n):
        weights = kernels.shapley_weights(n)
        assert len(weights) == n
        for k in (0, n // 2, n - 1):
            assert weights[k] == factorial(k) * factorial(n - 1 - k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=120))
    def test_cached_coefficient_matches_the_closed_form(self, n):
        for k in (0, n // 2, n - 1):
            assert shapley_coefficient(n, k) == Fraction(
                factorial(k) * factorial(n - 1 - k), factorial(n)
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_reduced_weights_divide_out_the_gcd(self, n):
        weights = kernels.shapley_weights(n)
        reduced, denominator = kernels.reduced_shapley_weights(n)
        common = reduce(gcd, weights)
        assert list(reduced) == [weight // common for weight in weights]
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
        assert kernels.binomial_row(n) == tuple(comb(n, k) for k in range(n + 1))
        if n:
            common = lcm(*range(1, n + 1))
            assert kernels.reduced_shapley_weights(n) == (
                tuple(common // (n * comb(n - 1, k)) for k in range(n)),
                common,
            )

    def test_recurrences_equal_the_comb_forms_up_to_300(self):
        for n in range(301):
            self._assert_tables_equal_the_comb_forms(n)

    @pytest.mark.parametrize("n", [1000, 3500])
    def test_recurrences_equal_the_comb_forms_at_large_n(self, n):
        self._assert_tables_equal_the_comb_forms(n)

    def test_binomial_row_matches_binomial_vector(self):
        for n in range(0, 30):
            assert binomial_vector(n) == list(kernels.binomial_row(n))

    def test_binomial_vector_returns_a_fresh_mutable_list(self):
        first = binomial_vector(7)
        first[0] = 999
        assert binomial_vector(7)[0] == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
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
            reference += shapley_coefficient(n, size) * marginal
        assert accumulator.value() == reference

    def test_accumulator_promotes_on_fraction_marginals(self):
        accumulator = kernels.ShapleyAccumulator(3)
        accumulator.add(0, 1)
        accumulator.add(1, Fraction(1, 2))
        accumulator.add(2, -2)
        expected = (
            shapley_coefficient(3, 0)
            + shapley_coefficient(3, 1) * Fraction(1, 2)
            - 2 * shapley_coefficient(3, 2)
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
        with kernels.use_kernel(kernels.SCHOOLBOOK):
            reference = BatchAttributionEngine(executor=SerialExecutor()).batch(
                db, query
            )
        for name in (kernels.PACKED, kernels.AUTO):
            with kernels.use_kernel(name):
                result = BatchAttributionEngine(executor=SerialExecutor()).batch(
                    db, query
                )
            _assert_identical(reference, result)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sharded_matches_schoolbook_serial_reference(self, seed):
        query, db = _instance(seed)
        with kernels.use_kernel(kernels.SCHOOLBOOK):
            reference = BatchAttributionEngine(executor=SerialExecutor()).batch(
                db, query
            )
        sharded = BatchAttributionEngine(executor=SHARDED).batch(db, query)
        _assert_identical(reference, sharded)

    def test_star_join_identical_across_kernels(self):
        db = star_join_database(20, 4, rng=random.Random(8))
        with kernels.use_kernel(kernels.SCHOOLBOOK):
            reference = BatchAttributionEngine(executor=SerialExecutor()).batch(
                db, query_q1()
            )
        with kernels.use_kernel(kernels.PACKED):
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

    def test_environment_forcing_applies_at_plan_time(self, monkeypatch):
        db = star_join_database(12, 3, rng=random.Random(9))
        monkeypatch.setenv("REPRO_KERNEL", "schoolbook")
        plan = build_plan(db, [PlanRequest(query_q1())])
        assert plan.kernel == kernels.SCHOOLBOOK
        monkeypatch.setenv("REPRO_KERNEL", "packed")
        plan = build_plan(db, [PlanRequest(query_q1())])
        assert plan.kernel == kernels.PACKED
        monkeypatch.delenv("REPRO_KERNEL")
        plan = build_plan(db, [PlanRequest(query_q1())])
        assert plan.kernel == kernels.AUTO

    def test_engine_stats_expose_kernel_counters(self):
        kernels.reset_kernel_stats()
        db = star_join_database(20, 4, rng=random.Random(10))
        engine = BatchAttributionEngine(executor=SerialExecutor())
        engine.batch(db, query_q1())
        snapshot = engine.stats["kernel"]
        assert isinstance(snapshot, Counters)
        assert snapshot.schoolbook_calls + snapshot.packed_calls > 0
        selections = (
            snapshot.plan_selections_schoolbook + snapshot.plan_selections_packed
        )
        assert selections == 1
        flat = engine.counters()
        assert flat["kernel.tree_products"] == snapshot.tree_products
        assert flat["kernel.schoolbook_calls"] == snapshot.schoolbook_calls

    def test_metrics_document_shape(self):
        document = kernels.kernel_metrics_document()
        assert document["active"] in kernels.KERNEL_NAMES
        assert set(document) == {"active", "counters"}
        assert set(document["counters"]) == {
            "schoolbook_calls",
            "packed_calls",
            "tree_products",
            "plan_selections_schoolbook",
            "plan_selections_packed",
        }
