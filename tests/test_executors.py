"""Executor backends: serial/sharded equivalence, fork/spawn safety.

The headline contracts (ISSUE 3):

* ``SerialExecutor`` and ``ShardedExecutor(jobs=2)`` return bit-identical
  ``Fraction`` Shapley/Banzhaf maps on randomized CQ¬ instances —
  including the sorted-by-``repr`` output ordering — and so do cold vs.
  store-pruned plans;
* worker processes start with empty per-process caches and never inherit
  or double-count the parent's default-engine stats (the
  ``register_at_fork`` reset path).
"""

from __future__ import annotations

import multiprocessing
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    SQLiteResultStore,
    SerialExecutor,
    ShardedExecutor,
    default_engine,
    reset_default_engine,
)
from repro.engine.core import _executor_from_environment
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
    star_join_database,
)
from repro.workloads.queries import q_rst
from repro.workloads.running_example import figure_1_database

seeds = st.integers(min_value=0, max_value=10_000)

# One sharded executor for the whole module: executors are stateless
# between calls and share worker pools per (jobs, start_method) anyway,
# so every test reuses the same two workers instead of booting its own.
SHARDED = ShardedExecutor(jobs=2)


def _assert_identical(left, right):
    """Bit-identical values AND the canonical sorted-by-repr ordering."""
    assert list(left.shapley) == list(right.shapley)
    assert list(left.banzhaf) == list(right.banzhaf)
    assert list(left.shapley) == sorted(left.shapley, key=repr)
    for item in left.shapley:
        assert isinstance(right.shapley[item], Fraction)
        assert left.shapley[item] == right.shapley[item]
        assert left.banzhaf[item] == right.banzhaf[item]
    assert left.method == right.method
    assert left.player_count == right.player_count


def _instance(seed: int):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng=rng)
    database = random_database_for_query(query, domain_size=3, rng=rng)
    return query, database


class TestBackendEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_serial_and_sharded_identical_on_random_cq(self, seed):
        query, db = _instance(seed)
        serial = BatchAttributionEngine(executor=SerialExecutor()).batch(db, query)
        sharded = BatchAttributionEngine(executor=SHARDED).batch(db, query)
        _assert_identical(serial, sharded)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_cold_and_store_pruned_identical_on_random_cq(self, tmp_path_factory, seed):
        query, db = _instance(seed)
        directory = tmp_path_factory.mktemp("store")
        cold = BatchAttributionEngine(
            shared=SQLiteResultStore(directory / "results.db")
        ).batch(db, query)
        pruned = BatchAttributionEngine(
            shared=SQLiteResultStore(directory / "results.db"), executor=SHARDED
        ).batch(db, query)
        assert not cold.from_cache
        if db.endogenous and cold.method != "brute-force":
            # Non-JSON-safe constants are never generated here, so the
            # second engine must be served from the store without work.
            assert pruned.from_cache
        _assert_identical(cold, pruned)

    def test_sharded_answers_identical_on_star_instance(self, q1):
        db = star_join_database(10, 4, rng=random.Random(17))
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        serial = BatchAttributionEngine(executor=SerialExecutor()).batch_answers(db, q)
        sharded = BatchAttributionEngine(executor=SHARDED).batch_answers(db, q)
        assert list(serial.per_answer) == list(sharded.per_answer)
        for answer, result in serial.per_answer.items():
            _assert_identical(result, sharded.per_answer[answer])

    def test_sharded_brute_force_groundings_identical(self):
        # Answer w has w + 1 exogenous L rows: no two groundings are
        # isomorphic, so all three brute-force tasks run (and ship).
        db = Database(
            endogenous=[fact("W", i) for i in range(3)]
            + [fact("R", 1), fact("R", 2), fact("T", 1), fact("T", 2)],
            exogenous=[fact("S", 1, 1), fact("S", 2, 2)]
            + [fact("L", i, row) for i in range(3) for row in range(i + 1)],
        )
        q = parse_query("ans(w) :- W(w), L(w, v), R(x), S(x, y), T(y)")
        serial = BatchAttributionEngine(executor=SerialExecutor()).batch_answers(db, q)
        engine = BatchAttributionEngine(executor=SHARDED)
        sharded = engine.batch_answers(db, q)
        for answer, result in serial.per_answer.items():
            assert result.method == "brute-force"
            _assert_identical(result, sharded.per_answer[answer])
        assert engine.stats["executor"].shipped == 3

    def test_spawn_start_method_identical(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        serial = BatchAttributionEngine(executor=SerialExecutor()).batch_answers(db, q)
        spawned = BatchAttributionEngine(
            executor=ShardedExecutor(jobs=2, start_method="spawn")
        ).batch_answers(db, q)
        for answer, result in serial.per_answer.items():
            _assert_identical(result, spawned.per_answer[answer])


class TestShardedMechanics:
    def test_bundle_nodes_are_shipped_and_merged(self):
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        engine = BatchAttributionEngine(executor=SHARDED)
        batch = engine.batch_answers(db, q)
        stats = engine.stats["executor"]
        assert stats.bundle_tasks >= 3  # one Reg(t, y) component per student
        assert stats.shipped >= 3
        # The merged bundles must serve the in-parent convolution tasks.
        assert batch.pool_stats.hits >= 3

    def test_single_task_plans_run_inline(self, running_example_db, q1):
        engine = BatchAttributionEngine(executor=ShardedExecutor(jobs=2))
        engine.batch(running_example_db, q1)
        # One bundle < MIN_SHARD_TASKS: nothing crosses a process.
        assert engine.stats["executor"].shipped == 0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardedExecutor(jobs=0)
        # The engine applies the same contract instead of a silent serial.
        with pytest.raises(ValueError):
            BatchAttributionEngine(jobs=0)

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        import repro.engine.executors as executors

        def _refuse(jobs, start_method):
            raise OSError("no process pools in this sandbox")

        monkeypatch.setattr(executors, "_worker_pool", _refuse)
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        engine = BatchAttributionEngine(executor=ShardedExecutor(jobs=2))
        batch = engine.batch_answers(db, q)
        serial = BatchAttributionEngine(executor=SerialExecutor()).batch_answers(db, q)
        for answer, result in serial.per_answer.items():
            _assert_identical(result, batch.per_answer[answer])
        assert engine.stats["executor"].fallbacks == 1
        assert engine.stats["executor"].shipped == 0


class TestBruteForceGrounding:
    def test_one_enumeration_serves_both_measures(
        self, monkeypatch, running_example_db, q1
    ):
        """Shapley and Banzhaf share one coalition enumeration: 2^m
        coalitions plus the ``q(Dx)`` baseline, each evaluated once."""
        import repro.shapley.brute_force as brute_force

        calls = 0
        original = brute_force.holds

        def counting_holds(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(brute_force, "holds", counting_holds)
        engine = BatchAttributionEngine(executor=SerialExecutor())
        result = engine.batch(running_example_db, q1, policy="brute-force")
        m = result.player_count
        assert m == 8
        assert calls == 2**m + 1
        assert result.shapley and result.banzhaf


class TestEnvironmentPlumbing:
    def test_repro_jobs_selects_sharded_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        engine = BatchAttributionEngine()
        assert isinstance(engine.executor, ShardedExecutor)
        assert engine.executor.jobs == 2
        assert engine.executor.start_method == "spawn"

    def test_unset_or_bad_env_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(_executor_from_environment(), SerialExecutor)
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert isinstance(_executor_from_environment(), SerialExecutor)
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert isinstance(_executor_from_environment(), SerialExecutor)
        # A typo'd start method loses parallelism, never breaks engines.
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_START_METHOD", "frok")
        assert isinstance(_executor_from_environment(), SerialExecutor)

    def test_unknown_start_method_fails_at_construction(self):
        with pytest.raises(ValueError, match="frok"):
            ShardedExecutor(jobs=2, start_method="frok")

    def test_jobs_shortcut_builds_sharded_executor(self):
        engine = BatchAttributionEngine(jobs=3)
        assert isinstance(engine.executor, ShardedExecutor)
        assert engine.executor.jobs == 3

    def test_explicit_jobs_one_beats_environment(self, monkeypatch):
        # Regression: --jobs 1 must stay serial even under REPRO_JOBS=2.
        monkeypatch.setenv("REPRO_JOBS", "2")
        engine = BatchAttributionEngine(jobs=1)
        assert isinstance(engine.executor, SerialExecutor)


def _fork_shard_probe(queue) -> None:
    """Runs in a forked child: shard with a child-owned pool, report back."""
    db = figure_1_database()
    q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
    engine = BatchAttributionEngine(executor=ShardedExecutor(jobs=2))
    batch = engine.batch_answers(db, q)
    queue.put(
        {
            "shipped": engine.stats["executor"].shipped,
            "shapley": [
                (answer, list(result.shapley.items()))
                for answer, result in batch.per_answer.items()
            ],
        }
    )


def _fork_probe(queue) -> None:
    """Runs in a forked child: report the state of the default engine."""
    engine = default_engine()
    stats = engine.stats
    results, components = stats["results"], stats["components"]
    queue.put(
        {
            "result_entries": len(engine.result_cache),
            "component_entries": len(engine.component_cache),
            "result_lookups": results.hits + results.misses,
            "component_lookups": components.hits + components.misses,
            "planner_requested": stats["planner"].requested,
            "executor_tasks": stats["executor"].tasks,
        }
    )


class TestForkSafety:
    def test_forked_child_starts_with_a_fresh_default_engine(
        self, running_example_db, q1
    ):
        """Regression: children must not inherit caches or stats (ISSUE 3)."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        reset_default_engine()
        parent = default_engine()
        parent.batch(running_example_db, q1)
        assert len(parent.result_cache) > 0
        results = parent.stats["results"]
        assert results.hits + results.misses > 0

        context = multiprocessing.get_context("fork")
        queue = context.SimpleQueue()
        child = context.Process(target=_fork_probe, args=(queue,))
        child.start()
        probe = queue.get()
        child.join()
        assert child.exitcode == 0
        assert probe == {
            "result_entries": 0,
            "component_entries": 0,
            "result_lookups": 0,
            "component_lookups": 0,
            "planner_requested": 0,
            "executor_tasks": 0,
        }
        # The parent engine is untouched by the child's fresh instance.
        assert len(parent.result_cache) > 0

    def test_reset_default_engine_discards_the_singleton(self):
        first = default_engine()
        reset_default_engine()
        second = default_engine()
        assert first is not second

    def test_forked_child_can_shard_and_exit_cleanly(self):
        """Regression: a forked worker that shards must not deadlock at exit.

        Two historical hangs: (1) the child inheriting the parent's pool
        objects (their manager threads do not exist after fork); (2) the
        child's *own* pool being joined by multiprocessing's exit
        function before the atexit shutdown could send worker sentinels.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        db = figure_1_database()
        q = parse_query("ans(x) :- Stud(x), not TA(x), Reg(x, y)")
        # Make sure the parent owns a live pool for the child to inherit.
        parent_engine = BatchAttributionEngine(executor=SHARDED)
        parent = parent_engine.batch_answers(db, q)

        context = multiprocessing.get_context("fork")
        queue = context.SimpleQueue()
        child = context.Process(target=_fork_shard_probe, args=(queue,))
        child.start()
        probe = queue.get()
        child.join(60)
        assert child.exitcode == 0, "forked sharded child must exit cleanly"
        assert probe["shipped"] == 3
        for answer, values in probe["shapley"]:
            assert dict(parent.per_answer[answer].shapley) == dict(values)


class TestStatsAliases:
    def test_old_keys_survive_next_to_layer_accounting(self, running_example_db, q1):
        engine = BatchAttributionEngine()
        engine.batch(running_example_db, q1)
        stats = engine.stats
        # Historical per-cache keys: aliases that existing scripts rely on.
        assert {"components", "results"} <= set(stats)
        # Per-layer accounting of the plan/execute split.
        assert stats["planner"].planned == 1
        assert stats["store"].misses == 1
        assert stats["executor"].tasks == 1
        engine.batch(running_example_db, q1)
        assert engine.stats["planner"].pruned == 1
        assert engine.stats["store"].hits == 1
