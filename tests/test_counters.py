"""The counter contract: what every stats surface reports, key for key.

``engine.counters()`` is the flat ``layer.field`` document behind the
daemon's ``stats`` op, the CLI's ``--stats`` and ``--json`` output and
the benchmark's work counters.  These tests pin its key set, key order
and values on one small instance for a serial engine, a sharded
(``jobs=2``) engine and an engine with a durable SQLite tier, cold and
warm, plus the section and key layout of the daemon's ``stats`` and
``metrics`` documents.  They also check the counter operations the
engine relies on: ``snapshot`` copies, ``merge`` adds field-wise, and
``delta`` clamps at zero when the process-wide kernel counters are reset
between its two readings.

Engines built without an explicit executor follow ``REPRO_JOBS``; under
a sharded environment each planned grounding carries one bundle node and
the executor reports two processes, and nothing else changes.
"""

from __future__ import annotations

import os
import random

import pytest

from harness import running_daemon
from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, ShardedExecutor
from repro.engine.sqlite_store import SQLiteResultStore
from repro.server import AttributionClient
from repro.util import kernels
from repro.workloads.generators import star_join_database

QUERY = "q() :- Stud(x), not TA(x), Reg(x, y)"

LAYER_KEYS = [
    "components.hits",
    "components.misses",
    "components.evictions",
    "results.hits",
    "results.misses",
    "results.evictions",
]
SHARED_KEYS = ["shared.hits", "shared.misses", "shared.evictions"]
ENGINE_KEYS = [
    "store.hits",
    "store.misses",
    "store.evictions",
    "planner.requested",
    "planner.planned",
    "planner.pruned",
    "planner.bundles",
    "planner.bundles_reused",
    "executor.tasks",
    "executor.bundle_tasks",
    "executor.shipped",
    "executor.fallbacks",
    "executor.processes",
    "delta.versions_seen",
    "delta.facts_zero_filled",
    "delta.components_reused",
    "delta.components_dirty",
    "sampler.requests",
    "sampler.fresh_rounds",
    "sampler.resumed_rounds",
    "sampler.served_from_state",
    "sampler.restarts",
    "sampler.evaluations",
    "kernel.schoolbook_calls",
    "kernel.packed_calls",
    "kernel.tree_products",
]
KERNEL_KEYS = [
    "schoolbook_calls",
    "packed_calls",
    "tree_products",
]

#: Non-zero counters after one cold ``batch`` on a serial engine.
SERIAL_COLD = {
    "components.misses": 1,
    "results.misses": 1,
    "store.misses": 1,
    "planner.requested": 1,
    "planner.planned": 1,
    "executor.tasks": 1,
    "executor.processes": 1,
    "delta.versions_seen": 1,
    "delta.components_dirty": 1,
    "kernel.schoolbook_calls": 35,
    "kernel.tree_products": 14,
}
#: ... and after the same request again, served by the result store.
SERIAL_WARM = {
    **SERIAL_COLD,
    "results.hits": 1,
    "store.hits": 1,
    "planner.requested": 2,
    "planner.pruned": 1,
}
#: A jobs=2 engine that ships its one bundle node to a worker: the
#: parent seeds the bundle and only assembles, so it convolves less.
SHIPPED_COLD = {
    "components.hits": 1,
    "results.misses": 1,
    "store.misses": 1,
    "planner.requested": 1,
    "planner.planned": 1,
    "planner.bundles": 1,
    "executor.tasks": 1,
    "executor.bundle_tasks": 1,
    "executor.shipped": 1,
    "executor.processes": 2,
    "delta.versions_seen": 1,
    "delta.components_reused": 1,
    "delta.components_dirty": 1,
    "kernel.schoolbook_calls": 16,
    "kernel.tree_products": 8,
}
SHIPPED_WARM = {
    **SHIPPED_COLD,
    "results.hits": 1,
    "store.hits": 1,
    "planner.requested": 2,
    "planner.pruned": 1,
}

#: A fresh engine on a store another engine already filled: the durable
#: tier serves the request and nothing executes.
DURABLE_WARM = {
    "results.misses": 1,
    "shared.hits": 1,
    "store.hits": 1,
    "planner.requested": 1,
    "planner.pruned": 1,
    "executor.processes": 1,
    "delta.versions_seen": 1,
}
#: ... and after the same request again, served from the result LRU.
DURABLE_PROMOTED = {
    **DURABLE_WARM,
    "results.hits": 1,
    "store.hits": 2,
    "planner.requested": 2,
    "planner.pruned": 2,
}


def _database():
    return star_join_database(10, 4, rng=random.Random(0))


def _expected(nonzero: dict[str, int], engine, shared: bool = False):
    """``nonzero`` laid out in the engine's key order, zeros filled in."""
    keys = LAYER_KEYS + (SHARED_KEYS if shared else []) + ENGINE_KEYS
    assert set(nonzero) <= set(keys)
    values = dict(nonzero)
    if engine.executor.jobs > 1 and not isinstance(engine.executor, _Shipping):
        # What a sharded environment changes on an engine that follows it.
        values["planner.bundles"] = values.get("planner.planned", 0)
        values["executor.processes"] = 2
    return [(key, values.get(key, 0)) for key in keys]


class _Shipping(ShardedExecutor):
    """A two-worker executor that ships even a single bundle node."""

    MIN_SHARD_TASKS = 1

    def __init__(self) -> None:
        super().__init__(
            jobs=2,
            start_method=os.environ.get("REPRO_START_METHOD") or None,
        )


def _cold_then_warm(engine):
    database, query = _database(), parse_query(QUERY)
    engine.batch(database, query)
    cold = list(engine.counters().items())
    engine.batch(database, query)
    return cold, list(engine.counters().items())


class TestEngineCounters:
    def test_serial_engine(self):
        engine = BatchAttributionEngine()
        cold, warm = _cold_then_warm(engine)
        assert len(cold) == 32
        assert cold == _expected(SERIAL_COLD, engine)
        assert warm == _expected(SERIAL_WARM, engine)

    def test_sharded_engine(self):
        engine = BatchAttributionEngine(executor=_Shipping())
        cold, warm = _cold_then_warm(engine)
        assert cold == _expected(SHIPPED_COLD, engine)
        assert warm == _expected(SHIPPED_WARM, engine)

    def test_sqlite_engine(self, tmp_path):
        path = tmp_path / "results.db"
        engine = BatchAttributionEngine(shared=SQLiteResultStore(path))
        try:
            cold, warm = _cold_then_warm(engine)
        finally:
            engine.shared.close()
        assert len(cold) == 35
        assert cold == _expected({**SERIAL_COLD, "shared.misses": 1}, engine, True)
        assert warm == _expected({**SERIAL_WARM, "shared.misses": 1}, engine, True)
        # A second engine on the same file: a durable hit, no execution.
        engine = BatchAttributionEngine(shared=SQLiteResultStore(path))
        try:
            engine.batch(_database(), parse_query(QUERY))
            durable = list(engine.counters().items())
            # The durable hit was promoted: a repeat is a memory hit and
            # reads nothing from the file.
            engine.batch(_database(), parse_query(QUERY))
            promoted = list(engine.counters().items())
            # clear() empties the LRU only: the file serves the next one.
            engine.clear()
            engine.batch(_database(), parse_query(QUERY))
            cleared = engine.counters()
        finally:
            engine.shared.close()
        assert durable == _expected(DURABLE_WARM, engine, True)
        assert promoted == _expected(DURABLE_PROMOTED, engine, True)
        assert cleared["shared.hits"] == 2 and cleared["executor.tasks"] == 0

    def test_attribute_reads(self):
        engine = BatchAttributionEngine()
        engine.batch(_database(), parse_query(QUERY))
        stats = engine.stats
        assert list(stats) == [
            "components",
            "results",
            "store",
            "planner",
            "executor",
            "delta",
            "sampler",
            "kernel",
        ]
        assert stats["executor"].tasks == 1
        assert stats["planner"].requested == 1
        assert stats["results"].misses == 1


class TestCounterOperations:
    def test_snapshot_is_an_independent_copy(self):
        engine = BatchAttributionEngine()
        engine.batch(_database(), parse_query(QUERY))
        live = engine.result_cache.stats
        copy = live.snapshot()
        assert vars(copy) == vars(live)
        copy.misses += 5
        assert live.misses == 1
        live.hits += 1
        assert copy.hits == 0

    def test_merge_adds_field_wise(self):
        engine = BatchAttributionEngine()
        engine.batch(_database(), parse_query(QUERY))
        planner = engine.stats["planner"]
        total = planner.snapshot()
        total.merge(planner)
        assert vars(total) == {name: 2 * value for name, value in vars(planner).items()}
        kernel = engine.stats["kernel"]
        merged = kernel.snapshot()
        merged.merge(kernel)
        assert merged.schoolbook_calls == 2 * 35

    def test_delta_clamps_after_a_reset(self):
        kernels.convolve([1, 2], [3, 4])
        kernels.convolve([1, 2], [3, 4])
        before = kernels.kernel_stats().snapshot()
        assert before.schoolbook_calls >= 2
        kernels.convolve([1, 2], [3, 4])
        assert kernels.kernel_stats().delta(before).schoolbook_calls == 1
        # After a reset the live count (1) is below the earlier reading:
        # the delta reports no work rather than a negative count.
        kernels.reset_kernel_stats()
        kernels.convolve([1, 2], [3, 4])
        delta = kernels.kernel_stats().delta(before)
        assert list(vars(delta)) == KERNEL_KEYS
        assert vars(delta) == dict.fromkeys(KERNEL_KEYS, 0)


@pytest.fixture
def served(tmp_path):
    store = SQLiteResultStore(tmp_path / "shared.db")
    engine = BatchAttributionEngine(shared=store)
    try:
        with running_daemon(tmp_path, engine=engine) as daemon:
            with AttributionClient(daemon.address) as client:
                client.batch(_database(), QUERY)
                yield client
    finally:
        store.close()


class TestDaemonDocuments:
    def test_stats_sections(self, served):
        stats = served.stats()
        assert sorted(stats) == ["coalescer", "engine", "registry", "server"]
        assert list(stats["engine"]) == LAYER_KEYS + SHARED_KEYS + ENGINE_KEYS
        assert list(stats["coalescer"]) == ["leaders", "followers", "aborted"]
        assert stats["coalescer"]["leaders"] == 1

    def test_metrics_document(self, served):
        metrics = served.metrics()
        assert list(metrics) == [
            "ops",
            "admission",
            "queue",
            "draining",
            "coalescing",
            "kernel",
            "slow_traces",
            "shared",
        ]
        assert list(metrics["kernel"]["counters"]) == KERNEL_KEYS
        assert list(metrics["coalescing"]) == ["leaders", "followers", "aborted", "ratio"]
        assert list(metrics["shared"]) == ["store", "claims"]
        assert list(metrics["shared"]["store"]) == ["hits", "misses", "evictions"]
        assert list(metrics["shared"]["claims"]) == [
            "won",
            "lost",
            "expired",
            "coalesced",
            "timeouts",
        ]
