"""The daemon's coalescing key is read off a request's wire fields.

``AttributionDaemon._wire_key`` builds one short tuple per compute
request on the event loop — op, handle, query text, sorted exogenous
relations, and the op's own fields — and that tuple is the in-flight
coalescing key, the shared-store claim key and the served-key entry.
These tests pin what it joins and what it keeps apart:

* concurrent identical requests coalesce onto one computation;
* the same text on two handles (two database versions) never coalesces;
* different method policies never coalesce;
* the order of ``exogenous`` does not change the key, and typed answer
  constants (``1`` against ``true``) do;
* equivalent queries written differently do not coalesce in flight, and
  each still gets the bit-identical, correct answer.
"""

from __future__ import annotations

import contextlib
import threading
import time

from harness import running_daemon
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, MethodPolicy
from repro.server import AttributionClient, AttributionDaemon
from repro.workloads.running_example import figure_1_database

Q1 = "q1() :- Stud(x), not TA(x), Reg(x, y)"
#: Q1 with its atoms reordered and its variables renamed.
Q1_REWRITTEN = "q1() :- Reg(s, c), Stud(s), not TA(s)"


@contextlib.contextmanager
def gated(engine: BatchAttributionEngine):
    """Hold every ``engine.batch`` call until the yielded gate opens."""
    gate = threading.Event()
    real = engine.batch

    def batch(*args, **kwargs):
        assert gate.wait(20), "test gate never opened"
        return real(*args, **kwargs)

    engine.batch = batch  # type: ignore[method-assign]
    try:
        yield gate
    finally:
        gate.set()


def coalesced(daemon: AttributionDaemon, leaders: int, followers: int) -> None:
    """Wait until the coalescer has seen this many leaders and followers."""
    stats = daemon.coalescer.stats
    deadline = time.monotonic() + 20
    while (stats.leaders, stats.followers) != (leaders, followers):
        assert time.monotonic() < deadline, (stats.leaders, stats.followers)
        time.sleep(0.005)


def rows(result) -> list:
    return [list(result.shapley.items()), list(result.banzhaf.items())]


def expected(database, text: str, **options) -> list:
    return rows(BatchAttributionEngine().batch(database, parse_query(text), **options))


class TestWireKey:
    def _key(self, op: str, **fields) -> tuple:
        daemon = AttributionDaemon.__new__(AttributionDaemon)
        return daemon._wire_key(op, {"op": op, "db": "db:1", "query": Q1, **fields})

    def test_exogenous_order_does_not_change_the_key(self):
        assert self._key("batch", exogenous=["TA", "Stud"]) == self._key(
            "batch", exogenous=["Stud", "TA"]
        )
        assert self._key("batch", exogenous=["TA"]) != self._key("batch")

    def test_op_fields_are_key_material(self):
        assert self._key("batch") != self._key("batch", method="exact")
        assert self._key("batch", method="sampled", epsilon=0.2) != self._key(
            "batch", method="sampled", epsilon=0.1
        )
        assert self._key("answers", answers=[[1]]) != self._key(
            "answers", answers=[[True]]
        )
        assert self._key("answers", answers=[["Adam"]]) != self._key("answers")
        assert self._key("aggregate", aggregate="count") != self._key(
            "aggregate", aggregate="sum", value_index=0
        )
        assert self._key("refine", epsilon=0.1) != self._key("refine", epsilon=0.2)
        assert self._key("batch", db="db:2") != self._key("batch")
        assert self._key("batch", query=Q1_REWRITTEN) != self._key("batch")


class TestServedCoalescing:
    def test_concurrent_identical_requests_coalesce(self, tmp_path):
        database = figure_1_database()
        engine = BatchAttributionEngine()
        with running_daemon(tmp_path, engine=engine) as daemon, gated(
            engine
        ) as gate:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(database)
                pending = [
                    client.submit("batch", db=handle, query=Q1, exogenous=order)
                    for order in (["TA", "Stud"], ["Stud", "TA"], ["Stud", "TA"])
                ]
                coalesced(daemon, leaders=1, followers=2)
                gate.set()
                documents = [p.result()["result"] for p in pending]
        assert documents[0] == documents[1] == documents[2]
        reference = BatchAttributionEngine().batch(
            database, parse_query(Q1), exogenous_relations={"Stud", "TA"}
        )
        assert documents[0]["player_count"] == reference.player_count

    def test_the_same_text_on_two_handles_never_coalesces(self, tmp_path):
        first = figure_1_database()
        second = figure_1_database()
        second.add_endogenous(fact("Reg", "Adam", "DB"))
        engine = BatchAttributionEngine()
        with running_daemon(tmp_path, engine=engine) as daemon, gated(
            engine
        ) as gate:
            with AttributionClient(daemon.address) as client:
                handles = [client.load_database(db) for db in (first, second)]
                assert handles[0] != handles[1]
                pending = [client.submit_batch(handle, Q1) for handle in handles]
                coalesced(daemon, leaders=2, followers=0)
                gate.set()
                results = [p.result() for p in pending]
        assert rows(results[0]) == expected(first, Q1)
        assert rows(results[1]) == expected(second, Q1)
        assert rows(results[0]) != rows(results[1])

    def test_different_policies_never_coalesce(self, tmp_path):
        database = figure_1_database()
        engine = BatchAttributionEngine()
        sampled = MethodPolicy("sampled", epsilon=0.3)
        with running_daemon(tmp_path, engine=engine) as daemon, gated(
            engine
        ) as gate:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(database)
                pending = [
                    client.submit_batch(handle, Q1, policy=policy)
                    for policy in ("auto", "exact", sampled)
                ]
                coalesced(daemon, leaders=3, followers=0)
                gate.set()
                results = [p.result() for p in pending]
        reference = expected(database, Q1)
        assert rows(results[0]) == rows(results[1]) == reference
        assert results[0].estimate is None
        assert rows(results[2]) == expected(database, Q1, policy=sampled)
        assert results[2].estimate is not None

    def test_equivalent_queries_each_get_the_correct_answer(self, tmp_path):
        database = figure_1_database()
        engine = BatchAttributionEngine()
        with running_daemon(tmp_path, engine=engine) as daemon, gated(
            engine
        ) as gate:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(database)
                pending = [
                    client.submit_batch(handle, text) for text in (Q1, Q1_REWRITTEN)
                ]
                coalesced(daemon, leaders=2, followers=0)
                gate.set()
                results = [p.result() for p in pending]
        reference = expected(database, Q1)
        assert expected(database, Q1_REWRITTEN) == reference
        assert rows(results[0]) == reference
        assert rows(results[1]) == reference
        # In flight they did not coalesce; the second found the first's
        # result warm in the store.
        assert [result.from_cache for result in results] == [False, True]
