"""The fleet layer: consistent-hash routing, failover, shared-store coalescing.

ISSUE 10's acceptance criteria as tests: the ring routes
deterministically and keeps per-daemon LRUs hot, a refused or dead node
fails over transparently, ``db_load``/``db_update`` fan out and agree on
content-addressed handles, and — the headline guarantee — a duplicate
request landing on *two* daemons sharing one SQLite store triggers
exactly one computation, audited through the store's claim counters.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time

import pytest

from harness import running_daemon
from repro.engine import BatchAttributionEngine, SQLiteResultStore
from repro.engine.sqlite_store import RETIRED_STAMP
from repro.server import AttributionClient, BackoffPolicy, FleetClient
from repro.server.fleet import VNODES, merge_metrics_documents
from repro.server.protocol import OverloadedError
from repro.workloads.running_example import figure_1_database

QUERY = "q() :- Stud(x), not TA(x), Reg(x, y)"
ANSWERS_QUERY = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"


def shared_engine(tmp_path) -> BatchAttributionEngine:
    return BatchAttributionEngine(
        shared=SQLiteResultStore(tmp_path / "shared.db")
    )


class TestRouting:
    def test_addresses_parse_from_comma_string(self):
        fleet = FleetClient("a.sock, b.sock", connect_retries=0)
        assert fleet.addresses == ["a.sock", "b.sock"]
        fleet.close()

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetClient([])
        with pytest.raises(ValueError, match="at least one"):
            FleetClient(",")

    def test_duplicate_addresses_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetClient("a.sock,a.sock")

    def test_preference_is_deterministic_and_complete(self):
        fleet = FleetClient(["a.sock", "b.sock", "c.sock"], connect_retries=0)
        material = ("batch", "digest", "q", None)
        first = [node.address for node in fleet._preference(material)]
        second = [node.address for node in fleet._preference(material)]
        assert first == second
        assert sorted(first) == ["a.sock", "b.sock", "c.sock"]
        fleet.close()

    def test_keyspace_spreads_across_nodes(self):
        fleet = FleetClient(["a.sock", "b.sock", "c.sock"], connect_retries=0)
        homes = {
            fleet._preference(("batch", f"digest-{i}", "q", None))[0].address
            for i in range(64)
        }
        assert homes == {"a.sock", "b.sock", "c.sock"}
        fleet.close()

    def test_ring_has_vnodes_per_node(self):
        fleet = FleetClient(["a.sock", "b.sock"], connect_retries=0)
        assert len(fleet._ring_points) == 2 * VNODES
        fleet.close()

    def test_same_query_sticks_to_one_daemon(self, tmp_path):
        """Stickiness: repeats of one request land on one node's LRU."""
        database = figure_1_database()
        with running_daemon(tmp_path, shared_engine(tmp_path), "d0.sock") as d0:
            with running_daemon(
                tmp_path, shared_engine(tmp_path), "d1.sock"
            ) as d1:
                with FleetClient([d0.address, d1.address]) as fleet:
                    handle = fleet.load_database(database)
                    for _ in range(4):
                        result = fleet.batch(handle, QUERY)
                    assert result is not None
                served = []
                for daemon in (d0, d1):
                    with AttributionClient(daemon.address) as probe:
                        document = probe.metrics()
                    served.append(
                        document["ops"].get("batch", {}).get("requests", 0)
                    )
        assert sorted(served) == [0, 4]  # all four on the home node

    def test_routing_by_object_and_handle_agree(self, tmp_path):
        database = figure_1_database()
        with running_daemon(tmp_path, shared_engine(tmp_path), "d0.sock") as d0:
            with running_daemon(
                tmp_path, shared_engine(tmp_path), "d1.sock"
            ) as d1:
                with FleetClient([d0.address, d1.address]) as fleet:
                    handle = fleet.load_database(database)
                    by_handle = fleet._database_digest(handle)
                    by_object = fleet._database_digest(database)
        assert by_handle == by_object


class TestFailover:
    def test_overloaded_home_node_fails_over(self, tmp_path):
        database = figure_1_database()
        with running_daemon(tmp_path, shared_engine(tmp_path), "d0.sock") as d0:
            with running_daemon(
                tmp_path, shared_engine(tmp_path), "d1.sock"
            ) as d1:
                with FleetClient([d0.address, d1.address]) as fleet:
                    handle = fleet.load_database(database)
                    home = fleet._preference(
                        (
                            "batch",
                            fleet._database_digest(handle),
                            QUERY,
                            None,
                        )
                    )[0]
                    real_batch = home.client.batch
                    home.client.batch = lambda *a, **k: (_ for _ in ()).throw(
                        OverloadedError("shed")
                    )
                    try:
                        result = fleet.batch(handle, QUERY)
                    finally:
                        home.client.batch = real_batch
                    assert result is not None
                    stats = fleet.router_stats()
                    assert stats["failovers"] == 1
                    assert stats["nodes"][home.address]["failures"] == 1
                    assert stats["nodes"][home.address]["cooling"] is True
                    # Once the cooldown lapses, a success on the home
                    # node clears its health record.
                    home.down_until = 0.0
                    fleet.batch(handle, QUERY)
                    assert (
                        fleet.router_stats()["nodes"][home.address]["failures"]
                        == 0
                    )

    def test_dead_node_fails_over_and_all_dead_raises(self, tmp_path):
        database = figure_1_database()
        dead = str(tmp_path / "nobody-home.sock")
        with running_daemon(tmp_path, shared_engine(tmp_path), "d0.sock") as d0:
            with FleetClient(
                [d0.address, dead], connect_retries=1, retry_interval=0.01
            ) as fleet:
                handle = fleet.load_database(database)
                # Whatever the home node is, the live daemon serves it.
                assert fleet.batch(handle, QUERY) is not None
        with FleetClient(
            [dead], connect_retries=1, retry_interval=0.01
        ) as lonely:
            with pytest.raises((ConnectionError, OSError)):
                lonely.ping()


class TestFanOut:
    def test_load_database_agrees_on_one_handle(self, tmp_path):
        database = figure_1_database()
        with running_daemon(tmp_path, shared_engine(tmp_path), "d0.sock") as d0:
            with running_daemon(
                tmp_path, shared_engine(tmp_path), "d1.sock"
            ) as d1:
                with FleetClient([d0.address, d1.address]) as fleet:
                    handle = fleet.load_database(database)
                    assert isinstance(handle, str)
                    # Every daemon now serves the handle directly.
                    for daemon in (d0, d1):
                        with AttributionClient(daemon.address) as client:
                            assert client.batch(handle, QUERY) is not None

    def test_update_database_propagates_retirement_fleet_wide(self, tmp_path):
        from repro.core.facts import fact

        database = figure_1_database()
        with running_daemon(tmp_path, shared_engine(tmp_path), "d0.sock") as d0:
            with running_daemon(
                tmp_path, shared_engine(tmp_path), "d1.sock"
            ) as d1:
                with FleetClient([d0.address, d1.address]) as fleet:
                    base = fleet.load_database(database)
                    cold = fleet.batch(base, QUERY)
                    successor = fleet.update_database(
                        base, adds=[fact("Reg", "zoe", "c1")]
                    )
                    assert successor != base
                    fresh = fleet.batch(successor, QUERY)
                    assert dict(fresh.shapley) != dict(cold.shapley)
                    # One daemon's update retired the base version's rows
                    # in the *shared* file — fleet-global retirement.
                    with sqlite3.connect(
                        str(tmp_path / "shared.db")
                    ) as conn:
                        stamps = [
                            row[0]
                            for row in conn.execute(
                                "SELECT accessed FROM results"
                            )
                        ]
                    assert min(stamps) == pytest.approx(RETIRED_STAMP)

    def test_stats_and_ping_key_by_address(self, tmp_path):
        with running_daemon(tmp_path, shared_engine(tmp_path), "d0.sock") as d0:
            with running_daemon(
                tmp_path, shared_engine(tmp_path), "d1.sock"
            ) as d1:
                with FleetClient([d0.address, d1.address]) as fleet:
                    pings = fleet.ping()
                    stats = fleet.stats()
        assert set(pings) == {d0.address, d1.address}
        assert set(stats) == {d0.address, d1.address}


class TestSharedCoalescing:
    def test_duplicate_on_two_daemons_computes_exactly_once(self, tmp_path):
        """The headline guarantee: one computation per distinct request,
        fleet-wide, in every interleaving.

        The same request goes to *both* daemons directly (bypassing the
        router's stickiness on purpose), concurrently.  Whatever the
        interleaving — overlap (claim loser waits, then reads the
        winner's committed row) or no overlap (plain warm hit through
        the shared tier) — the engines' executors must run the
        computation exactly once between them, and the claim ledger
        must show it.
        """
        database = figure_1_database()
        engines = [shared_engine(tmp_path) for _ in range(2)]
        single = BatchAttributionEngine()
        from repro.core.parser import parse_query

        expected = single.batch(database, parse_query(QUERY))
        single_tasks = single.counters()["executor.tasks"]
        assert single_tasks > 0

        with running_daemon(tmp_path, engines[0], "d0.sock") as d0:
            with running_daemon(tmp_path, engines[1], "d1.sock") as d1:
                barrier = threading.Barrier(2)
                results: dict[str, object] = {}

                def hit(daemon) -> None:
                    with AttributionClient(daemon.address) as client:
                        handle = client.load_database(database)
                        barrier.wait()
                        results[daemon.address] = client.batch(handle, QUERY)

                threads = [
                    threading.Thread(target=hit, args=(d,)) for d in (d0, d1)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()

        for served in results.values():
            assert dict(served.shapley) == dict(expected.shapley)
            assert dict(served.banzhaf) == dict(expected.banzhaf)
        fleet_tasks = sum(
            engine.counters()["executor.tasks"] for engine in engines
        )
        assert fleet_tasks == single_tasks, (
            f"fleet executed {fleet_tasks} tasks for one distinct request;"
            f" a single engine needs {single_tasks}"
        )
        claims_won = sum(
            engine.shared.claim_stats.won for engine in engines
        )
        assert claims_won >= 1  # the claim protocol actually ran
        # Whoever did not compute was served through the shared tier:
        # either it waited out the winner's claim or read the row warm.
        coalesced = sum(
            engine.shared.claim_stats.coalesced for engine in engines
        )
        shared_hits = sum(engine.shared.stats.hits for engine in engines)
        assert coalesced + shared_hits >= 1

    def test_zipf_storm_through_fleet_is_bit_identical(self, tmp_path):
        """A routed storm over two daemons: correct everywhere, computed
        once per distinct request fleet-wide."""
        from harness import (
            assert_bit_identical,
            reference_results,
            run_fleet_storm,
        )
        from repro.workloads.traffic import storm_traffic

        database, stream = storm_traffic(
            48, num_students=6, num_courses=3, rng=random.Random(11)
        )
        stream = [entry for entry in stream if entry.op != "refine"]
        engines = [shared_engine(tmp_path) for _ in range(2)]
        with running_daemon(tmp_path, engines[0], "d0.sock") as d0:
            with running_daemon(tmp_path, engines[1], "d1.sock") as d1:
                report = run_fleet_storm(
                    [d0.address, d1.address], database, stream, clients=4
                )
        assert not report.failures, report.error_types()
        assert len(report.records) == len(stream)
        assert_bit_identical(report, reference_results(database, stream))

    def test_daemon_metrics_surface_the_shared_section(self, tmp_path):
        database = figure_1_database()
        with running_daemon(
            tmp_path, shared_engine(tmp_path), "d0.sock"
        ) as d0:
            with AttributionClient(d0.address) as client:
                handle = client.load_database(database)
                client.batch(handle, QUERY)
                document = client.metrics()
        assert document["shared"]["claims"]["won"] == 1
        assert document["shared"]["store"]["misses"] >= 1

    def test_repeat_requests_skip_the_claim_round_trip(self, tmp_path):
        """A key this daemon already served never re-claims.

        The first compute stakes (and releases) a claim; once its row
        is committed, a repeat cannot duplicate work anywhere in the
        fleet, so the daemon skips the two shared-store write
        transactions on the hot path — the claim ledger stays at one
        won claim no matter how often the key repeats.
        """
        database = figure_1_database()
        with running_daemon(
            tmp_path, shared_engine(tmp_path), "d0.sock"
        ) as d0:
            with AttributionClient(d0.address) as client:
                handle = client.load_database(database)
                for _ in range(3):
                    client.batch(handle, QUERY)
                document = client.metrics()
        assert document["shared"]["claims"]["won"] == 1
        assert document["shared"]["claims"]["lost"] == 0


class TestMetricsMerge:
    @staticmethod
    def _document(requests: int, bucket: int, **extra) -> dict:
        from repro.io import LATENCY_BUCKET_BOUNDS_MS

        buckets = [[bound, 0] for bound in LATENCY_BUCKET_BOUNDS_MS]
        buckets.append([None, 0])
        buckets[bucket][1] = requests
        return {
            "ops": {
                "batch": {
                    "requests": requests,
                    "errors": 0,
                    "latency": {
                        "count": requests,
                        "sum_ms": float(requests),
                        "max_ms": 1.0,
                        "p50_ms": None,
                        "p99_ms": None,
                        "buckets": buckets,
                    },
                }
            },
            "admission": {"admitted": requests},
            "queue": {"depth": 0},
            "coalescing": {"leaders": requests, "followers": 0, "ratio": 0.0},
            "draining": False,
            **extra,
        }

    def test_counters_and_buckets_sum(self):
        merged = merge_metrics_documents(
            [self._document(3, 0), self._document(5, 2)]
        )
        assert merged["nodes"] == 2
        assert merged["ops"]["batch"]["requests"] == 8
        latency = merged["ops"]["batch"]["latency"]
        assert latency["count"] == 8
        assert latency["buckets"][0][1] == 3
        assert latency["buckets"][2][1] == 5
        assert merged["admission"]["admitted"] == 8

    def test_quantiles_recomputed_from_merged_buckets(self):
        from repro.io import LATENCY_BUCKET_BOUNDS_MS

        merged = merge_metrics_documents(
            [self._document(10, 0), self._document(1, 3)]
        )
        latency = merged["ops"]["batch"]["latency"]
        # p50 sits in the first bucket; p99 in the outlier's bucket.
        assert latency["p50_ms"] == LATENCY_BUCKET_BOUNDS_MS[0]
        assert latency["p99_ms"] == LATENCY_BUCKET_BOUNDS_MS[3]

    def test_coalescing_ratio_recomputed(self):
        a = self._document(4, 0)
        a["coalescing"] = {"leaders": 4, "followers": 2, "ratio": 0.5}
        b = self._document(4, 0)
        b["coalescing"] = {"leaders": 4, "followers": 6, "ratio": 1.5}
        merged = merge_metrics_documents([a, b])
        assert merged["coalescing"]["leaders"] == 8
        assert merged["coalescing"]["followers"] == 8
        assert merged["coalescing"]["ratio"] == 1.0

    def test_draining_is_any_and_shared_sums(self):
        a = self._document(1, 0, shared={"store": {"hits": 2}, "claims": {"won": 1}})
        b = self._document(1, 0, shared={"store": {"hits": 3}, "claims": {"won": 4}})
        b["draining"] = True
        merged = merge_metrics_documents([a, b])
        assert merged["draining"] is True
        assert merged["shared"]["store"]["hits"] == 5
        assert merged["shared"]["claims"]["won"] == 5

    def test_empty_fleet_merges_to_zeroes(self):
        merged = merge_metrics_documents([])
        assert merged["nodes"] == 0
        assert merged["ops"] == {}
        assert merged["draining"] is False


class TestBackoff:
    def test_delay_grows_exponentially_within_jitter(self):
        policy = BackoffPolicy(base=0.1, cap=10.0, factor=2.0)
        rng = random.Random(42)
        for attempt in range(6):
            nominal = min(0.1 * 2**attempt, 10.0)
            delay = policy.delay(attempt, rng)
            assert nominal / 2 <= delay <= nominal

    def test_cap_bounds_the_schedule(self):
        policy = BackoffPolicy(base=1.0, cap=2.0)
        rng = random.Random(0)
        assert policy.delay(30, rng) <= 2.0

    def test_delays_yields_gaps_between_attempts(self):
        policy = BackoffPolicy(base=0.01)
        assert len(list(policy.delays(5, random.Random(1)))) == 4
        assert list(policy.delays(0)) == []
        assert list(policy.delays(1)) == []

    def test_seeded_schedules_are_deterministic(self):
        policy = BackoffPolicy()
        first = list(policy.delays(6, random.Random(7)))
        second = list(policy.delays(6, random.Random(7)))
        assert first == second

    def test_client_connect_retries_follow_the_policy(self, tmp_path, monkeypatch):
        """The client's dial loop sleeps on the jittered schedule."""
        import repro.server.client as client_module

        sleeps: list[float] = []
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: sleeps.append(s)
        )
        client = AttributionClient(
            str(tmp_path / "absent.sock"),
            connect_retries=4,
            retry_interval=0.05,
        )
        with pytest.raises((ConnectionError, OSError)):
            client.connect()
        assert len(sleeps) == 3  # retries - 1 gaps
        policy = BackoffPolicy(base=0.05, cap=0.5)
        for attempt, slept in enumerate(sleeps):
            nominal = min(0.05 * 2**attempt, 0.5)
            assert nominal / 2 <= slept <= nominal

    def test_node_cooldown_uses_backoff_and_recovers(self, tmp_path):
        fleet = FleetClient(["a.sock", "b.sock"], connect_retries=0)
        node = fleet.nodes[0]
        fleet._note_failure(node)
        assert node.failures == 1
        assert not node.available(time.monotonic())
        assert node.available(time.monotonic() + 1.0)
        fleet._note_success(node)
        assert node.failures == 0
        assert node.available(time.monotonic())
        fleet.close()
