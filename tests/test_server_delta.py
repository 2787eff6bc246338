"""The attribution service under live database updates (ISSUE 5).

* ``db_update`` round-trips a fact-level delta: results on the successor
  handle are bit-identical to a cold in-process engine on the successor
  database (property-tested over random queries and deltas, serial and
  ``jobs=2`` daemons);
* the registry keeps a **bounded version chain**: updating past the
  bound invalidates the oldest handles (explicit handle strings raise,
  clients holding the database transparently re-upload — extending the
  stale-handle regression tests of ``tests/test_server.py``);
* the optional **auth token** guards TCP listeners only: wrong or
  missing tokens get a typed :class:`AuthenticationError` frame for
  every operation (shutdown included) and the daemon keeps serving;
  Unix-domain sockets ignore the token entirely;
* a superseded version's durable store rows are retired (back-dated) so
  bounded stores drain them first.
"""

from __future__ import annotations

import contextlib
import random
import sqlite3
import threading

import pytest

from harness import running_daemon
from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    DatabaseDelta,
    SQLiteResultStore,
    apply_delta,
)
from repro.engine.sqlite_store import RETIRED_STAMP
from repro.server import (
    AttributionClient,
    AttributionDaemon,
    AuthenticationError,
    DatabaseRegistry,
    UnknownHandleError,
)
from repro.server.registry import database_handle
from repro.workloads.generators import (
    random_database_for_query,
    random_delta,
    random_hierarchical_query,
)
from repro.workloads.running_example import figure_1_database

Q1 = "q1() :- Stud(x), not TA(x), Reg(x, y)"


def _stamps(store: SQLiteResultStore) -> list[float]:
    """The access stamp of every row in ``store``."""
    with sqlite3.connect(str(store.path)) as conn:
        return [row[0] for row in conn.execute("SELECT accessed FROM results")]


@contextlib.contextmanager
def running_tcp_daemon(**kwargs):
    daemon = AttributionDaemon("127.0.0.1:0", **kwargs)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon.shutdown()
        thread.join(timeout=10)
        daemon.close()
        assert not thread.is_alive()


def _assert_bit_identical(left, right):
    assert set(left.shapley) == set(right.shapley)
    for item in left.shapley:
        assert left.shapley[item] == right.shapley[item]
        assert left.banzhaf[item] == right.banzhaf[item]


class TestDbUpdate:
    def test_round_trip_and_accounting(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                base_handle = client.load_database(db)
                delta = DatabaseDelta(
                    added_endogenous=frozenset({fact("Reg", "Adam", "DB")}),
                    removed=frozenset({fact("TA", "Ben")}),
                )
                handle = client.update_database(db, delta=delta)
                assert handle != base_handle
                assert client.last_response["base"] == base_handle
                assert client.last_response["added"] == 1
                assert client.last_response["removed"] == 1
                assert client.last_response["flipped"] == 0
                served = client.batch(handle, Q1)
                successor = apply_delta(db, delta)
                cold = BatchAttributionEngine().batch(successor, parse_query(Q1))
                _assert_bit_identical(served, cold)
                # The base version stays queryable.
                assert client.batch(base_handle, Q1) is not None
                stats = client.stats()
                assert stats["registry"]["updates"] == 1
                assert stats["registry"]["versions"] == 1
                assert stats["registry"]["held"] == 2

    def test_update_on_unknown_handle_raises(self, tmp_path):
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                with pytest.raises(UnknownHandleError):
                    client.update_database(
                        "db:feedfacefeedface",
                        adds=[fact("R", 1)],
                    )

    def test_bad_delta_round_trips_as_value_error(self, tmp_path):
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                with pytest.raises(ValueError, match="does not hold"):
                    client.update_database(
                        figure_1_database(), removes=[fact("R", 404)]
                    )
                assert client.ping()["pong"] is True

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_property_served_updates_match_cold_engines(self, tmp_path, jobs):
        engine = BatchAttributionEngine() if jobs is None else (
            BatchAttributionEngine(jobs=jobs)
        )
        with running_daemon(tmp_path, engine=engine) as daemon:
            with AttributionClient(daemon.address) as client:
                for seed in (3, 17, 29) if jobs is None else (3,):
                    rng = random.Random(seed)
                    query = random_hierarchical_query(rng=rng)
                    database = random_database_for_query(
                        query, domain_size=3, rng=rng
                    )
                    handle = client.load_database(database)
                    client.batch(handle, query)
                    for _ in range(2):
                        delta = random_delta(database, rng=rng)
                        handle = client.update_database(handle, delta=delta)
                        database = apply_delta(database, delta)
                        served = client.batch(handle, query)
                        cold = BatchAttributionEngine().batch(database, query)
                        _assert_bit_identical(served, cold)

    def test_untouched_requests_served_without_new_tasks(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                client.batch(handle, Q1)
                handle = client.update_database(
                    handle,
                    delta=DatabaseDelta(
                        added_endogenous=frozenset({fact("Audit", "x")})
                    ),
                )
                client.batch(handle, Q1)
                delta_stats = client.last_response["stats"]
                assert delta_stats["executor.tasks"] == 0
                assert delta_stats["planner.pruned"] == 1
                assert delta_stats["delta.facts_zero_filled"] == 1


class TestNoOpUpdates:
    def test_noop_update_does_not_retire_the_live_version(self, tmp_path):
        # A net-zero delta supersedes nothing: the live version's own
        # durable rows must keep their access stamps.
        store = SQLiteResultStore(tmp_path / "results.db")
        engine = BatchAttributionEngine(shared=store)
        db = figure_1_database()
        with running_daemon(tmp_path, engine=engine) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                client.batch(handle, Q1)
                [stamp] = _stamps(store)
                assert stamp > RETIRED_STAMP
                same = client.update_database(handle, delta=DatabaseDelta())
                assert same == handle
                assert _stamps(store) == [stamp]


class TestVersionChainEviction:
    def test_registry_trims_chains_to_bound(self):
        registry = DatabaseRegistry()
        registry.MAX_VERSIONS = 2
        database = Database(endogenous=[fact("R", 0)])
        handles = [registry.load(database)]
        for index in range(1, 5):
            delta = DatabaseDelta(
                added_endogenous=frozenset({fact("R", index)})
            )
            handle, _, database = registry.update(handles[-1], delta)
            handles.append(handle)
        # Only the newest MAX_VERSIONS versions of the lineage survive.
        for stale in handles[:-2]:
            with pytest.raises(UnknownHandleError):
                registry.get(stale)
        for live in handles[-2:]:
            assert registry.get(live) is not None
        assert registry.counters()["evictions"] >= len(handles) - 2

    def test_lru_eviction_also_drops_chain_links(self):
        registry = DatabaseRegistry()
        registry.MAX_DATABASES = 2
        base = Database(endogenous=[fact("R", 0)])
        handle = registry.load(base)
        handle2, _, _ = registry.update(
            handle, DatabaseDelta(added_endogenous=frozenset({fact("R", 1)}))
        )
        assert registry.counters()["versions"] == 1
        # Two unrelated loads push both chain endpoints out of the LRU.
        registry.load(Database(endogenous=[fact("S", 1)]))
        registry.load(Database(endogenous=[fact("S", 2)]))
        assert registry.counters()["versions"] == 0
        with pytest.raises(UnknownHandleError):
            registry.get(handle2)

    def test_client_transparently_reuploads_evicted_version(self, tmp_path):
        # Updating past the chain bound stales the client's cached handle
        # for the *base* database object; the next call re-uploads it.
        db = figure_1_database()
        registry = DatabaseRegistry()
        registry.MAX_VERSIONS = 1
        with running_daemon(tmp_path, registry=registry) as daemon:
            with AttributionClient(daemon.address) as client:
                client.batch(db, Q1)  # the client holds db's version
                working = client.load_database(db)
                for index in range(2):
                    working = client.update_database(
                        working,
                        delta=DatabaseDelta(
                            added_endogenous=frozenset({fact("Audit", index)})
                        ),
                    )
                # The base version fell off the chain: its handle is gone.
                with pytest.raises(UnknownHandleError):
                    client.batch(database_handle(db), Q1)
                # ...but a database-object call recovers by re-uploading.
                assert client.batch(db, Q1) is not None

    def test_explicit_stale_version_handle_still_raises(self, tmp_path):
        db = figure_1_database()
        registry = DatabaseRegistry()
        registry.MAX_VERSIONS = 1
        with running_daemon(tmp_path, registry=registry) as daemon:
            with AttributionClient(daemon.address) as client:
                base = client.load_database(db)
                working = base
                for index in range(2):
                    working = client.update_database(
                        working,
                        delta=DatabaseDelta(
                            added_endogenous=frozenset({fact("Audit", index)})
                        ),
                    )
                with pytest.raises(UnknownHandleError):
                    client.batch(base, Q1)


class TestAuthToken:
    def test_tcp_with_token_round_trips(self):
        with running_tcp_daemon(auth_token="sekrit") as daemon:
            with AttributionClient(daemon.address, auth_token="sekrit") as client:
                assert client.ping()["pong"] is True
                handle = client.load_database(figure_1_database())
                assert client.batch(handle, Q1) is not None

    def test_missing_and_wrong_tokens_rejected_typed(self):
        with running_tcp_daemon(auth_token="sekrit") as daemon:
            with AttributionClient(daemon.address, auth_token=None) as client:
                with pytest.raises(AuthenticationError, match="auth token"):
                    client.ping()
            with AttributionClient(daemon.address, auth_token="wrong") as client:
                with pytest.raises(AuthenticationError):
                    client.batch(figure_1_database(), Q1)
            # Non-string auth values must not crash the comparison.
            with AttributionClient(daemon.address) as client:
                client.auth_token = None
                with pytest.raises(AuthenticationError):
                    client.call("ping", auth=42)
            # The daemon survived every rejection.
            with AttributionClient(daemon.address, auth_token="sekrit") as client:
                assert client.ping()["pong"] is True

    def test_unauthenticated_shutdown_is_rejected(self):
        with running_tcp_daemon(auth_token="sekrit") as daemon:
            with AttributionClient(daemon.address, auth_token=None) as client:
                with pytest.raises(AuthenticationError):
                    client.shutdown()
            with AttributionClient(daemon.address, auth_token="sekrit") as client:
                assert client.ping()["pong"] is True

    def test_unix_socket_ignores_token(self, tmp_path):
        with running_daemon(tmp_path, auth_token="sekrit") as daemon:
            assert daemon.auth_token is None
            with AttributionClient(daemon.address) as client:
                assert client.ping()["pong"] is True

    def test_env_var_configures_client(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_AUTH_TOKEN", "sekrit")
        with running_tcp_daemon(auth_token="sekrit") as daemon:
            with AttributionClient(daemon.address) as client:
                assert client.auth_token == "sekrit"
                assert client.ping()["pong"] is True


class TestPersistentRetirement:
    def test_update_retires_superseded_version_entries(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "results.db")
        engine = BatchAttributionEngine(shared=store)
        db = figure_1_database()
        with running_daemon(tmp_path, engine=engine) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                client.batch(handle, Q1)
                [stamp] = _stamps(store)
                assert stamp > RETIRED_STAMP
                client.update_database(
                    handle,
                    delta=DatabaseDelta(
                        added_endogenous=frozenset({fact("Reg", "Adam", "DB")})
                    ),
                )
                # The v1 row is back-dated: first in line for eviction.
                assert _stamps(store) == [pytest.approx(RETIRED_STAMP)]
