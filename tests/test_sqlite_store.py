"""The SQLite result store: the one durable tier, for one process or a fleet.

A conforming ResultStore in one WAL-mode SQLite file, safe under
concurrent daemon writers, with access-stamp LRU bounds and claim
markers that coalesce identical requests across processes.  A process
that finds a warm row must serve it with *zero* engine recursions —
process A populates the file, process B answers from it alone — and a
file written by the previous release must still serve warm.  The
torture test at the bottom hammers one file from N real processes — no
lost updates, bounded size, bit-identical reads.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    MethodPolicy,
    SQLiteResultStore,
    digest_key,
    fingerprint_database,
)
from repro.engine.fingerprint import fingerprint_request, fingerprint_sample_state
from repro.engine.sqlite_store import (
    FORMAT_VERSION,
    RETIRED_STAMP,
    encode_stored_value,
)
from repro.io import database_to_dict
from repro.shapley.sampling import SampleState
from repro.workloads.running_example import figure_1_database

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _result(index: int):
    from repro.engine import BatchResult

    value = Fraction(1, index + 1)
    return BatchResult(
        {fact("R", index): value}, {fact("R", index): value}, "cntsat", 1
    )


def _stamp(store: SQLiteResultStore, key: tuple, when: float) -> None:
    """Back-date one row's access stamp directly (test-only plumbing)."""
    with sqlite3.connect(str(store.path)) as conn:
        conn.execute(
            "UPDATE results SET accessed = ? WHERE digest = ?",
            (when, digest_key(key)),
        )


class TestRoundTrip:
    def test_put_get_result_is_bit_identical(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        original = _result(3)
        assert store.put(("key",), original)
        served = store.get(("key",))
        assert dict(served.shapley) == dict(original.shapley)
        assert dict(served.banzhaf) == dict(original.banzhaf)
        assert served.method == original.method
        for value in served.shapley.values():
            assert isinstance(value, Fraction)
        assert store.stats.hits == 1

    def test_put_get_sample_state(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        state = SampleState(
            seed=7, rounds=4, totals={fact("R", 1): 3}, evaluations=12
        )
        assert store.put(("sample-state", "x"), state)
        served = store.get(("sample-state", "x"))
        assert isinstance(served, SampleState)
        assert served == state

    def test_miss_counts_and_returns_none(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        assert store.get(("absent",)) is None
        assert store.stats.misses == 1

    def test_non_json_safe_value_is_skipped(self, tmp_path):
        from repro.engine import BatchResult

        store = SQLiteResultStore(tmp_path / "shared.db")
        weird = BatchResult(
            {fact("R", (1, 2)): Fraction(1)}, {}, "cntsat", 1
        )
        assert store.put(("weird",), weird) is False
        assert len(store) == 0

    def test_corrupt_row_is_a_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        store.put(("key",), _result(0))
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute("UPDATE results SET payload = '{ not json'")
        assert store.get(("key",)) is None
        assert store.stats.misses == 1

    def test_overwrite_replaces_the_row(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        store.put(("key",), _result(0))
        store.put(("key",), _result(5))
        assert len(store) == 1
        served = store.get(("key",))
        assert served.shapley[fact("R", 5)] == Fraction(1, 6)

    def test_two_instances_share_one_file(self, tmp_path):
        writer = SQLiteResultStore(tmp_path / "shared.db")
        reader = SQLiteResultStore(tmp_path / "shared.db")
        writer.put(("key",), _result(2))
        served = reader.get(("key",))
        assert served is not None
        assert served.shapley[fact("R", 2)] == Fraction(1, 3)

    def test_clear_removes_rows_and_claims(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        store.put(("key",), _result(0))
        assert store.claim(("req",))
        store.clear()
        assert len(store) == 0
        assert SQLiteResultStore(tmp_path / "shared.db").claim(("req",))

    def test_version_mismatch_is_a_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        store.put(("key",), _result(0))
        with sqlite3.connect(str(store.path)) as conn:
            payload = json.loads(
                conn.execute("SELECT payload FROM results").fetchone()[0]
            )
            payload["version"] = FORMAT_VERSION + 1
            conn.execute("UPDATE results SET payload = ?", (json.dumps(payload),))
        assert store.get(("key",)) is None
        assert store.stats.misses == 1

    def test_digest_is_stable_and_hex(self):
        key = (("a", 1), fact("R", 1, "x"), None, True)
        first, second = digest_key(key), digest_key(key)
        assert first == second
        assert len(first) == 64
        int(first, 16)
        assert digest_key(((1,),)) != digest_key(((True,),))

    def test_row_from_the_previous_release_serves_warm(
        self, tmp_path, q1, monkeypatch
    ):
        """Payload bytes and digests are a file format: they never drift.

        The row below is exactly what the previous release wrote for
        ``q1`` on the Figure 1 database.  The current engine must find
        it under the same digest and decode the same exact values
        without running a single recursion, and a cold run today must
        write the very same row.
        """
        import repro.engine.executors as executors

        store = SQLiteResultStore(tmp_path / "results.db")
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute(
                "INSERT INTO results (digest, payload, bytes, writer, accessed)"
                " VALUES (?, ?, ?, ?, ?)",
                (
                    PREVIOUS_DIGEST,
                    PREVIOUS_PAYLOAD,
                    len(PREVIOUS_PAYLOAD),
                    PREVIOUS_WRITER,
                    time.time(),
                ),
            )

        def _refuse(*args, **kwargs):
            raise AssertionError("a warm row must not recurse")

        monkeypatch.setattr(executors, "batch_count_vectors", _refuse)
        db = figure_1_database()
        engine = BatchAttributionEngine(shared=store)
        served = engine.batch(db, q1)
        assert served.from_cache
        assert served.method == "cntsat"
        assert served.shapley[fact("TA", "Adam")] == Fraction(-3, 28)
        assert served.banzhaf[fact("Reg", "Ben", "OS")] == Fraction(5, 64)
        monkeypatch.undo()
        fresh = SQLiteResultStore(tmp_path / "fresh.db")
        BatchAttributionEngine(shared=fresh).batch(db, q1)
        with sqlite3.connect(str(fresh.path)) as conn:
            rows = conn.execute("SELECT digest, payload, writer FROM results")
            assert rows.fetchall() == [
                (PREVIOUS_DIGEST, PREVIOUS_PAYLOAD, PREVIOUS_WRITER)
            ]

    def test_sample_state_payload_from_the_previous_release_resumes(
        self, tmp_path, q1
    ):
        """A sampler state's payload is a file format too.

        ``PREVIOUS_STATE_PAYLOAD`` is what the previous release stored
        after a sampled ``q1`` batch on Figure 1 at ε = 0.5, δ = 0.1.
        Today's serial engine must store the same document (a sharded
        one counts two more evaluations per round range), and a store
        that holds only that document must resume its stream — no
        restart — to the same totals a cold run reaches.
        """
        db = figure_1_database()
        loose = MethodPolicy("sampled", epsilon=0.5, delta=0.1)
        tight = MethodPolicy("sampled", epsilon=0.25, delta=0.1)
        key = fingerprint_sample_state(fingerprint_request(db, q1, None))
        engine = BatchAttributionEngine(jobs=1)
        engine.batch(db, q1, policy=loose)
        assert encode_stored_value(engine.store.get(key)) == PREVIOUS_STATE_PAYLOAD

        store = SQLiteResultStore(tmp_path / "results.db")
        text = json.dumps(
            PREVIOUS_STATE_PAYLOAD, separators=(",", ":"), sort_keys=True
        )
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute(
                "INSERT INTO results (digest, payload, bytes, writer, accessed)"
                " VALUES (?, ?, ?, NULL, ?)",
                (digest_key(key), text, len(text), time.time()),
            )
        resuming = BatchAttributionEngine(shared=store)
        resumed = resuming.batch(db, q1, policy=tight)
        assert resuming.counters()["sampler.restarts"] == 0
        assert resumed.estimate.resumed_rounds == PREVIOUS_STATE_PAYLOAD["rounds"]
        cold_engine = BatchAttributionEngine()
        cold = cold_engine.batch(db, q1, policy=tight)
        assert resumed.shapley == cold.shapley
        assert resumed.estimate.rounds == cold.estimate.rounds
        resumed_state, cold_state = resuming.store.get(key), cold_engine.store.get(key)
        assert resumed_state.rounds == cold_state.rounds > 24
        assert resumed_state.totals == cold_state.totals


#: One row as the previous release's store wrote it (``q1`` on Figure 1).
PREVIOUS_DIGEST = "dbede1338471402db03b059301655dbc0caf28ad0bfb7a49633db2ac0f65b0d0"
PREVIOUS_WRITER = "6741b798ae0ad26ffb3115f36e4fbd23d69cc595debf7526efde0e0e8a01acda"
PREVIOUS_PAYLOAD = (
    '{"banzhaf":[["Reg",["Adam","AI"],"3","64"],["Reg",["Adam","OS"],"3","64"],'
    '["Reg",["Ben","OS"],"5","64"],["Reg",["Caroline","DB"],"15","64"],'
    '["Reg",["Caroline","IC"],"15","64"],["TA",["Adam"],"-9","64"],'
    '["TA",["Ben"],"-5","64"],["TA",["David"],"0","1"]],"kind":"result",'
    '"method":"cntsat","player_count":8,"shapley":[["Reg",["Adam","AI"],"37",'
    '"210"],["Reg",["Adam","OS"],"37","210"],["Reg",["Ben","OS"],"27","140"],'
    '["Reg",["Caroline","DB"],"13","42"],["Reg",["Caroline","IC"],"13","42"],'
    '["TA",["Adam"],"-3","28"],["TA",["Ben"],"-2","35"],["TA",["David"],"0",'
    '"1"]],"version":3,"writer":'
    '"6741b798ae0ad26ffb3115f36e4fbd23d69cc595debf7526efde0e0e8a01acda"}'
)

#: The previous release's stored sampler state for a sampled ``q1``
#: batch on Figure 1 at ε = 0.5, δ = 0.1: 24 rounds of one stream.
PREVIOUS_STATE_PAYLOAD = {
    "kind": "sample-state",
    "seed": 3239118050174235826,
    "rounds": 24,
    "evaluations": 338,
    "totals": [
        ["Reg", ["Adam", "AI"], 11],
        ["Reg", ["Adam", "OS"], 6],
        ["Reg", ["Ben", "OS"], 7],
        ["Reg", ["Caroline", "DB"], 14],
        ["Reg", ["Caroline", "IC"], 16],
        ["TA", ["Adam"], -4],
        ["TA", ["Ben"], -2],
        ["TA", ["David"], 0],
    ],
    "version": 3,
}


class TestEngineIntegration:
    def test_shared_warmth_across_engines(self, tmp_path, q1):
        """Engine B serves warm what engine A computed, through one file."""
        db = figure_1_database()
        a = BatchAttributionEngine(
            shared=SQLiteResultStore(tmp_path / "shared.db")
        )
        cold = a.batch(db, q1)
        assert not cold.from_cache

        b = BatchAttributionEngine(
            shared=SQLiteResultStore(tmp_path / "shared.db")
        )
        warm = b.batch(db, q1)
        assert warm.from_cache
        assert dict(warm.shapley) == dict(cold.shapley)
        assert b.shared.stats.hits >= 1
        assert b.counters()["shared.hits"] >= 1

    def test_engine_tags_and_retires_shared_rows(self, tmp_path, q1):
        db = figure_1_database()
        store = SQLiteResultStore(tmp_path / "shared.db")
        engine = BatchAttributionEngine(shared=store)
        engine.batch(db, q1)
        with sqlite3.connect(str(store.path)) as conn:
            writers = [row[0] for row in conn.execute("SELECT writer FROM results")]
        # Every write is tagged with the database version that made it.
        assert writers == [digest_key(fingerprint_database(db))]
        assert engine.retire_version(db) == 1
        with sqlite3.connect(str(store.path)) as conn:
            stamps = [
                row[0]
                for row in conn.execute("SELECT accessed FROM results")
            ]
        assert min(stamps) == pytest.approx(RETIRED_STAMP)

    def test_engine_tags_writes_with_the_database_version(self, tmp_path, q1):
        db = figure_1_database()
        store = SQLiteResultStore(tmp_path / "shared.db")
        engine = BatchAttributionEngine(shared=store)
        engine.batch(db, q1)
        with sqlite3.connect(str(store.path)) as conn:
            payload = json.loads(
                conn.execute("SELECT payload FROM results").fetchone()[0]
            )
        # The payload itself carries the writer tag, not just the column.
        assert payload["writer"] == digest_key(fingerprint_database(db))
        assert engine.retire_version(db) == 1

    def test_distinct_requests_get_distinct_entries(self, tmp_path, q1):
        store = SQLiteResultStore(tmp_path / "shared.db")
        engine = BatchAttributionEngine(shared=store)
        db = figure_1_database()
        engine.batch(db, q1)
        engine.batch(db, q1, exogenous_relations=frozenset({"Stud"}))
        assert len(store) == 2

    def test_grounding_keys_stay_separate(self, tmp_path):
        db = Database(endogenous=[fact("R", 1), fact("R", 2)])
        grounded = parse_query("q() :- R(2)")
        store = SQLiteResultStore(tmp_path / "shared.db")
        engine = BatchAttributionEngine(shared=store)
        engine.batch(db, grounded, grounding=(1, 2))
        engine.batch(db, grounded, grounding=(2, 2))
        assert len(store) == 2

    def test_stats_surface_claims(self, tmp_path, q1):
        db = figure_1_database()
        engine = BatchAttributionEngine(
            shared=SQLiteResultStore(tmp_path / "shared.db")
        )
        engine.batch(db, q1)
        # The engine never claims: the claim ledger is the daemon's to
        # report (its metrics document's ``shared.claims``), not a layer
        # of zeros on every engine with a durable store.
        assert "shared" in engine.stats
        assert "claims" not in engine.stats
        assert not any(name.startswith("claims.") for name in engine.counters())


class TestEviction:
    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db", max_entries=2)
        store.put(("key", 0), _result(0))
        store.put(("key", 1), _result(1))
        _stamp(store, ("key", 0), 1_000_000.0)  # stalest
        _stamp(store, ("key", 1), 1_000_001.0)
        store.put(("key", 2), _result(2))
        assert len(store) == 2
        assert store.get(("key", 0)) is None
        assert store.get(("key", 1)) is not None
        assert store.get(("key", 2)) is not None
        assert store.stats.evictions == 1

    def test_access_refreshes_stamp(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db", max_entries=2)
        store.put(("a",), _result(0))
        store.put(("b",), _result(1))
        _stamp(store, ("a",), 1_000_000.0)
        _stamp(store, ("b",), 1_000_001.0)
        assert store.get(("a",)) is not None  # bumps ("a",) to now
        store.put(("c",), _result(2))  # must evict ("b",), not ("a",)
        assert store.get(("a",)) is not None
        assert store.get(("b",)) is None

    def test_max_bytes_evicts_until_under_cap(self, tmp_path):
        probe = SQLiteResultStore(tmp_path / "probe.db")
        probe.put(("probe",), _result(0))
        with sqlite3.connect(str(probe.path)) as conn:
            entry_bytes = conn.execute(
                "SELECT bytes FROM results"
            ).fetchone()[0]

        store = SQLiteResultStore(
            tmp_path / "shared.db", max_bytes=2 * entry_bytes
        )
        for index in range(4):
            store.put(("key", index), _result(index))
            _stamp(store, ("key", index), 1_000_000.0 + index)
        store.put(("key", 4), _result(4))
        with sqlite3.connect(str(store.path)) as conn:
            total = conn.execute(
                "SELECT COALESCE(SUM(bytes), 0) FROM results"
            ).fetchone()[0]
        assert total <= 2 * entry_bytes
        assert store.stats.evictions >= 3

    def test_large_caps_drain_to_low_water(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db", max_entries=16)
        for index in range(17):
            store.put(("key", index), _result(index))
        assert len(store) == 14  # 16 - 16 // 8
        assert store.stats.evictions == 3

    def test_bounded_store_still_round_trips_through_engine(self, tmp_path, q1):
        db = figure_1_database()
        path = tmp_path / "shared.db"
        cold = BatchAttributionEngine(
            shared=SQLiteResultStore(path, max_entries=8)
        ).batch(db, q1)
        warm = BatchAttributionEngine(
            shared=SQLiteResultStore(path, max_entries=8)
        ).batch(db, q1)
        assert warm.from_cache
        assert dict(warm.shapley) == dict(cold.shapley)

    def test_retired_rows_evicted_before_live_ones(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db", max_entries=3)
        store.writer_version = "v1"
        store.put(("old", 0), _result(0))
        store.put(("old", 1), _result(1))
        store.writer_version = "v2"
        store.put(("live", 0), _result(2))
        assert store.retire("v1") == 2
        store.put(("live", 1), _result(3))  # crosses max_entries
        assert store.get(("live", 0)) is not None
        assert store.get(("live", 1)) is not None
        assert store.get(("old", 0)) is None or store.get(("old", 1)) is None

    def test_hit_revives_a_retired_row(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        store.writer_version = "v1"
        store.put(("shared",), _result(0))
        store.retire("v1")
        assert store.get(("shared",)) is not None
        with sqlite3.connect(str(store.path)) as conn:
            stamp = conn.execute("SELECT accessed FROM results").fetchone()[0]
        assert stamp > RETIRED_STAMP

    def test_unbounded_hit_leaves_a_live_stamp_alone(self, tmp_path):
        """Hits on an unbounded store are read-only transactions.

        An unbounded store never evicts, so re-stamping every hit would
        buy nothing and cost a write transaction per warm request on
        the fleet's hot path.  Only a retired row (above) earns the
        revival write.
        """
        store = SQLiteResultStore(tmp_path / "shared.db")
        store.put(("shared",), _result(0))
        with sqlite3.connect(str(store.path)) as conn:
            before = conn.execute("SELECT accessed FROM results").fetchone()[0]
        assert store.get(("shared",)) is not None
        with sqlite3.connect(str(store.path)) as conn:
            after = conn.execute("SELECT accessed FROM results").fetchone()[0]
        assert after == before

    def test_retire_searches_the_writer_index(self, tmp_path):
        """``retire`` runs on every ``db_update``: an index lookup, not a scan."""
        path = tmp_path / "shared.db"
        # A file from before the index existed gains it on open.
        with sqlite3.connect(str(path)) as conn:
            conn.execute(
                "CREATE TABLE results (digest TEXT PRIMARY KEY, payload TEXT"
                " NOT NULL, bytes INTEGER NOT NULL, writer TEXT,"
                " accessed REAL NOT NULL)"
            )
        store = SQLiteResultStore(path)
        store.writer_version = "v1"
        store.put(("old",), _result(0))
        with sqlite3.connect(str(path)) as conn:
            plan = conn.execute(
                "EXPLAIN QUERY PLAN UPDATE results SET accessed = ?"
                " WHERE writer = ?",
                (RETIRED_STAMP, "v1"),
            ).fetchall()
        details = " ".join(str(row[-1]) for row in plan)
        assert "USING INDEX results_writer" in details, details
        assert store.retire("v1") == 1


class TestClaims:
    def test_first_claim_wins_second_loses(self, tmp_path):
        a = SQLiteResultStore(tmp_path / "shared.db")
        b = SQLiteResultStore(tmp_path / "shared.db")
        assert a.claim(("req",)) is True
        assert b.claim(("req",)) is False
        assert a.claim_stats.won == 1
        assert b.claim_stats.lost == 1

    def test_release_clears_the_marker(self, tmp_path):
        a = SQLiteResultStore(tmp_path / "shared.db")
        b = SQLiteResultStore(tmp_path / "shared.db")
        a.claim(("req",))
        a.release(("req",))
        assert b.claim(("req",)) is True

    def test_expired_claim_is_taken_over(self, tmp_path):
        a = SQLiteResultStore(tmp_path / "shared.db")
        b = SQLiteResultStore(tmp_path / "shared.db")
        a.CLAIM_TTL = 0.01
        assert a.claim(("req",))
        time.sleep(0.05)
        assert b.claim(("req",)) is True  # crashed-winner takeover
        assert b.claim_stats.expired == 1

    def test_await_claim_returns_when_winner_releases(self, tmp_path):
        a = SQLiteResultStore(tmp_path / "shared.db")
        b = SQLiteResultStore(tmp_path / "shared.db")
        a.claim(("req",))

        def release_soon() -> None:
            time.sleep(0.05)
            a.release(("req",))

        thread = threading.Thread(target=release_soon)
        thread.start()
        assert b.await_claim(("req",)) is True
        thread.join()
        assert b.claim_stats.coalesced == 1

    def test_await_claim_times_out(self, tmp_path):
        a = SQLiteResultStore(tmp_path / "shared.db")
        b = SQLiteResultStore(tmp_path / "shared.db")
        a.claim(("req",))
        b.CLAIM_TTL = 0.05
        assert b.await_claim(("req",)) is False
        assert b.claim_stats.timeouts == 1

    def test_await_claim_with_no_claim_is_immediate(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "shared.db")
        assert store.await_claim(("never-claimed",)) is True


CROSS_PROCESS_SCRIPT = r"""
import json, sys
from repro.engine import BatchAttributionEngine, SQLiteResultStore
from repro.io import database_from_dict
from repro.core.parser import parse_query

mode, path, db_json, query_text = sys.argv[1:5]
database = database_from_dict(json.loads(db_json))
query = parse_query(query_text)

if mode == "warm":
    # Zero-recursion contract: any attempt to compute (shared recursion
    # OR brute force) must blow up loudly.  The compute paths live in the
    # executor layer since the plan/execute split.
    import repro.engine.executors as executors
    import repro.shapley.brute_force as brute

    def _refuse(*args, **kwargs):
        raise RuntimeError("warm path must not recurse")

    executors.batch_count_vectors = _refuse
    brute.shapley_all_brute_force = _refuse

engine = BatchAttributionEngine(shared=SQLiteResultStore(path))
result = engine.batch(database, query)
print(json.dumps({
    "from_cache": result.from_cache,
    "method": result.method,
    "shapley": sorted(
        [repr(f), str(v)] for f, v in result.shapley.items()
    ),
}))
"""


class TestCrossProcess:
    def test_process_b_serves_warm_with_zero_recursions(self, tmp_path):
        """Process A populates the file; process B must answer from it."""
        db = figure_1_database()

        def run(mode: str) -> dict:
            completed = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    CROSS_PROCESS_SCRIPT,
                    mode,
                    str(tmp_path / "results.db"),
                    json.dumps(database_to_dict(db)),
                    "q1() :- Stud(x), not TA(x), Reg(x, y)",
                ],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            assert completed.returncode == 0, completed.stderr
            return json.loads(completed.stdout)

        cold = run("cold")
        assert not cold["from_cache"]
        warm = run("warm")
        assert warm["from_cache"]
        assert warm["method"] == cold["method"]
        assert warm["shapley"] == cold["shapley"]


TORTURE_SCRIPT = r"""
import json, sys, random
from fractions import Fraction
from repro.core.facts import fact
from repro.engine import BatchResult, SQLiteResultStore

worker, path, keys, rounds = (
    int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
)
store = SQLiteResultStore(path, max_entries=64, timeout=60.0)
store.CLAIM_TTL = 5.0
rng = random.Random(worker)

def expected(index):
    value = Fraction(1, index + 1)
    return BatchResult(
        {fact("R", index): value}, {fact("R", index): value}, "cntsat", 1
    )

mismatches = 0
puts = gets = hits = claims = 0
for _ in range(rounds):
    index = rng.randrange(keys)
    key = ("torture", index)
    action = rng.random()
    if action < 0.45:
        assert store.put(key, expected(index))
        puts += 1
    elif action < 0.9:
        served = store.get(key)
        gets += 1
        if served is not None:
            hits += 1
            want = expected(index)
            if (
                dict(served.shapley) != dict(want.shapley)
                or dict(served.banzhaf) != dict(want.banzhaf)
                or served.method != want.method
            ):
                mismatches += 1
    else:
        if store.claim(key):
            store.put(key, expected(index))
            store.release(key)
        claims += 1

print(json.dumps({
    "mismatches": mismatches, "puts": puts, "gets": gets,
    "hits": hits, "claims": claims,
}))
"""


class TestConcurrentWriters:
    def test_n_process_torture_no_lost_updates(self, tmp_path):
        """N real processes hammer one file with put/get/claim.

        Values are a pure function of their key, so *any* read that
        returns data must be bit-identical to what some writer put —
        a torn or half-applied write would surface as a mismatch (or a
        decode failure, which ``get`` would count as a miss and the
        hit-rate floor below would catch).  The entry cap must hold at
        the end, and nothing may deadlock or crash.
        """
        workers, keys, rounds = 4, 24, 120
        path = tmp_path / "torture.db"
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    TORTURE_SCRIPT,
                    str(worker),
                    str(path),
                    str(keys),
                    str(rounds),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            for worker in range(workers)
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            reports.append(json.loads(out))

        # Bit-identical reads: no process ever observed a wrong value.
        assert sum(report["mismatches"] for report in reports) == 0
        # No lost updates: every key that was ever put decodes to exactly
        # its expected value afterwards (the cap may have evicted some).
        store = SQLiteResultStore(path)
        present = 0
        for index in range(keys):
            served = store.get(("torture", index))
            if served is None:
                continue
            present += 1
            value = Fraction(1, index + 1)
            assert served.shapley == {fact("R", index): value}
        assert present > 0
        # Bounded size: the cap held under concurrent writers.
        assert len(store) <= 64
        # No claim marker leaked past the storm.
        with sqlite3.connect(str(path)) as conn:
            live = conn.execute(
                "SELECT COUNT(*) FROM claims WHERE expires > ?",
                (time.time() + 10,),
            ).fetchone()[0]
        assert live == 0
        # The workload actually exercised every verb.
        assert sum(report["puts"] for report in reports) > 0
        assert sum(report["hits"] for report in reports) > 0
        assert sum(report["claims"] for report in reports) > 0
