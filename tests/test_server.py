"""The attribution service end to end (ISSUE 4 acceptance criteria).

* Server results are **bit-identical** ``Fraction``s to in-process
  engine results, property-tested across randomized CQ¬ workloads on
  both the serial and the ``jobs=2`` sharded backend;
* a second identical request is served from the warm store with **zero
  new recursions** (asserted two ways: the per-request stats delta shows
  zero executed tasks, and the compute paths are patched to explode);
* concurrent duplicate requests trigger **exactly one** computation
  (the coalescing counters are asserted);
* the daemon **survives** malformed frames and client disconnects
  mid-request, and shuts down cleanly on the ``shutdown`` op and on
  SIGTERM (socket file removed, exit code 0).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from harness import running_daemon
from repro.core.database import Database
from repro.core.errors import IntractableQueryError, QuerySyntaxError
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, SerialExecutor, ShardedExecutor
from repro.io import query_to_text, save_database
from repro.server import AttributionClient, AttributionDaemon
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    UnknownHandleError,
    request,
    write_frame,
)
from repro.workloads.generators import (
    random_database_for_query,
    random_hierarchical_query,
    star_join_database,
)
from repro.workloads.running_example import figure_1_database

SRC = str(Path(__file__).resolve().parent.parent / "src")
Q1 = "q1() :- Stud(x), not TA(x), Reg(x, y)"
ANS = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"

seeds = st.integers(min_value=0, max_value=10_000)


def _assert_identical(left, right):
    """Bit-identical values AND the canonical sorted-by-repr ordering."""
    assert list(left.shapley) == list(right.shapley)
    assert list(left.shapley) == sorted(left.shapley, key=repr)
    for item in left.shapley:
        assert left.shapley[item] == right.shapley[item]
        assert left.banzhaf[item] == right.banzhaf[item]
    assert left.method == right.method
    assert left.player_count == right.player_count


def _instance(seed: int):
    rng = random.Random(seed)
    query = random_hierarchical_query(rng=rng)
    database = random_database_for_query(query, domain_size=3, rng=rng)
    return query, database


class TestBasics:
    def test_ping_stats_and_handles(self, tmp_path):
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                pong = client.ping()
                assert pong["pong"] is True and pong["pid"] == os.getpid()
                db = figure_1_database()
                handle = client.load_database(db)
                assert handle.startswith("db:")
                # Content-addressed: a re-upload from a fresh client (no
                # client-side handle cache) lands on the same handle.
                with AttributionClient(daemon.address) as other:
                    assert other.load_database(figure_1_database()) == handle
                stats = client.stats()
                assert stats["registry"]["held"] == 1
                assert stats["registry"]["loads"] == 2
                assert stats["server"]["errors"] == 0

    def test_unknown_handle_round_trips(self, tmp_path):
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                with pytest.raises(UnknownHandleError, match="db_load"):
                    client.batch("db:feedfacefeedface", Q1)

    def test_parse_and_intractable_errors_round_trip(self, tmp_path):
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(figure_1_database())
                with pytest.raises(QuerySyntaxError):
                    client.batch(handle, "q() :- ")
                db = Database(
                    endogenous=[fact("R", 1), fact("T", 1)],
                    exogenous=[fact("S", 1, 1)],
                )
                with pytest.raises(IntractableQueryError, match="brute"):
                    client.batch(
                        db, "q() :- R(x), S(x, y), T(y)", policy="exact"
                    )
                # The failed requests left the daemon fully serviceable.
                assert client.ping()["pong"] is True

    def test_boolean_answers_mismatch_rejected(self, tmp_path):
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(figure_1_database())
                with pytest.raises(ValueError, match="head variables"):
                    client.answers(handle, Q1)
                with pytest.raises(ValueError, match="Boolean"):
                    client.batch(handle, ANS)


@pytest.fixture(scope="module")
def serial_daemon(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve-serial")
    engine = BatchAttributionEngine(executor=SerialExecutor())
    with running_daemon(directory, engine=engine) as daemon:
        yield daemon


@pytest.fixture(scope="module")
def sharded_daemon(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve-sharded")
    engine = BatchAttributionEngine(executor=ShardedExecutor(jobs=2))
    with running_daemon(directory, engine=engine) as daemon:
        yield daemon


@pytest.fixture(scope="module")
def serial_client(serial_daemon):
    with AttributionClient(serial_daemon.address) as client:
        yield client


@pytest.fixture(scope="module")
def sharded_client(sharded_daemon):
    with AttributionClient(sharded_daemon.address) as client:
        yield client


class TestServedResultsAreBitIdentical:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=seeds)
    def test_random_cq_batches_serial_backend(self, serial_client, seed):
        query, db = _instance(seed)
        reference = BatchAttributionEngine(executor=SerialExecutor()).batch(db, query)
        served = serial_client.batch(db, query_to_text(query))
        _assert_identical(reference, served)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=seeds)
    def test_random_cq_batches_sharded_backend(self, sharded_client, seed):
        query, db = _instance(seed)
        reference = BatchAttributionEngine(executor=SerialExecutor()).batch(db, query)
        served = sharded_client.batch(db, query_to_text(query))
        _assert_identical(reference, served)

    def test_answer_batches_match_in_process(self, serial_client):
        db = star_join_database(8, 3, rng=random.Random(11))
        reference = BatchAttributionEngine(executor=SerialExecutor()).batch_answers(
            db, parse_query(ANS)
        )
        served = serial_client.answers(db, ANS)
        assert list(reference.per_answer) == list(served.per_answer)
        for answer, result in reference.per_answer.items():
            _assert_identical(result, served.per_answer[answer])

    def test_aggregate_matches_in_process(self, serial_client):
        db = figure_1_database()
        reference = (
            BatchAttributionEngine(executor=SerialExecutor())
            .batch_answers(db, parse_query(ANS))
            .aggregate(lambda row: 1)
        )
        served = serial_client.aggregate(db, ANS, "count")
        assert dict(served) == dict(reference)


class TestWarmServing:
    def test_second_identical_request_runs_zero_new_recursions(
        self, tmp_path, monkeypatch
    ):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                first = client.batch(db, Q1)
                assert not first.from_cache
                # Any attempt to compute — shared recursion or brute
                # force — must now blow up loudly (the compute paths
                # live in the executor layer since the plan/execute
                # split, same patch points as test_sqlite_store).
                import repro.engine.executors as executors
                import repro.shapley.brute_force as brute

                def _refuse(*args, **kwargs):
                    raise RuntimeError("warm path must not recurse")

                monkeypatch.setattr(executors, "batch_count_vectors", _refuse)
                monkeypatch.setattr(brute, "shapley_all_brute_force", _refuse)
                second = client.batch(db, Q1)
                assert second.from_cache
                delta = client.last_response["stats"]
                assert delta["executor.tasks"] == 0
                assert delta["planner.pruned"] == 1
                _assert_identical(first, second)

    def test_concurrent_duplicate_requests_trigger_one_computation(self, tmp_path):
        db = figure_1_database()
        with running_daemon(
            tmp_path, engine=BatchAttributionEngine(executor=SerialExecutor())
        ) as daemon:
            gate = threading.Event()
            leader_started = threading.Event()
            real_batch = daemon.engine.batch
            calls: list[int] = []

            def gated_batch(*args, **kwargs):
                calls.append(1)
                leader_started.set()
                assert gate.wait(20), "test gate never opened"
                return real_batch(*args, **kwargs)

            daemon.engine.batch = gated_batch
            outcomes: list[tuple[dict, bool]] = []
            failures: list[BaseException] = []

            def issue():
                try:
                    with AttributionClient(daemon.address) as client:
                        result = client.batch(db, Q1)
                        outcomes.append(
                            (dict(result.shapley), client.last_response["coalesced"])
                        )
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    failures.append(error)

            first = threading.Thread(target=issue)
            second = threading.Thread(target=issue)
            first.start()
            assert leader_started.wait(20)
            second.start()
            deadline = time.monotonic() + 20
            while (
                daemon.coalescer.stats.followers < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert daemon.coalescer.stats.followers == 1
            gate.set()
            first.join(20)
            second.join(20)
            assert not failures, failures
            # Exactly one computation; one response marked coalesced.
            assert len(calls) == 1
            assert sorted(flag for _, flag in outcomes) == [False, True]
            assert outcomes[0][0] == outcomes[1][0]
            assert daemon.coalescer.stats.leaders == 1


class TestTcpTransport:
    def test_daemon_and_client_over_tcp_with_ephemeral_port(self):
        daemon = AttributionDaemon("127.0.0.1:0")
        host, port = daemon.location
        assert port != 0  # resolved at bind time
        assert daemon.address == f"{host}:{port}"
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            with AttributionClient(daemon.address) as client:
                assert client.ping()["pong"] is True
                result = client.batch(figure_1_database(), Q1)
                reference = BatchAttributionEngine(
                    executor=SerialExecutor()
                ).batch(figure_1_database(), parse_query(Q1))
                _assert_identical(reference, result)
        finally:
            daemon.shutdown()
            thread.join(timeout=10)
            daemon.close()


class TestClientResilience:
    def test_client_reconnects_after_a_dead_connection(self, tmp_path):
        with running_daemon(tmp_path) as daemon:
            client = AttributionClient(daemon.address)
            try:
                assert client.ping()["pong"] is True
                # Kill the transport under the client's feet; the next
                # call must re-dial and resend instead of failing.
                client._socket.shutdown(socket.SHUT_RDWR)
                assert client.ping()["pong"] is True
                assert client.batch(figure_1_database(), Q1).player_count == 8
            finally:
                client.close()

    def test_client_recovers_from_an_evicted_handle(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                first = client.batch(db, Q1)
                # Simulate a registry eviction (or a daemon restart that
                # kept the socket): every cached handle is now stale.
                with daemon.registry._lock:
                    daemon.registry._databases.clear()
                second = client.batch(db, Q1)  # re-uploads transparently
                _assert_identical(first, second)
                assert client.stats()["registry"]["loads"] == 2

    def test_explicit_stale_handle_still_raises(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                with daemon.registry._lock:
                    daemon.registry._databases.clear()
                # A raw handle string has nothing to re-upload.
                with pytest.raises(UnknownHandleError):
                    client.batch(handle, Q1)

    def test_oversized_response_becomes_a_structured_error(
        self, tmp_path, monkeypatch
    ):
        from repro.server import protocol
        from repro.server.protocol import ProtocolError

        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)  # big frame, before the cap
                # Small frames (requests, error frames) still fit; the
                # batch result does not — the daemon must answer with a
                # structured error, not a dead socket.
                monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 300)
                with pytest.raises(ProtocolError, match="cap"):
                    client.batch(handle, Q1)
                monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64 * 1024 * 1024)
                assert client.ping()["pong"] is True

    def test_handle_cache_is_identity_safe(self, tmp_path):
        # The client keys versions by content, not by object: a
        # content-identical but distinct database object shares the one
        # upload, and an object edited after upload is a new version.
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                first = client.load_database(figure_1_database())
                other = figure_1_database()
                assert client.load_database(other) == first
                same = other
                assert client.load_database(same) == first
                assert client.stats()["registry"]["loads"] == 1
                other.add_endogenous(fact("Reg", "Adam", "DB"))
                assert client.load_database(other) != first
                assert client.stats()["registry"]["loads"] == 2


class TestCoalescingKeys:
    def test_distinct_method_policies_never_coalesce(self, tmp_path):
        """An exact-only request must not inherit an auto leader's
        outcome (or vice versa): the policy is part of the key."""
        db = figure_1_database()
        with running_daemon(
            tmp_path, engine=BatchAttributionEngine(executor=SerialExecutor())
        ) as daemon:
            gate = threading.Event()
            first_started = threading.Event()
            real_batch = daemon.engine.batch
            calls: list[int] = []

            def gated_batch(*args, **kwargs):
                calls.append(1)
                first_started.set()
                assert gate.wait(20)
                return real_batch(*args, **kwargs)

            daemon.engine.batch = gated_batch
            results: list[dict] = []
            failures: list[BaseException] = []

            def issue(method: str) -> None:
                try:
                    with AttributionClient(daemon.address) as client:
                        result = client.batch(db, Q1, policy=method)
                        results.append(dict(result.shapley))
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    failures.append(error)

            threads = [
                threading.Thread(target=issue, args=("auto",)),
                threading.Thread(target=issue, args=("exact",)),
            ]
            threads[0].start()
            assert first_started.wait(20)
            threads[1].start()
            # The policies differ, so the second request must become its own
            # leader (it registers with the coalescer *before* queueing for
            # the engine thread) — never a follower of the first.
            deadline = time.monotonic() + 20
            while (
                daemon.coalescer.stats.leaders < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert daemon.coalescer.stats.leaders == 2
            assert daemon.coalescer.stats.followers == 0
            gate.set()
            for thread in threads:
                thread.join(20)
            assert not failures, failures
            assert len(calls) == 2
            assert daemon.coalescer.stats.followers == 0
            assert results[0] == results[1]


class TestRobustness:
    def test_daemon_survives_client_disconnect_mid_request(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
            # A raw connection that fires a request and hangs up without
            # ever reading the response.
            raw = socket.socket(socket.AF_UNIX)
            raw.connect(daemon.location)
            stream = raw.makefile("rwb")
            write_frame(stream, request("batch", 1, db=handle, query=Q1))
            raw.close()
            # The daemon finishes (or abandons the write), and keeps
            # serving everyone else — including from the warm store.
            with AttributionClient(daemon.address) as client:
                assert client.ping()["pong"] is True
                result = client.batch(handle, Q1)
                assert result.player_count > 0

    def test_malformed_frames_end_only_their_connection(self, tmp_path):
        with running_daemon(tmp_path) as daemon:
            for garbage in (
                struct.pack(">I", 5) + b"hello",  # body is not JSON
                struct.pack(">I", MAX_FRAME_BYTES + 7),  # oversized header
                b"\x00\x01",  # truncated header
            ):
                raw = socket.socket(socket.AF_UNIX)
                raw.connect(daemon.location)
                raw.sendall(garbage)
                raw.shutdown(socket.SHUT_WR)
                raw.settimeout(10)
                # Best-effort error frame (or clean close), then EOF.
                with contextlib.suppress(OSError):
                    raw.recv(1 << 16)
                raw.close()
            with AttributionClient(daemon.address) as client:
                assert client.ping()["pong"] is True

    def test_version_mismatch_is_a_structured_error(self, tmp_path):
        from repro.server.protocol import read_frame

        with running_daemon(tmp_path) as daemon:
            raw = socket.socket(socket.AF_UNIX)
            raw.connect(daemon.location)
            stream = raw.makefile("rwb")
            envelope = request("ping", 1)
            envelope["v"] = 999
            write_frame(stream, envelope)
            response = read_frame(stream)
            raw.close()
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "version" in response["error"]["message"]


class TestLifecycle:
    def test_shutdown_op_stops_the_daemon(self, tmp_path):
        daemon = AttributionDaemon(str(tmp_path / "stop.sock"))
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        with AttributionClient(daemon.address) as client:
            assert client.shutdown() == {"stopping": True}
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert not os.path.exists(str(tmp_path / "stop.sock"))

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        path = tmp_path / "stale.sock"
        # A socket file nothing listens on (a SIGKILLed daemon's corpse).
        corpse = socket.socket(socket.AF_UNIX)
        corpse.bind(str(path))
        corpse.close()
        assert path.exists()
        with running_daemon(tmp_path, name="stale.sock") as daemon:
            with AttributionClient(daemon.address) as client:
                assert client.ping()["pong"] is True

    def test_live_socket_is_not_stolen(self, tmp_path):
        with running_daemon(tmp_path, name="live.sock"):
            with pytest.raises(OSError, match="in use"):
                AttributionDaemon(str(tmp_path / "live.sock"))

    def test_sigterm_shuts_down_cleanly(self, tmp_path):
        db_path = tmp_path / "db.json"
        save_database(figure_1_database(), db_path)
        sock_path = tmp_path / "term.sock"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", str(sock_path)],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            with AttributionClient(str(sock_path), connect_retries=200) as client:
                assert client.ping()["pong"] is True
                handle = client.load_database(figure_1_database())
                assert client.batch(handle, Q1).player_count == 8
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=15)
        except BaseException:
            process.kill()
            raise
        assert process.returncode == 0, err
        assert "listening on" in out
        assert not sock_path.exists()


class TestCliIntegration:
    @pytest.mark.parametrize(
        "command",
        [
            ["batch", Q1, "--measure", "both"],
            ["answers", ANS, "--aggregate", "count", "--measure", "both"],
            ["batch", Q1, "--update", "delta.json"],
            # The repeat reaches the client as a sparse result.
            ["batch", Q1, "--measure", "both", "--repeat", "2"],
        ],
        ids=["batch", "answers-aggregate", "batch-update", "batch-repeat"],
    )
    @pytest.mark.parametrize("nodes", [1, 2], ids=["daemon", "fleet"])
    def test_connect_output_matches_local_output(
        self, tmp_path, capsys, monkeypatch, command, nodes
    ):
        """Every front door prints the same bytes as the in-process run.

        Each door gets fresh daemons: a warm node would add ``, cached``
        to the provenance lines.
        """
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        save_database(figure_1_database(), "db.json")
        Path("delta.json").write_text(
            json.dumps(
                {"add_endogenous": [["Reg", ["Adam", "DB"]]], "remove": [["TA", ["Ben"]]]}
            )
        )
        verb, query, *flags = command
        args = [verb, "db.json", query, *flags]
        assert main(args) == 0
        local_out = capsys.readouterr().out
        with contextlib.ExitStack() as stack:
            daemons = [
                stack.enter_context(running_daemon(tmp_path, name=f"node{i}.sock"))
                for i in range(nodes)
            ]
            connect = ",".join(daemon.address for daemon in daemons)
            assert main([*args, "--connect", connect]) == 0
        assert capsys.readouterr().out == local_out

    def test_connect_answers_json_round_trips_fractions(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import fraction_from_pair

        db_path = tmp_path / "db.json"
        save_database(figure_1_database(), db_path)
        with running_daemon(tmp_path) as daemon:
            code = main(
                [
                    "answers", str(db_path), ANS,
                    "--aggregate", "count",
                    "--connect", daemon.address,
                    "--json",
                ]
            )
            assert code == 0
            document = json.loads(capsys.readouterr().out)
        answers = [entry["answer"] for entry in document["answers"]]
        assert ["Caroline"] in answers
        caroline = next(
            entry for entry in document["answers"] if entry["answer"] == ["Caroline"]
        )
        from fractions import Fraction

        total = sum(
            (fraction_from_pair(row[2:]) for row in caroline["shapley"]),
            Fraction(0),
        )
        assert total == 1  # efficiency: the values sum to the query's worth
        assert document["aggregate"]["label"] == "count"
        assert {"coalescer", "engine", "registry", "server"} <= set(
            document["stats"]
        )

    def test_connect_unreachable_daemon_is_one_clean_error(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main
        from repro.server import client as client_module

        db_path = tmp_path / "db.json"
        save_database(figure_1_database(), db_path)
        original = client_module.AttributionClient

        class ImpatientClient(original):
            def __init__(self, address, **kwargs):
                kwargs.update(connect_retries=2, retry_interval=0.01)
                super().__init__(address, **kwargs)

        monkeypatch.setattr(client_module, "AttributionClient", ImpatientClient)
        code = main(
            [
                "batch", str(db_path), Q1,
                "--connect", str(tmp_path / "nobody-home.sock"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "no attribution daemon reachable" in err
