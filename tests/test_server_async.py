"""The asyncio daemon under concurrency (ISSUE 7 tentpole + satellite 2).

* **Pipelining** — one connection, many outstanding requests, responses
  claimed by protocol request id in any completion order;
* **storm property test** — N pipelined clients issuing interleaved
  ``batch`` / ``answers`` / ``refine`` streams return results
  bit-identical to in-process engines, on the serial *and* the
  ``jobs=2`` sharded backend (Hypothesis over workload seeds);
* **coalescing accounting** — every admitted compute request is exactly
  one coalescer leader or follower (leaders + followers == total), and
  nothing aborts under a clean storm;
* **metrics reconciliation** — the daemon's ``metrics`` ledger matches
  the client-side request log, and the admission gauges return to zero
  (no leaked slots) after every storm;
* **thread roles** — every engine call of a storm runs on the one engine
  thread; each compute request is prepared and run there in one job,
  never on the helper thread; a fleet claim loser waits off that
  thread, so other keys keep computing while it waits; and loads and
  updates run on the helper thread while a compute holds the engine;
* **one queue** — admission hands the engine thread one compute at a
  time, so priority, per-client round-robin and ``deadline_ms`` order
  and expire execution, and a coalesced follower takes no slot.
"""

from __future__ import annotations

import random
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from harness import (
    assert_bit_identical,
    assert_metrics_reconcile,
    assert_no_leaked_slots,
    encode_request,
    raw_connection,
    reference_results,
    run_storm,
    running_daemon,
)
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.engine import (
    BatchAttributionEngine,
    SerialExecutor,
    ShardedExecutor,
    SQLiteResultStore,
)
from repro.server import AttributionClient, AttributionDaemon
from repro.server.protocol import CoalescedRequestAborted, DeadlineExceededError
from repro.workloads.running_example import figure_1_database
from repro.workloads.traffic import TrafficRequest, star_traffic

Q1 = "q1() :- Stud(x), not TA(x), Reg(x, y)"
ANS = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"
REFINE_QUERY = "q() :- Stud(x), Reg(x, y)"

seeds = st.integers(min_value=0, max_value=10_000)


def storm_stream(seed: int, length: int = 18, refines: int = 4):
    """A mixed batch/answers/refine stream plus its database."""
    rng = random.Random(seed)
    database, stream = star_traffic(length, rng=rng)
    stream = stream + [TrafficRequest("refine", REFINE_QUERY)] * refines
    rng.shuffle(stream)
    return database, stream


class TestPipelining:
    def test_many_outstanding_requests_one_connection(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                pending = [client.submit_batch(handle, Q1) for _ in range(6)]
                pending += [client.submit_answers(handle, ANS)]
                # Claim in reverse submission order: responses for other
                # ids must be parked, not lost.
                results = [p.result() for p in reversed(pending)]
                answers = results[0]
                from repro.core.parser import parse_query

                reference = BatchAttributionEngine()
                expected = reference.batch(db, parse_query(Q1))
                for result in results[1:]:
                    assert dict(result.shapley) == dict(expected.shapley)
                expected_answers = reference.batch_answers(db, parse_query(ANS))
                assert set(answers.per_answer) == set(expected_answers.per_answer)

    def test_interleaved_claims_out_of_order(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                first = client.submit_batch(handle, Q1)
                second = client.submit_batch(handle, "q() :- Stud(x), Reg(x, y)")
                third = client.ping()  # a sync call between pipelined ones
                assert third["pong"] is True
                assert dict(second.result().shapley) != {}
                assert dict(first.result().shapley) != {}

    def test_pipelined_error_frames_round_trip(self, tmp_path):
        from repro.core.errors import QuerySyntaxError

        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                good = client.submit_batch(handle, Q1)
                bad = client.submit_batch(handle, "q() :- ")
                with pytest.raises(QuerySyntaxError):
                    bad.result()
                assert dict(good.result().shapley) != {}
                # The error is cached, not re-read from the stream.
                with pytest.raises(QuerySyntaxError):
                    bad.result()


@pytest.fixture(scope="module")
def serial_daemon(tmp_path_factory):
    directory = tmp_path_factory.mktemp("storm-serial")
    engine = BatchAttributionEngine(executor=SerialExecutor())
    with running_daemon(directory, engine=engine) as daemon:
        yield daemon


@pytest.fixture(scope="module")
def sharded_daemon(tmp_path_factory):
    directory = tmp_path_factory.mktemp("storm-sharded")
    engine = BatchAttributionEngine(executor=ShardedExecutor(jobs=2))
    with running_daemon(directory, engine=engine) as daemon:
        yield daemon


def gated_engine():
    """A serial engine whose ``batch`` calls wait on a gate.

    Returns ``(engine, gate, started, calls)``: ``started`` is set by the
    first call, and ``calls`` lists every call's query ``repr`` in the
    order the engine thread ran them.
    """
    engine = BatchAttributionEngine(executor=SerialExecutor())
    gate, started = threading.Event(), threading.Event()
    calls: list[str] = []
    real_batch = engine.batch

    def batch(database, query, *args, **kwargs):
        calls.append(repr(query))
        started.set()
        assert gate.wait(20), "test gate never opened"
        return real_batch(database, query, *args, **kwargs)

    engine.batch = batch  # type: ignore[method-assign]
    return engine, gate, started, calls


def low_query(index: int) -> str:
    """Distinct query texts, so coalescing cannot merge them."""
    return f"q() :- Stud(x), not TA(x), Reg(x, y{index})"


def _run_and_audit(daemon, seed: int, clients: int = 3) -> None:
    database, stream = storm_stream(seed)
    with AttributionClient(daemon.address) as probe:
        before = probe.metrics()
        report = run_storm(
            daemon.address, database, stream, clients=clients, pipeline_depth=6
        )
        after = probe.metrics()
    assert not report.failures, report.error_types()
    assert len(report.records) == len(stream)
    assert_bit_identical(report, reference_results(database, stream))
    assert_metrics_reconcile(after, report, before=before)
    assert_no_leaked_slots(after)
    # Every admitted compute request is exactly one leader or follower.
    coalescing = after.get("coalescing", {})
    before_coalescing = before.get("coalescing", {})
    computed = coalescing.get("leaders", 0) - before_coalescing.get("leaders", 0)
    shared = coalescing.get("followers", 0) - before_coalescing.get(
        "followers", 0
    )
    assert computed + shared == len(report.successes)
    assert coalescing.get("aborted", 0) == before_coalescing.get("aborted", 0)


class TestStormProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=seeds)
    def test_interleaved_streams_serial_backend(self, serial_daemon, seed):
        _run_and_audit(serial_daemon, seed)

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=seeds)
    def test_interleaved_streams_sharded_backend(self, sharded_daemon, seed):
        _run_and_audit(sharded_daemon, seed)


class TestThreadRoles:
    def test_storm_runs_every_engine_call_on_one_thread(self, tmp_path):
        engine = BatchAttributionEngine(executor=SerialExecutor())
        threads: set[int] = set()

        def recorded(call):
            def wrapper(*args, **kwargs):
                threads.add(threading.get_ident())
                return call(*args, **kwargs)

            return wrapper

        for name in ("batch", "batch_answers", "refine"):
            setattr(engine, name, recorded(getattr(engine, name)))
        database, stream = storm_stream(7, length=36, refines=6)
        with running_daemon(tmp_path, engine=engine) as daemon:
            report = run_storm(
                daemon.address, database, stream, clients=4, pipeline_depth=6
            )
        assert not report.failures, report.error_types()
        assert_bit_identical(report, reference_results(database, stream))
        assert len(threads) == 1, f"engine calls ran on {len(threads)} threads"

    def test_each_compute_request_is_one_engine_thread_hop(self, tmp_path):
        """Prepare and compute run on the engine thread, in one job each."""
        engine = BatchAttributionEngine(executor=SerialExecutor())
        ran: list[tuple[str, str]] = []

        def recorded(label, call):
            def wrapper(*args, **kwargs):
                ran.append((label, threading.current_thread().name))
                return call(*args, **kwargs)

            return wrapper

        for name in ("batch", "batch_answers", "refine"):
            setattr(engine, name, recorded(name, getattr(engine, name)))
        with running_daemon(tmp_path, engine=engine) as daemon:
            daemon._preparers = {
                op: recorded(f"prepare {op}", prepare)
                for op, prepare in AttributionDaemon._preparers.items()
            }
            jobs = {"engine": 0, "helper": 0}
            for pool in ("engine", "helper"):
                executor = getattr(daemon, f"_{pool}_thread")

                def submit(*args, _pool=pool, _submit=executor.submit, **kwargs):
                    jobs[_pool] += 1
                    return _submit(*args, **kwargs)

                executor.submit = submit
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(figure_1_database())
                assert jobs == {"engine": 0, "helper": 1}  # the db_load
                requests = [
                    lambda: client.batch(handle, Q1),
                    lambda: client.answers(handle, ANS),
                    lambda: client.refine(handle, REFINE_QUERY),
                    lambda: client.aggregate(handle, ANS, "count"),
                ]
                for number, send in enumerate(requests, start=1):
                    send()
                    assert jobs == {"engine": number, "helper": 1}
        labels = [label for label, _ in ran]
        for op in ("batch", "answers", "refine", "aggregate"):
            assert f"prepare {op}" in labels
        assert {"batch", "batch_answers", "refine"} <= set(labels)
        threads = {thread for _, thread in ran}
        assert len(threads) == 1, threads
        assert threads.pop().startswith("repro-engine")

    def test_claim_loser_waits_while_another_key_computes(self, tmp_path):
        """Daemon B's loser of a fleet claim does not hold B's engine."""
        database = figure_1_database()
        engines = [
            BatchAttributionEngine(
                shared=SQLiteResultStore(tmp_path / "shared.db")
            )
            for _ in range(2)
        ]
        gate = threading.Event()
        winner_computing = threading.Event()
        real_batch = engines[0].batch

        def gated_batch(*args, **kwargs):
            winner_computing.set()
            assert gate.wait(20), "test gate never opened"
            return real_batch(*args, **kwargs)

        engines[0].batch = gated_batch  # type: ignore[method-assign]
        other_query = "q() :- Stud(x), Reg(x, y)"
        with running_daemon(tmp_path, engines[0], "a.sock") as a, running_daemon(
            tmp_path, engines[1], "b.sock"
        ) as b:
            try:
                with AttributionClient(a.address) as client_a, AttributionClient(
                    b.address
                ) as client_b:
                    handle = client_a.load_database(database)
                    assert client_b.load_database(database) == handle
                    winner = client_a.submit_batch(handle, Q1)
                    assert winner_computing.wait(20)
                    loser = client_b.submit_batch(handle, Q1)
                    claims = engines[1].shared.claim_stats
                    deadline = time.monotonic() + 20
                    while claims.lost < 1 and time.monotonic() < deadline:
                        time.sleep(0.005)
                    assert claims.lost == 1
                    finished: list[object] = []

                    def other_key() -> None:
                        with AttributionClient(b.address) as client:
                            finished.append(client.batch(handle, other_query))

                    other = threading.Thread(target=other_key, daemon=True)
                    other.start()
                    other.join(10)
                    assert finished, "another key on B waited for A's claim"
                    assert claims.coalesced == 0  # the loser is still waiting
                    gate.set()
                    expected = winner.result()
                    assert dict(loser.result().shapley) == dict(expected.shapley)
                    assert claims.coalesced == 1
            finally:
                gate.set()

    def test_loads_and_updates_run_while_a_compute_holds_the_engine(
        self, tmp_path
    ):
        """The helper thread serves db_load and db_update past a busy engine."""
        engine, gate, started, _ = gated_engine()
        with running_daemon(tmp_path, engine=engine) as daemon:
            try:
                with AttributionClient(daemon.address) as client:
                    handle = client.load_database(figure_1_database())
                    held = client.submit_batch(handle, Q1)
                    assert started.wait(20)
                    with AttributionClient(daemon.address) as other:
                        database = figure_1_database()
                        database.add(fact("Reg", "Adam", "AI"), endogenous=True)
                        loaded = other.load_database(database)
                        updated = other.update_database(
                            loaded, adds=[fact("Stud", "Zoe")]
                        )
                        assert updated not in (handle, loaded)
                    assert not gate.is_set() and not held.done()
                    gate.set()
                    assert dict(held.result().shapley) != {}
            finally:
                gate.set()


class TestAdmissionControl:
    def test_overload_sheds_with_typed_retryable_frames(self, tmp_path):
        """Past max_inflight plus its 4x queue the daemon sheds, never hangs."""
        import time as time_module

        from repro.server.protocol import OverloadedError

        db = figure_1_database()
        engine = BatchAttributionEngine()
        slow_batch = engine.batch

        def braked(*args, **kwargs):
            time_module.sleep(0.15)
            return slow_batch(*args, **kwargs)

        engine.batch = braked  # type: ignore[method-assign]
        with running_daemon(tmp_path, engine=engine, max_inflight=1) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                # Distinct queries so coalescing cannot absorb the burst.
                queries = [
                    f"q() :- Stud(x), not TA(x), Reg(x, y{i})" for i in range(6)
                ]
                pending = [
                    client.submit_batch(handle, text) for text in queries
                ]
                outcomes = []
                for request in pending:
                    try:
                        request.result()
                        outcomes.append("ok")
                    except OverloadedError as error:
                        assert error.retryable is True
                        outcomes.append("shed")
                assert "shed" in outcomes, outcomes
                assert "ok" in outcomes, outcomes
                metrics = client.metrics()
                assert metrics["admission"]["shed_overload"] >= 1
                assert_no_leaked_slots(metrics)

    def test_per_client_rate_limit_sheds_the_greedy_client(self, tmp_path):
        from repro.server.protocol import OverloadedError

        db = figure_1_database()
        with running_daemon(tmp_path, per_client_rps=1.0) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                assert dict(client.batch(handle, Q1).shapley) != {}
                with pytest.raises(OverloadedError, match="rate limit"):
                    for _ in range(20):
                        client.batch(handle, Q1)
                metrics = client.metrics()
                assert metrics["admission"]["shed_throttled"] >= 1

    def test_expired_deadline_is_a_typed_frame(self, tmp_path):
        from repro.server.protocol import CoalescedRequestAborted, DeadlineExceededError

        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                pending = client.submit_batch(handle, Q1, deadline_ms=-1.0)
                with pytest.raises(DeadlineExceededError):
                    pending.result()
                assert client.metrics()["admission"]["deadline_expired"] >= 1

    def test_priority_orders_execution_behind_a_long_queue(self, tmp_path):
        """A priority-9 request is the next engine call past 33 queued ones."""
        engine, gate, started, calls = gated_engine()
        with running_daemon(tmp_path, engine=engine) as daemon:
            try:
                with AttributionClient(daemon.address) as client:
                    handle = client.load_database(figure_1_database())
                    held = client.submit_batch(handle, Q1)
                    assert started.wait(20)
                    low = [
                        client.submit_batch(handle, low_query(i), priority=0)
                        for i in range(33)
                    ]
                    urgent = client.submit_batch(
                        handle, low_query(99), priority=9
                    )
                    client.ping()  # every request above is queued by now
                    assert client.metrics()["queue"]["depth"] == 34
                    gate.set()
                    for pending in [held, *low, urgent]:
                        assert dict(pending.result().shapley) != {}
            finally:
                gate.set()
        assert len(calls) == 35
        assert calls[:3] == [
            repr(parse_query(text)) for text in (Q1, low_query(99), low_query(0))
        ]

    def test_clients_in_one_priority_class_alternate(self, tmp_path):
        engine, gate, started, calls = gated_engine()
        with running_daemon(tmp_path, engine=engine) as daemon:
            try:
                with AttributionClient(daemon.address) as first, AttributionClient(
                    daemon.address
                ) as second:
                    handle = first.load_database(figure_1_database())
                    held = first.submit_batch(handle, Q1)
                    assert started.wait(20)
                    pending = []
                    for client, offset in ((first, 0), (second, 10)):
                        pending += [
                            client.submit_batch(handle, low_query(offset + i))
                            for i in range(3)
                        ]
                        client.ping()
                    gate.set()
                    for request in [held, *pending]:
                        assert dict(request.result().shapley) != {}
            finally:
                gate.set()
        assert calls[1:] == [
            repr(parse_query(low_query(index))) for index in (0, 10, 1, 11, 2, 12)
        ]

    def test_deadline_passing_in_the_queue_never_runs(self, tmp_path):
        engine, gate, started, calls = gated_engine()
        with running_daemon(tmp_path, engine=engine) as daemon:
            try:
                with AttributionClient(daemon.address) as client:
                    handle = client.load_database(figure_1_database())
                    held = client.submit_batch(handle, Q1)
                    assert started.wait(20)
                    late = client.submit_batch(
                        handle, low_query(1), deadline_ms=50.0
                    )
                    with pytest.raises(DeadlineExceededError):
                        late.result()
                    gate.set()
                    assert dict(held.result().shapley) != {}
                    metrics = client.metrics()
                    assert metrics["admission"]["deadline_expired"] == 1
                    assert_no_leaked_slots(metrics)
            finally:
                gate.set()
        assert calls == [repr(parse_query(Q1))]

    def test_duplicate_of_a_queued_leader_takes_no_slot(self, tmp_path):
        engine, gate, started, calls = gated_engine()
        with running_daemon(tmp_path, engine=engine) as daemon:
            try:
                with AttributionClient(daemon.address) as client:
                    handle = client.load_database(figure_1_database())
                    held = client.submit_batch(handle, Q1)
                    assert started.wait(20)
                    leader = client.submit("batch", db=handle, query=low_query(1))
                    client.ping()
                    assert client.metrics()["queue"]["depth"] == 1
                    duplicate = client.submit(
                        "batch", db=handle, query=low_query(1)
                    )
                    client.ping()
                    assert client.metrics()["queue"]["depth"] == 1
                    gate.set()
                    held.result()
                    assert leader.result()["coalesced"] is False
                    assert duplicate.result()["coalesced"] is True
                    assert duplicate.result()["result"] == leader.result()["result"]
            finally:
                gate.set()
        assert len(calls) == 2

    def test_shutdown_delivers_a_gated_leader_and_its_follower(self, tmp_path):
        engine, gate, started, calls = gated_engine()
        with running_daemon(tmp_path, engine=engine) as daemon:
            try:
                with AttributionClient(daemon.address) as client:
                    handle = client.load_database(figure_1_database())
                    leader = client.submit_batch(handle, Q1)
                    assert started.wait(20)
                    follower = client.submit_batch(handle, Q1)
                    client.ping()
                    assert daemon.coalescer.stats.followers == 1
                    daemon.request_shutdown()
                    time.sleep(0.1)  # the drain is waiting on both
                    gate.set()
                    assert dict(follower.result().shapley) == dict(
                        leader.result().shapley
                    )
            finally:
                gate.set()
        assert len(calls) == 1

    def test_reaped_leader_aborts_its_follower(self, tmp_path):
        """A queued leader dies with its connection; its follower may retry."""
        engine, gate, started, calls = gated_engine()
        with running_daemon(tmp_path, engine=engine) as daemon:
            try:
                with AttributionClient(daemon.address) as client:
                    handle = client.load_database(figure_1_database())
                    held = client.submit_batch(handle, Q1)
                    assert started.wait(20)
                    sock = raw_connection(daemon)
                    sock.sendall(
                        encode_request("batch", db=handle, query=low_query(1))
                    )
                    deadline = time.monotonic() + 20
                    while (
                        client.metrics()["queue"]["depth"] < 1
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.005)
                    follower = client.submit_batch(handle, low_query(1))
                    client.ping()
                    assert daemon.coalescer.stats.followers == 1
                    sock.close()
                    with pytest.raises(CoalescedRequestAborted):
                        follower.result()
                    gate.set()
                    held.result()
                    metrics = client.metrics()
                    assert metrics["admission"]["reaped_waiters"] == 1
                    assert_no_leaked_slots(metrics)
            finally:
                gate.set()
        assert calls == [repr(parse_query(Q1))]


class TestGracefulDrain:
    def test_drain_refuses_new_compute_with_retryable_frame(self, tmp_path):
        from repro.server.protocol import OverloadedError

        db = figure_1_database()
        with running_daemon(tmp_path, drain_timeout=2.0) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                assert dict(client.batch(handle, Q1).shapley) != {}
                daemon.request_shutdown()
                # The daemon drains before exiting; inline ops stay up
                # and compute is refused with a retryable frame for as
                # long as the loop lives.
                try:
                    client.batch(handle, "q() :- Stud(x), Reg(x, y)")
                except (OverloadedError, ConnectionError, OSError) as error:
                    if isinstance(error, OverloadedError):
                        assert error.retryable is True
