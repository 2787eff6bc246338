"""Fault injection against the daemon (ISSUE 7 satellites 1 and 4).

Misbehaving peers must never take the daemon down, leak an admission
slot, or degrade service for well-behaved clients:

* a **slow loris** trickling a frame byte-by-byte is cut off by the
  frame-body timeout while a concurrent client is served normally;
* a client that **dies holding a queue slot** has its queued request
  reaped (``reaped_waiters``) and the gauges return to zero;
* **dropped and truncated frames** close only their own connection;
* a coalesced follower whose **leader crashes** or outlives the
  follower's patience gets a typed, retryable
  :class:`CoalescedRequestAborted` — never the leader's
  ``CancelledError``, never a hang.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from harness import (
    assert_no_leaked_slots,
    dead_client_holding_slot,
    die_mid_frame,
    running_daemon,
    send_truncated_frame,
    slow_loris,
)
from repro.engine import BatchAttributionEngine
from repro.server import AttributionClient, AttributionDaemon
from repro.server.protocol import CoalescedRequestAborted
from repro.server.registry import InFlightCoalescer
from repro.workloads.running_example import figure_1_database

Q1 = "q1() :- Stud(x), not TA(x), Reg(x, y)"
Q2 = "q() :- Stud(x), Reg(x, y)"


def poll_until(predicate, timeout: float = 10.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def braked_engine(pause: float = 0.25) -> BatchAttributionEngine:
    """An engine whose ``batch`` sleeps first — a knob to keep a slot busy."""
    engine = BatchAttributionEngine()
    inner = engine.batch

    def batch(*args, **kwargs):
        time.sleep(pause)
        return inner(*args, **kwargs)

    engine.batch = batch  # type: ignore[method-assign]
    return engine


class TestSlowLoris:
    def test_trickled_frame_is_cut_off_fast(self, tmp_path, monkeypatch):
        monkeypatch.setattr(AttributionDaemon, "FRAME_TIMEOUT", 0.3)
        with running_daemon(tmp_path) as daemon:
            result: dict[str, object] = {}

            def trickle() -> None:
                result["outcome"] = slow_loris(
                    daemon, chunk_size=1, delay=0.05, max_seconds=20.0
                )

            attacker = threading.Thread(target=trickle, daemon=True)
            attacker.start()
            # A well-behaved client is served while the trickle is live.
            db = figure_1_database()
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                served = client.batch(handle, Q1)
                assert dict(served.shapley) != {}
                attacker.join(timeout=30)
                assert not attacker.is_alive(), "slow-loris injector hung"
                closed, elapsed = result["outcome"]
                assert closed, "daemon never closed the trickling connection"
                # FRAME_TIMEOUT is 0.3s; well under the 20s trickle budget.
                assert elapsed < 10.0
                metrics = client.metrics()
                assert metrics["admission"]["slow_frames_closed"] >= 1
                assert_no_leaked_slots(metrics)

    def test_idle_connection_is_not_a_slow_loris(self, tmp_path, monkeypatch):
        """The timeout arms per *started* frame; silence between frames is fine."""
        monkeypatch.setattr(AttributionDaemon, "FRAME_TIMEOUT", 0.3)
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                assert client.ping()["pong"] is True
                time.sleep(0.6)  # idle well past FRAME_TIMEOUT
                assert client.ping()["pong"] is True


class TestDeadClients:
    def test_dead_client_holding_queue_slot_is_reaped(self, tmp_path):
        db = figure_1_database()
        engine = braked_engine(pause=0.3)
        with running_daemon(tmp_path, engine=engine, max_inflight=1) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                # Occupy the only execution slot (engine sleeps 0.3s)...
                pending = client.submit_batch(handle, Q1)
                time.sleep(0.05)  # let the slot fill
                # ...so the dying client's distinct query must queue.  The
                # linger keeps the socket open long enough for the request
                # to be parked behind the busy slot before the peer dies.
                dead_client_holding_slot(daemon, handle, Q2, linger=0.15)
                assert dict(pending.result().shapley) != {}
                assert poll_until(
                    lambda: client.metrics()["admission"]["reaped_waiters"] >= 1
                ), client.metrics()["admission"]
                assert poll_until(
                    lambda: assert_clean(client.metrics())
                ), client.metrics()["queue"]
                # Service continues for the living.
                again = client.batch(handle, Q2)
                assert dict(again.shapley) != {}
                assert_no_leaked_slots(client.metrics())

    def test_dead_inflight_client_returns_its_slot(self, tmp_path):
        db = figure_1_database()
        engine = braked_engine(pause=0.2)
        with running_daemon(tmp_path, engine=engine, max_inflight=2) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                # Nothing else is running: the dying client's request is
                # admitted straight to a slot, then the socket vanishes.
                dead_client_holding_slot(daemon, handle, Q2, linger=0.05)
                assert poll_until(
                    lambda: assert_clean(client.metrics())
                ), client.metrics()["queue"]
                served = client.batch(handle, Q1)
                assert dict(served.shapley) != {}


def assert_clean(metrics: dict) -> bool:
    queue = metrics.get("queue", {})
    return queue.get("depth") == 0 and queue.get("inflight") == 0


class TestBrokenFrames:
    def test_mid_frame_deaths_and_truncated_frames_hurt_nobody(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            for _ in range(3):
                die_mid_frame(daemon)
                send_truncated_frame(daemon)
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                served = client.batch(handle, Q1)
                assert dict(served.shapley) != {}
                metrics = client.metrics()
                assert_no_leaked_slots(metrics)

    def test_truncated_frame_between_served_requests(self, tmp_path):
        db = figure_1_database()
        with running_daemon(tmp_path) as daemon:
            with AttributionClient(daemon.address) as client:
                handle = client.load_database(db)
                first = client.batch(handle, Q1)
                send_truncated_frame(daemon, declared=1 << 20, sent=3)
                die_mid_frame(daemon, fraction=0.25)
                second = client.batch(handle, Q1)
                assert dict(first.shapley) == dict(second.shapley)
                assert_no_leaked_slots(client.metrics())


class TestCoalescerAborts:
    """Satellite 4: the typed abort frame, exercised at the unit level."""

    def test_follower_timeout_raises_typed_abort(self):
        coalescer = InFlightCoalescer()

        async def scenario() -> None:
            release = asyncio.Event()
            leader_started = asyncio.Event()

            async def slow_compute():
                leader_started.set()
                await asyncio.wait_for(release.wait(), 10.0)
                return "value"

            async def never_runs():
                return "never runs"

            leader = asyncio.create_task(coalescer.run_async("key", slow_compute))
            await asyncio.wait_for(leader_started.wait(), 5.0)
            with pytest.raises(CoalescedRequestAborted) as caught:
                await coalescer.run_async("key", never_runs, timeout=0.05)
            assert caught.value.retryable is True
            assert coalescer.stats.aborted == 1
            release.set()
            assert await asyncio.wait_for(leader, 5.0) == ("value", False)

        asyncio.run(scenario())
        assert coalescer.stats.leaders == 1
        assert coalescer.stats.followers == 1

    def test_leader_cancellation_aborts_followers_not_with_cancel(self):
        """A control-flow BaseException in the leader must never leak into
        an unrelated request — followers get the typed abort instead."""
        coalescer = InFlightCoalescer()
        outcome: dict[str, object] = {}

        async def scenario() -> None:
            follower_joined = asyncio.Event()

            async def doomed_compute():
                await asyncio.wait_for(follower_joined.wait(), 5.0)
                await asyncio.sleep(0.05)  # let the follower park on its event
                raise KeyboardInterrupt  # stands in for CancelledError

            async def never():
                raise AssertionError("follower must not become leader")

            async def leader() -> None:
                try:
                    await coalescer.run_async("key", doomed_compute)
                except KeyboardInterrupt:
                    outcome["leader"] = "interrupted"

            async def follower() -> None:
                follower_joined.set()
                try:
                    await coalescer.run_async("key", never, timeout=5.0)
                except BaseException as error:  # noqa: BLE001 - recording it
                    outcome["error"] = error

            leading = asyncio.create_task(leader())
            await asyncio.sleep(0.01)
            await asyncio.wait_for(asyncio.gather(leading, follower()), 10.0)

        asyncio.run(scenario())
        # The leader sees its own interruption...
        assert outcome["leader"] == "interrupted"
        # ...while the follower gets the typed, retryable abort.
        assert isinstance(outcome["error"], CoalescedRequestAborted)
        assert outcome["error"].retryable is True
        assert coalescer.stats.aborted == 1

    def test_ordinary_leader_exception_is_shared_verbatim(self):
        coalescer = InFlightCoalescer()
        seen: list[BaseException] = []

        async def scenario() -> None:
            gate = asyncio.Event()

            async def failing_compute():
                await asyncio.wait_for(gate.wait(), 5.0)
                await asyncio.sleep(0.05)
                raise ValueError("plan-time failure")

            async def never():
                return "never"

            async def leader() -> None:
                try:
                    await coalescer.run_async("key", failing_compute)
                except ValueError as error:
                    seen.append(error)

            async def follower() -> None:
                gate.set()
                try:
                    await coalescer.run_async("key", never, timeout=5.0)
                except ValueError as error:
                    seen.append(error)

            leading = asyncio.create_task(leader())
            await asyncio.sleep(0.01)
            await asyncio.wait_for(asyncio.gather(leading, follower()), 10.0)

        asyncio.run(scenario())
        assert len(seen) == 2
        assert seen[0] is seen[1]  # the very same exception object
        assert coalescer.stats.aborted == 0


class TestCoalesceTimeoutEndToEnd:
    def test_follower_timeout_round_trips_as_typed_frame(
        self, tmp_path, monkeypatch
    ):
        """A daemon-side coalesce timeout reaches the client as the typed,
        retryable :class:`CoalescedRequestAborted` — satellite 4's wire
        half."""
        db = figure_1_database()
        engine = braked_engine(pause=0.6)
        monkeypatch.setattr(AttributionDaemon, "COALESCE_TIMEOUT", 0.1)
        with running_daemon(tmp_path, engine=engine) as daemon:
            with AttributionClient(daemon.address) as leader_client:
                handle = leader_client.load_database(db)
                pending = leader_client.submit_batch(handle, Q1)
                time.sleep(0.1)  # the leader is now computing
                with AttributionClient(daemon.address) as follower_client:
                    follower_handle = follower_client.load_database(db)
                    with pytest.raises(CoalescedRequestAborted) as caught:
                        follower_client.batch(follower_handle, Q1)
                    assert caught.value.retryable is True
                assert dict(pending.result().shapley) != {}
                metrics = leader_client.metrics()
                assert metrics["coalescing"]["aborted"] >= 1
                assert_no_leaked_slots(metrics)
