"""Admission control for the asyncio daemon: one queue, shed early, fairly.

A serving loop that accepts every request eventually queues itself to
death: one slow client, one hot query, or one burst past engine capacity
and every other client's latency climbs without bound.  The admission
controller is the one queue in front of the daemon's engine thread:

* **one execution slot** — a coalescer leader holds it for each
  engine-thread hop; other leaders wait, and a new leader that finds
  ``5 * max_inflight`` leaders holding or waiting for the slot is shed
  at once with a retryable
  :class:`~repro.server.protocol.OverloadedError` (shedding at the door
  keeps the queue short enough that queued requests still meet their
  deadlines — the classic admission-control argument);
* **per-client rate limits** — a token bucket per client identity
  (connection peer), refilled at ``per_client_rps``, so one greedy
  client cannot starve the fleet; throttled requests are shed, not
  queued, because a client above its rate would only re-fill the queue;
* **priorities, fairness, and deadlines** — the slot goes to the
  highest priority class first, round-robin between clients *within* a
  class, so these order execution itself; a request whose
  ``deadline_ms`` expires while queued is failed with
  :class:`~repro.server.protocol.DeadlineExceededError` without ever
  touching the engine, and a waiter whose client disconnects is reaped.

The controller is **event-loop confined**: every method must run on the
daemon's loop (no locks needed).  Token buckets and deadlines read
``time.monotonic()``.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque

from repro.server.metrics import DaemonMetrics
from repro.server.protocol import DeadlineExceededError, OverloadedError


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/second, one request each.

    The burst is one second's worth of tokens, at least one — a client
    at exactly its rate never sees a shed.
    """

    __slots__ = ("rate", "capacity", "tokens", "_updated")

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.capacity = max(1.0, self.rate)
        self.tokens = self.capacity
        self._updated = time.monotonic()

    def try_acquire(self) -> bool:
        now = time.monotonic()
        self.tokens = min(
            self.capacity, self.tokens + (now - self._updated) * self.rate
        )
        self._updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class _Waiter:
    """One queued admission request: its future plus its queue address."""

    __slots__ = ("future", "client", "priority")

    def __init__(self, future: asyncio.Future, client: str, priority: int) -> None:
        self.future = future
        self.client = client
        self.priority = priority


class AdmissionController:
    """The engine slot, its queue, the buckets — see the module docstring.

    :attr:`capacity` (``5 * max_inflight``) bounds the leaders holding or
    waiting for the slot: deep enough to ride out a coalescing burst,
    shallow enough that queueing delay stays a small multiple of service
    time.
    """

    #: Token-bucket table bound: beyond this many distinct client
    #: identities the least-recently-seen bucket is dropped (it re-fills
    #: to full burst on return, which only ever under-throttles).
    MAX_BUCKETS = 1024

    def __init__(
        self,
        max_inflight: int,
        per_client_rps: float | None = None,
        metrics: DaemonMetrics | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        if per_client_rps is not None and per_client_rps <= 0:
            raise ValueError(
                f"per_client_rps must be positive, got {per_client_rps}"
            )
        self.per_client_rps = per_client_rps
        self.capacity = 5 * max_inflight
        # The ledger's ``inflight`` and ``queue_depth`` gauges are the
        # slot's state.
        self.metrics = metrics if metrics is not None else DaemonMetrics()
        # priority -> (client -> FIFO of waiters); clients round-robin
        # within a priority class, classes are served highest first.
        self._levels: dict[int, OrderedDict[str, deque[_Waiter]]] = {}
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    # ------------------------------------------------------------------
    # Admission and acquisition
    # ------------------------------------------------------------------
    def admit(self, client: str, deadline: float | None = None) -> None:
        """The door for every compute request, followers included.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp.
        Raises :class:`OverloadedError` (client above its rate) or
        :class:`DeadlineExceededError` (expired on arrival).
        """
        if self.per_client_rps is not None and not self._bucket(client).try_acquire():
            self.metrics.bump("shed_throttled")
            raise OverloadedError(
                f"client {client} is above its rate limit"
                f" ({self.per_client_rps:g} requests/second); retry later"
            )
        if deadline is not None and deadline <= time.monotonic():
            self.metrics.bump("deadline_expired")
            raise DeadlineExceededError(
                "request deadline expired before admission; no work was done"
            )

    async def acquire(
        self,
        client: str,
        priority: int = 0,
        deadline: float | None = None,
        *,
        shed: bool = True,
    ) -> None:
        """Wait for the engine slot; raises instead of queueing forever.

        Raises :class:`OverloadedError` (``shed`` set, and :attr:`capacity`
        leaders already hold or wait for the slot) or
        :class:`DeadlineExceededError` (expired while queued).  On
        success the caller owns the slot and must :meth:`release` it
        exactly once.
        """
        queued = self.metrics.queue_depth
        if not self.metrics.inflight:
            self._grant()
            return
        if shed and 1 + queued >= self.capacity:
            self.metrics.bump("shed_overload")
            raise OverloadedError(
                f"daemon at capacity (1 running, {queued} queued); retry later"
            )
        loop = asyncio.get_running_loop()
        waiter = _Waiter(loop.create_future(), client, priority)
        self._enqueue(waiter)
        expiry = None
        if deadline is not None:
            expiry = loop.call_later(
                max(0.0, deadline - time.monotonic()), self._expire, waiter
            )
        try:
            await waiter.future
        except asyncio.CancelledError:
            # The request task died while queued (client disconnected,
            # drain cancelled it).  If the slot was granted in the same
            # tick, hand it straight back so it cannot leak.
            if waiter.future.cancelled():
                self._discard(waiter)
                self.metrics.bump("reaped_waiters")
            elif waiter.future.exception() is None:
                self.release()
            raise
        finally:
            if expiry is not None:
                expiry.cancel()

    def _grant(self) -> None:
        self.metrics.bump("admitted")
        self.metrics.inflight_changed(+1)

    def _expire(self, waiter: _Waiter) -> None:
        if waiter.future.done():
            return
        self._discard(waiter)
        self.metrics.bump("deadline_expired")
        waiter.future.set_exception(
            DeadlineExceededError(
                "request deadline expired while queued; no work was done"
            )
        )

    # ------------------------------------------------------------------
    # Release and scheduling
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Return the slot and grant it onward (priority, then fairness)."""
        self.metrics.inflight_changed(-1)
        waiter = self._dequeue()
        if waiter is not None:
            self._grant()
            waiter.future.set_result(True)

    def _bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is not None:
            self._buckets.move_to_end(client)
            return bucket
        bucket = TokenBucket(self.per_client_rps)  # type: ignore[arg-type]
        self._buckets[client] = bucket
        while len(self._buckets) > self.MAX_BUCKETS:
            self._buckets.popitem(last=False)
        return bucket

    def _enqueue(self, waiter: _Waiter) -> None:
        level = self._levels.setdefault(waiter.priority, OrderedDict())
        level.setdefault(waiter.client, deque()).append(waiter)
        self.metrics.queue_changed(+1)

    def _dequeue(self) -> _Waiter | None:
        """The next live waiter: highest priority class, round-robin clients."""
        while self._levels:
            priority = max(self._levels)
            level = self._levels[priority]
            client, queue = next(iter(level.items()))
            waiter = queue.popleft()
            if queue:
                level.move_to_end(client)
            else:
                del level[client]
            if not level:
                del self._levels[priority]
            self.metrics.queue_changed(-1)
            if not waiter.future.done():
                return waiter
        return None

    def _discard(self, waiter: _Waiter) -> None:
        """Drop a waiter from its queue, if it is still there."""
        level = self._levels.get(waiter.priority, {})
        queue = level.get(waiter.client, ())
        if waiter not in queue:
            return
        queue.remove(waiter)
        if not queue:
            del level[waiter.client]
        if not level:
            del self._levels[waiter.priority]
        self.metrics.queue_changed(-1)


__all__ = ["AdmissionController", "TokenBucket"]
