"""Session state of the attribution daemon: database handles, coalescing.

Two pieces of shared state let many clients drive one warm engine:

* :class:`DatabaseRegistry` — clients upload a database **once**
  (``db_load``) and then issue many queries against the returned handle.
  Handles are content-addressed (a digest of the engine's canonical
  database fingerprint), so re-uploading the same endogenous/exogenous
  split from any client yields the same handle and the daemon keeps one
  copy; a bounded LRU keeps long-lived daemons from accumulating every
  database they ever saw.  Since the delta-aware engine (PR 5) a client
  can also evolve a handle **in place**: ``db_update`` applies a
  fact-level :class:`repro.engine.delta.DatabaseDelta` against an
  existing handle and returns the successor's handle, and the registry
  remembers a bounded *version chain* per lineage — updating past the
  bound evicts the oldest versions (their handles go stale; the client
  transparently re-uploads if it still needs them).
* :class:`InFlightCoalescer` — concurrent *identical* requests (same
  wire key: op, handle, query text and the op's fields, see
  :meth:`repro.server.daemon.AttributionDaemon._wire_key`) share one
  computation: the first arrival becomes the leader and awaits the
  computation, later arrivals await the leader's future and receive its
  result (or its exception) without touching the engine.  The warm result store only helps *after* a computation
  finishes; the coalescer closes the window while it is still running —
  exactly the thundering-herd moment when a popular query goes out to a
  fleet of clients.

The registry is thread-safe: the daemon's helper thread writes it while
the engine thread reads it.  The coalescer belongs to one event loop: only
the daemon's loop touches its table and counters, so it needs no lock.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from typing import Any, Awaitable, Callable, TypeVar

from repro.core.database import Database
from repro.engine.cache import CACHE_COUNTERS
from repro.engine.delta import DatabaseDelta, apply_delta
from repro.engine.fingerprint import database_digest
from repro.obs.counters import Counters
from repro.server.protocol import CoalescedRequestAborted, UnknownHandleError

Value = TypeVar("Value")

#: Handles are prefixed so logs and error messages are self-describing.
HANDLE_PREFIX = "db:"


def database_handle(database: Database) -> str:
    """The content handle of a database version: ``db:`` plus its digest.

    The registry names every version it stores with it, the client
    keys the versions it holds by it, and the fleet routes by it, so all
    three agree on one name per version.  The digest is derived once per
    version (:func:`~repro.engine.fingerprint.database_digest`).
    """
    return HANDLE_PREFIX + database_digest(database)[:32]


class DatabaseRegistry:
    """Content-addressed, LRU-bounded store of uploaded databases.

    ``load`` returns ``db:<digest>`` where the digest hashes the canonical
    database fingerprint — the same canonicalization the engine's caches
    use, so two uploads that differ only in fact order collapse onto one
    handle.  ``get`` raises :class:`UnknownHandleError` for handles that
    were never loaded or have been evicted; the client's remedy is simply
    to ``db_load`` again.
    """

    #: Databases held before the least recently used is evicted.
    MAX_DATABASES = 64
    #: Linked versions kept per ``db_update`` lineage.
    MAX_VERSIONS = 8

    def __init__(self) -> None:
        # db_load and db_update calls, then handle lookups and evictions.
        self.stats = Counters("loads", "updates", *CACHE_COUNTERS)
        self._lock = threading.Lock()
        self._databases: OrderedDict[str, Database] = OrderedDict()
        # successor handle -> base handle: the version chains db_update
        # builds.  Bounded two ways: links die with either endpoint's
        # eviction, and each chain is trimmed to MAX_VERSIONS links.
        self._parents: dict[str, str] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._databases)

    def _evict_locked(self, handle: str) -> None:
        """Drop one handle and every chain link that touches it."""
        self._databases.pop(handle, None)
        self._parents.pop(handle, None)
        for successor, base in list(self._parents.items()):
            if base == handle:
                del self._parents[successor]
        self.stats.evictions += 1

    def _store_locked(self, database: Database, handle: str) -> None:
        if handle in self._databases:
            self._databases.move_to_end(handle)
        else:
            self._databases[handle] = database
            while len(self._databases) > self.MAX_DATABASES:
                stalest = next(iter(self._databases))
                self._evict_locked(stalest)

    def load(self, database: Database) -> str:
        """Store ``database`` (or refresh it) and return its handle."""
        handle = database_handle(database)
        with self._lock:
            self.stats.loads += 1
            self._store_locked(database, handle)
        return handle

    def update(
        self, handle: str, delta: DatabaseDelta
    ) -> tuple[str, Database, Database]:
        """Apply ``delta`` against ``handle``; returns the successor.

        Returns ``(successor_handle, base, successor)``.  The base stays
        loaded (other clients may still hold its handle) and a chain link
        successor → base is recorded; chains longer than
        :attr:`MAX_VERSIONS` links are trimmed from the old end — the evicted
        ancestors' handles go stale, exactly like an LRU eviction, and a
        client holding one simply re-uploads.  Raises
        :class:`UnknownHandleError` for unknown/evicted handles and
        :class:`ValueError` for deltas that do not apply.
        """
        base = self.get(handle)
        successor = apply_delta(base, delta)
        successor_handle = database_handle(successor)
        with self._lock:
            self.stats.updates += 1
            self._store_locked(successor, successor_handle)
            if successor_handle != handle:
                self._parents[successor_handle] = handle
            # Trim this lineage to MAX_VERSIONS linked versions: walk the
            # ancestry (guarding against content-addressing cycles) and
            # evict everything past the bound.
            ancestry = []
            seen = {successor_handle}
            cursor = successor_handle
            while cursor in self._parents:
                cursor = self._parents[cursor]
                if cursor in seen or cursor not in self._databases:
                    break
                seen.add(cursor)
                ancestry.append(cursor)
            for stale in ancestry[self.MAX_VERSIONS - 1 :]:
                self._evict_locked(stale)
        return successor_handle, base, successor

    def get(self, handle: str) -> Database:
        """The database behind ``handle``; raises :class:`UnknownHandleError`."""
        with self._lock:
            database = self._databases.get(handle)
            if database is not None:
                self._databases.move_to_end(handle)
                self.stats.hits += 1
                return database
            self.stats.misses += 1
        raise UnknownHandleError(
            f"unknown database handle {handle!r}: load the database with"
            " db_load first (the daemon may also have evicted it)"
        )

    def counters(self) -> dict[str, int]:
        """Flat JSON-ready accounting for the daemon's ``stats`` op."""
        with self._lock:
            held = len(self._databases)
            versions = len(self._parents)
        return {
            "held": held,
            "versions": versions,
            **vars(self.stats.snapshot()),
        }


#: How often in-flight sharing actually fired (and how often it broke):
#: ``leaders`` computations run, ``followers`` requests that shared one,
#: ``aborted`` followers that got no result (aborted leader or timeout).
COALESCER_COUNTERS = ("leaders", "followers", "aborted")


class InFlightCoalescer:
    """Deduplicate concurrent identical computations by key.

    ``await run_async(key, compute)`` returns ``(value, coalesced)``: the
    first request in for a key awaits ``compute()`` (``coalesced=False``);
    requests arriving while it runs wait and share the outcome
    (``coalesced=True``), including a raised exception — a request that
    fails at plan time fails identically for every coalesced waiter.

    Followers are never parked unconditionally: a follower whose
    ``timeout`` lapses, or whose leader is cancelled/killed before a
    result exists, gets a typed
    :class:`~repro.server.protocol.CoalescedRequestAborted` — retryable,
    because the leader's work (if any finished) landed in the warm
    store.

    The in-flight table holds *only running* computations: the moment a
    leader finishes, its key is removed, and the next identical request
    is the warm store's business, not the coalescer's.

    One event loop owns the coalescer: every call of :meth:`run_async`
    runs on it, so the table and the counters need no lock.  Each
    running key holds one :class:`asyncio.Future` of that loop, which
    the leader resolves to ``(value, error)``.
    """

    def __init__(self) -> None:
        self.stats = Counters(*COALESCER_COUNTERS)
        self._inflight: dict[Any, asyncio.Future] = {}

    async def run_async(
        self,
        key: Any,
        compute: Callable[[], Awaitable[Value]],
        timeout: float | None = None,
    ) -> tuple[Value, bool]:
        """Lead ``compute()`` for ``key``, or share the running leader's outcome.

        A request joins before its first await, so a follower counts in
        the stats the moment its request reaches the coalescer, which
        is what lets one slow leader absorb a whole burst.  A follower
        waits on the leader's future through :func:`asyncio.shield`, so
        its own timeout or cancellation never touches the leader.
        """
        outcome = self._inflight.get(key)
        if outcome is None:
            return await self._lead(key, compute), False
        self.stats.followers += 1
        try:
            value, error = await asyncio.wait_for(asyncio.shield(outcome), timeout)
        except asyncio.TimeoutError:
            self.stats.aborted += 1
            raise CoalescedRequestAborted(
                f"gave up waiting on an in-flight identical computation after"
                f" {timeout:g}s; the leader is still running — retry later"
            ) from None
        if error is not None:
            if isinstance(error, CoalescedRequestAborted):
                self.stats.aborted += 1
            raise error
        return value, True

    async def _lead(self, key: Any, compute: Callable[[], Awaitable[Value]]) -> Value:
        outcome = self._inflight[key] = asyncio.get_running_loop().create_future()
        self.stats.leaders += 1
        try:
            value = await compute()
        except BaseException as error:
            # Ordinary exceptions are shared verbatim (a plan-time
            # failure is identical for every coalesced request).
            # Control-flow BaseExceptions — CancelledError, interpreter
            # shutdown — must not propagate into unrelated requests, so
            # followers get a typed abort.
            shared = (
                error
                if isinstance(error, Exception)
                else CoalescedRequestAborted(
                    "the leader of this coalesced computation was cancelled"
                    f" ({type(error).__name__}) before a result existed; retry"
                )
            )
            outcome.set_result((None, shared))
            raise
        else:
            outcome.set_result((value, None))
            return value
        finally:
            del self._inflight[key]


__all__ = [
    "COALESCER_COUNTERS",
    "DatabaseRegistry",
    "HANDLE_PREFIX",
    "InFlightCoalescer",
    "UnknownHandleError",
    "database_handle",
]
