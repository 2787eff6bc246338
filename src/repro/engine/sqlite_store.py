"""SQLite-backed result store: the engine's one durable tier.

A :class:`SQLiteResultStore` is the durable tier behind the engine's
result LRU (:class:`repro.engine.stores.TieredResultStore`); its
entries live in a single SQLite file opened in WAL mode.  Results
survive the process that computed them, and N processes pointed at the
same path read each other's freshly computed results the moment they
are committed.  One process with ``--cache-dir DIR`` (the file
``DIR/results.db``) and a fleet of daemons with ``--shared-store PATH``
run the same code: a single process is a fleet of one.

Design points:

* **One payload dialect.** Rows store the versioned JSON documents of
  :func:`encode_stored_value` (a result's is the wire document of
  :func:`repro.io.batch_result_to_dict`), keyed by
  :func:`repro.engine.fingerprint.digest_key` — exact ``Fraction``
  results and resumable :class:`~repro.shapley.sampling.SampleState`
  values round-trip bit-identically, whichever process wrote them.
* **Concurrent-writer safe.** WAL journaling plus short ``BEGIN
  IMMEDIATE`` transactions make every upsert atomic under concurrent
  writers; readers never block writers.  SQLite errors (a locked or
  corrupt file) degrade to misses/skips, never exceptions — losing the
  durable tier costs recomputation, not correctness.
* **Access-stamp LRU.** Every hit on a *bounded* store re-stamps its
  row (an unbounded store never evicts, so its hits stay read-only —
  except to revive a retired row, since a bounded opener of the same
  file could otherwise drain it); every bounded write evicts the
  stalest rows until ``max_entries``/``max_bytes`` hold again, with
  large caps draining to a 7/8 low-water mark so the sweep amortizes.
  :meth:`SQLiteResultStore.retire` back-dates a superseded database
  version's rows to :data:`RETIRED_STAMP` so eviction drains them
  first — retirement propagates fleet-wide through the shared file.
* **Claim markers.** :meth:`SQLiteResultStore.claim` is an
  insert-if-absent marker with a TTL: when identical requests land on
  *different* daemons at the same time, exactly one wins the claim and
  computes; the losers :meth:`SQLiteResultStore.await_claim` (poll until
  the winner releases or the TTL expires) and then find the winner's row
  warm in the store instead of recomputing.  A crashed winner's claim
  simply expires.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.engine.cache import CACHE_COUNTERS
from repro.engine.fingerprint import digest_key
from repro.engine.results import BatchResult
from repro.io import (
    batch_result_from_dict,
    batch_result_to_dict,
    fact_from_row,
    fact_is_json_safe,
    fact_to_row,
)
from repro.obs import tracing as _tracing
from repro.obs.counters import Counters
from repro.shapley.sampling import SampleState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type names
    from repro.engine.stores import StoredValue

#: Version of the stored payload documents.  3 since the approximation
#: tier: payloads are discriminated by ``kind`` — ``"result"`` documents
#: (optionally carrying a sampled result's ``estimate`` block) and
#: ``"sample-state"`` documents (the resumable permutation-stream state
#: behind anytime refinement).
FORMAT_VERSION = 3

#: Access stamp given to retired (superseded-version) rows: far in the
#: past, so LRU eviction drains them before any live row.
RETIRED_STAMP = 1.0


def _encode_result(result: BatchResult) -> dict | None:
    try:
        payload = batch_result_to_dict(result)
    except ValueError:
        return None
    del payload["from_cache"]
    payload["kind"] = "result"
    return payload


def _encode_state(state: SampleState) -> dict | None:
    totals = []
    for player in sorted(state.totals, key=repr):
        if not fact_is_json_safe(player):
            return None
        totals.append(fact_to_row(player) + [state.totals[player]])
    return {
        "kind": "sample-state",
        "seed": state.seed,
        "rounds": state.rounds,
        "evaluations": state.evaluations,
        "totals": totals,
    }


def encode_stored_value(value: "StoredValue") -> dict | None:
    """The versioned JSON payload for one stored value, or None.

    ``None`` means some constant in the value does not survive JSON
    (the facts' constants must round-trip through JSON scalars, see
    :func:`repro.io.attribution_to_rows`); the entry is then simply not
    persisted.
    """
    if isinstance(value, SampleState):
        payload = _encode_state(value)
    else:
        payload = _encode_result(value)
    if payload is not None:
        payload["version"] = FORMAT_VERSION
    return payload


def decode_stored_value(payload: dict) -> "StoredValue":
    """Decode a payload produced by :func:`encode_stored_value`.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed or
    version-mismatched documents; the store treats those as misses.
    """
    if not isinstance(payload, dict) or payload.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported stored-value document")
    kind = payload.get("kind", "result")
    if kind == "sample-state":
        return SampleState(
            seed=int(payload["seed"]),
            rounds=int(payload["rounds"]),
            totals={
                fact_from_row([relation, args]): int(total)
                for relation, args, total in payload["totals"]
            },
            evaluations=int(payload["evaluations"]),
        )
    if kind != "result":
        raise ValueError(f"unknown payload kind {kind!r}")
    return batch_result_from_dict(payload)


_SCHEMA = """\
CREATE TABLE IF NOT EXISTS results (
    digest TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    bytes INTEGER NOT NULL,
    writer TEXT,
    accessed REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS results_accessed ON results (accessed);
CREATE INDEX IF NOT EXISTS results_writer ON results (writer);
CREATE TABLE IF NOT EXISTS claims (
    digest TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    expires REAL NOT NULL
);
"""


#: Counters for the cross-daemon claim protocol: ``won`` claims this
#: store instance won (it computed, others waited); ``lost`` claims lost
#: to a concurrent holder (this caller waited instead); ``expired`` stale
#: claims taken over after their TTL expired (crashed winner);
#: ``coalesced`` waits that ended with the winner's release — the
#: cross-daemon coalescing events: each one is a computation that did not
#: happen; ``timeouts`` waits that hit their deadline and computed anyway
#: (best effort).
CLAIM_COUNTERS = ("won", "lost", "expired", "coalesced", "timeouts")


class SQLiteResultStore:
    """A shared, bounded result store in one WAL-mode SQLite file.

    ``max_entries`` / ``max_bytes`` bound the table with access-stamp
    LRU eviction (``None`` = unbounded); :attr:`CLAIM_TTL` is the
    lifetime of a claim marker (a crashed claimant blocks duplicates
    for at most this long) and the longest a loser waits on one;
    ``timeout`` is SQLite's busy
    timeout — how long a writer waits on a locked database before
    degrading to a skipped write.

    The store is safe for concurrent use from multiple threads (one
    internal lock serializes this instance's statements) and multiple
    processes (WAL + immediate transactions); a forked child reopens
    its own connection transparently.
    """

    CLAIM_TTL = 30.0

    def __init__(
        self,
        path: str | Path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        *,
        timeout: float = 30.0,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.timeout = float(timeout)
        self.stats = Counters(*CACHE_COUNTERS)
        self.claim_stats = Counters(*CLAIM_COUNTERS)
        # The engine stamps the writing database version's digest here
        # before each execution so retire() can target superseded
        # versions later.
        self.writer_version: str | None = None
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        # Fail fast on an unusable path (read-only dir, not a database):
        # the constructor is the one place a broken store should raise.
        with self._lock:
            self._connection()

    # ------------------------------------------------------------------
    # Connection management (callers hold self._lock)
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            # A connection inherited across fork() must not be reused —
            # build a fresh one per process, lazily.
            conn = sqlite3.connect(
                str(self.path),
                timeout=self.timeout,
                check_same_thread=False,
                isolation_level=None,
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            self._conn = conn
            self._pid = pid
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = None
            self._pid = None

    def __len__(self) -> int:
        with self._lock:
            try:
                row = self._connection().execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()
            except sqlite3.Error:
                return 0
        return int(row[0])

    # ------------------------------------------------------------------
    # get / put (the tiered store's durable half)
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> "StoredValue | None":
        if _tracing.ACTIVE is None:
            return self._get(key)
        with _tracing.ACTIVE.span("store.get", tier="shared") as span:
            value = self._get(key)
            span.set("hit", value is not None)
            return value

    def _get(self, key: tuple) -> "StoredValue | None":
        digest = digest_key(key)
        with self._lock:
            conn = self._connection()
            try:
                row = conn.execute(
                    "SELECT payload, accessed FROM results WHERE digest = ?",
                    (digest,),
                ).fetchone()
                if row is not None and (
                    self.max_entries is not None
                    or self.max_bytes is not None
                    or row[1] <= RETIRED_STAMP
                ):
                    # Re-earn the access stamp so LRU eviction spares
                    # entries that are still hot, and so a hit revives
                    # a retire()d row even here — another opener of the
                    # same file may be bounded.  Beyond that, unbounded
                    # stores never evict, so their hits skip the write
                    # transaction and stay read-only.
                    conn.execute(
                        "UPDATE results SET accessed = ? WHERE digest = ?",
                        (time.time(), digest),
                    )
            except sqlite3.Error:
                row = None
        if row is None:
            self.stats.misses += 1
            return None
        try:
            value = decode_stored_value(json.loads(row[0]))
        except (KeyError, TypeError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: tuple, result: "StoredValue") -> bool:
        with _tracing.maybe_span(_tracing.ACTIVE, "store.put", tier="shared"):
            return self._put(key, result)

    def _put(self, key: tuple, result: "StoredValue") -> bool:
        payload = encode_stored_value(result)
        if payload is None:
            return False
        if self.writer_version is not None:
            payload["writer"] = self.writer_version
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        digest = digest_key(key)
        now = time.time()
        with self._lock:
            conn = self._connection()
            try:
                conn.execute("BEGIN IMMEDIATE")
                conn.execute(
                    "INSERT INTO results (digest, payload, bytes, writer,"
                    " accessed) VALUES (?, ?, ?, ?, ?)"
                    " ON CONFLICT(digest) DO UPDATE SET"
                    " payload = excluded.payload, bytes = excluded.bytes,"
                    " writer = excluded.writer, accessed = excluded.accessed",
                    (digest, text, len(text), payload.get("writer"), now),
                )
                self._enforce_limits(conn)
                conn.execute("COMMIT")
            except sqlite3.Error:
                self._rollback(conn)
                return False
        return True

    @staticmethod
    def _rollback(conn: sqlite3.Connection) -> None:
        try:
            conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    def _enforce_limits(self, conn: sqlite3.Connection) -> None:
        """Evict stalest rows until both caps hold (same-transaction).

        Large caps drain to a 7/8 low-water mark so the sweep amortizes,
        small caps are exact, and only a dimension that was actually
        crossed drains.
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        count, total = conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(bytes), 0) FROM results"
        ).fetchone()
        target_entries = self.max_entries
        if target_entries is not None and target_entries >= 16:
            target_entries -= target_entries // 8
        target_bytes = self.max_bytes
        if target_bytes is not None and target_bytes >= 4096:
            target_bytes -= target_bytes // 8
        entries_over = self.max_entries is not None and count > self.max_entries
        bytes_over = self.max_bytes is not None and total > self.max_bytes
        if not (entries_over or bytes_over):
            return
        for digest, size in conn.execute(
            "SELECT digest, bytes FROM results ORDER BY accessed, digest"
        ).fetchall():
            if not (
                (entries_over and count > target_entries)
                or (bytes_over and total > target_bytes)
            ):
                break
            conn.execute("DELETE FROM results WHERE digest = ?", (digest,))
            count -= 1
            total -= size
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Claim markers (cross-daemon request coalescing)
    # ------------------------------------------------------------------
    def claim(self, key: tuple) -> bool:
        """Try to claim ``key``; True means this caller computes.

        Insert-if-absent with a TTL, atomic under concurrent daemons: of
        N simultaneous claimants exactly one wins (an expired marker —
        a crashed winner — is taken over).  Fail-open: a SQLite error
        counts as a win, so a broken shared file never blocks serving.
        """
        digest = digest_key(key)
        now = time.time()
        expires = now + self.CLAIM_TTL
        with self._lock:
            conn = self._connection()
            try:
                conn.execute("BEGIN IMMEDIATE")
                row = conn.execute(
                    "SELECT expires FROM claims WHERE digest = ?", (digest,)
                ).fetchone()
                if row is None or float(row[0]) <= now:
                    if row is not None:
                        self.claim_stats.expired += 1
                    # ``owner`` is always empty; the column stays so the
                    # file format is unchanged.
                    conn.execute(
                        "INSERT INTO claims (digest, owner, expires)"
                        " VALUES (?, '', ?)"
                        " ON CONFLICT(digest) DO UPDATE SET"
                        " expires = excluded.expires",
                        (digest, expires),
                    )
                    won = True
                else:
                    won = False
                conn.execute("COMMIT")
            except sqlite3.Error:
                self._rollback(conn)
                won = True
        if won:
            self.claim_stats.won += 1
        else:
            self.claim_stats.lost += 1
        return won

    def release(self, key: tuple) -> None:
        """Drop the claim marker for ``key`` (the winner's epilogue)."""
        digest = digest_key(key)
        with self._lock:
            conn = self._connection()
            try:
                conn.execute("DELETE FROM claims WHERE digest = ?", (digest,))
            except sqlite3.Error:
                pass

    def _claim_active(self, key: tuple) -> bool:
        digest = digest_key(key)
        with self._lock:
            conn = self._connection()
            try:
                row = conn.execute(
                    "SELECT expires FROM claims WHERE digest = ?", (digest,)
                ).fetchone()
            except sqlite3.Error:
                return False
        return row is not None and float(row[0]) > time.time()

    def await_claim(self, key: tuple) -> bool:
        """Block until ``key``'s claim clears; True when it did.

        The claim loser's path: poll (cheap indexed point reads) until
        the winner releases — at which point the winner's result row is
        already committed, so the caller's next store lookup is warm —
        or the marker expires.  The wait lasts at most :attr:`CLAIM_TTL`;
        False means it hit that deadline and the caller should just
        compute.
        """
        deadline = time.monotonic() + self.CLAIM_TTL
        wait = 0.005
        while self._claim_active(key):
            if time.monotonic() >= deadline:
                self.claim_stats.timeouts += 1
                return False
            time.sleep(wait)
            # Back off gently to bound polling pressure on the shared
            # file while long computations run.
            wait = min(wait * 1.5, 0.1)
        self.claim_stats.coalesced += 1
        return True

    # ------------------------------------------------------------------
    # Version retirement + maintenance
    # ------------------------------------------------------------------
    def retire(self, version: str) -> int:
        """Back-date every row written by ``version``; returns the count.

        One UPDATE: retired rows drop to the epoch-adjacent
        :data:`RETIRED_STAMP` so bounded eviction drains them first —
        and because the file is shared, one daemon's ``db_update``
        retires the whole fleet's entries.
        A later hit re-earns a live stamp.
        """
        with self._lock:
            conn = self._connection()
            try:
                cursor = conn.execute(
                    "UPDATE results SET accessed = ? WHERE writer = ?",
                    (RETIRED_STAMP, version),
                )
                return cursor.rowcount
            except sqlite3.Error:
                return 0

    def clear(self) -> None:
        """Drop every result row and claim marker (stats are kept)."""
        with self._lock:
            conn = self._connection()
            try:
                conn.execute("DELETE FROM results")
                conn.execute("DELETE FROM claims")
            except sqlite3.Error:
                pass


__all__ = [
    "CLAIM_COUNTERS",
    "FORMAT_VERSION",
    "RETIRED_STAMP",
    "SQLiteResultStore",
    "decode_stored_value",
    "encode_stored_value",
]
