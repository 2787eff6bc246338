"""The client library: warm attribution from any process.

:class:`AttributionClient` is a context manager speaking the framed
protocol of :mod:`repro.server.protocol` to a running
:class:`~repro.server.daemon.AttributionDaemon`:

* **connection retries** — a daemon that is still booting (the socket
  file not yet bound, the TCP port still closed) is retried with
  jittered exponential backoff (:mod:`repro.server.backoff`) before the
  client gives up, so "start the daemon, then the client" needs no
  sleep choreography and a herd of clients never retries in lockstep;
* **one automatic reconnect** per call — a connection that died between
  requests (daemon restarted, idle timeout on a proxy) is re-dialed and
  the request resent; ``shutdown`` is never retried, everything else the
  daemon serves idempotently (warm results are exact);
* **pipelining** — :meth:`submit` (and the typed ``submit_batch`` /
  ``submit_answers`` / ``submit_refine``) writes a request frame and
  returns a :class:`PendingRequest` immediately; many requests ride one
  connection concurrently, and responses pair by the protocol's request
  ``id`` regardless of arrival order (the asyncio daemon answers cheap
  warm hits before an earlier cold compute finishes).  Pipelined
  requests are **not** auto-retried: the caller sees the transport
  failure and decides;
* **exact round-tripping** — values come back as the same ``Fraction``
  objects an in-process engine would produce (numerator/denominator
  string pairs on the wire, never floats), and daemon-side exceptions
  re-raise as their local types
  (:class:`~repro.core.errors.IntractableQueryError`, parse errors, ...);
* **content-addressed versions** — a handle names a database version
  by content (:func:`~repro.server.registry.database_handle`).  The
  client keeps a bounded LRU, keyed by handle, of the versions it
  uploaded (a copy taken at upload) or derived (``update_database``
  applies the delta to the base it holds).  :meth:`batch`/:meth:`answers`
  accept a :class:`~repro.core.database.Database` directly and upload
  each version once; a database edited after upload is a new version;
* **sparse results** — ``batch``, ``refine`` and ``answers`` requests on
  a held handle carry ``sparse: true`` from the first: the daemon sends
  only the nonzero rows, and the client reads every other fact as zero
  against the held version's positions
  (:func:`~repro.engine.core.version_positions`).  A handle string the
  client did not create is sent without the flag and decoded densely
  over its own rows.  Either way results decode into the engine's
  read-only :class:`~repro.engine.results.AttributionView`, equal
  ``Fraction`` for ``Fraction`` and in the same key order.  A sparse
  result that does not fit the held version raises
  :class:`~repro.server.protocol.ProtocolError`.

Usage::

    from repro.server import AttributionClient

    with AttributionClient("/run/repro.sock") as client:
        result = client.batch(database, "q() :- Stud(x), not TA(x), Reg(x, y)")
        result.shapley[some_fact]        # exact Fraction, bit-identical
        client.last_response["coalesced"]  # wire-level provenance
"""

from __future__ import annotations

import itertools
import os
import socket
import time
from collections import OrderedDict
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping

from repro.core.database import Database
from repro.core.facts import Constant, Fact
from repro.core.query import ConjunctiveQuery
from repro.engine.core import version_positions
from repro.engine.delta import DatabaseDelta, apply_delta, delta_to_dict
from repro.engine.results import BatchResult, fact_positions, publish_result
from repro.server.backoff import BackoffPolicy
from repro.engine.policy import MethodPolicy, resolve_policy
from repro.io import (
    batch_result_from_dict,
    database_to_dict,
    fraction_from_pair,
    query_to_text,
)
from repro.server.protocol import (
    ProtocolError,
    UnknownHandleError,
    error_from_payload,
    format_address,
    parse_address,
    read_frame,
    request,
    write_frame,
)
from repro.server.registry import database_handle


#: Distinct facts, and distinct value pairs, one client keeps interned;
#: a full table is emptied and refills from the next responses.
INTERN_CAPACITY = 65_536


class _RowInterner:
    """Decodes attribution rows, reusing decoded facts and values.

    One :class:`Fact` per distinct fact and one :class:`Fraction` per
    distinct ``(numerator, denominator)`` pair, both immutable, so a warm
    client builds neither per row.  Fact keys carry each argument's type,
    since ``1``, ``True`` and ``1.0`` are equal but decode to distinct
    facts; facts with a float argument are never interned (``0.0 ==
    -0.0``).
    """

    __slots__ = ("_facts", "_values")

    def __init__(self) -> None:
        self._facts: dict[tuple, Fact] = {}
        self._values: dict[tuple[str, str], Fraction] = {}

    def rows(self, rows: list[list[Any]]) -> dict[Fact, Fraction]:
        """:func:`repro.io.attribution_from_rows`, interned."""
        facts, values = self._facts, self._values
        decoded: dict[Fact, Fraction] = {}
        for relation, args, numerator, denominator in rows:
            args = tuple(args)
            types = tuple(map(type, args))
            key = (relation, args, types)
            item = facts.get(key)
            if item is None:
                item = Fact(relation, args)
                if float not in types:
                    if len(facts) >= INTERN_CAPACITY:
                        facts.clear()
                    facts[key] = item
            pair = (numerator, denominator)
            value = values.get(pair)
            if value is None:
                value = fraction_from_pair(pair)
                if len(values) >= INTERN_CAPACITY:
                    values.clear()
                values[pair] = value
            decoded[item] = value
        return decoded

    def result(self, payload: Mapping[str, Any]):
        """:func:`repro.io.batch_result_from_dict`, interned."""
        return batch_result_from_dict(payload, self.rows)


class PendingRequest:
    """A pipelined request's claim ticket; see :meth:`AttributionClient.submit`.

    ``result()`` blocks until *this* request's response arrives (reading
    and buffering any other pipelined responses that land first), then
    returns the decoded result — or raises the daemon's exception,
    rebuilt locally exactly as a synchronous call would.  Calling it
    again returns the cached outcome.
    """

    __slots__ = ("request_id", "op", "_client", "_decode", "_outcome")

    def __init__(
        self,
        client: "AttributionClient",
        request_id: int,
        op: str,
        decode: Any = None,
    ) -> None:
        self.request_id = request_id
        self.op = op
        self._client = client
        self._decode = decode
        self._outcome: tuple[bool, Any] | None = None

    def done(self) -> bool:
        """Has a response already been claimed for this request?"""
        return self._outcome is not None

    def result(self) -> Any:
        if self._outcome is None:
            try:
                payload = self._client._receive(self.request_id)
            except BaseException as error:
                self._outcome = (False, error)
                raise
            value = self._decode(payload) if self._decode is not None else payload
            self._outcome = (True, value)
        ok, value = self._outcome
        if not ok:
            raise value
        return value


class AttributionClient:
    """A connection to an attribution daemon; see the module docstring.

    ``connect_retries`` bounds how many dials the client attempts while
    a daemon is still starting, with jittered exponential delays growing
    from ``retry_interval`` (capped at half a second) between attempts;
    ``timeout`` bounds each socket operation once connected (``None`` waits as long as the
    computation needs — the right choice when requests may legitimately
    run for minutes, e.g. cold brute-force batches).
    """

    #: Database versions held per client before the least recently used
    #: is forgotten (forgetting costs a re-upload of a database object,
    #: or dense reads of a handle string) — bounds client memory the way
    #: the daemon's registry bounds its own.
    MAX_CACHED_HANDLES = 32

    def __init__(
        self,
        address: str,
        timeout: float | None = 30.0,
        connect_retries: int = 40,
        retry_interval: float = 0.05,
        auth_token: str | None = None,
    ) -> None:
        self.kind, self.location = parse_address(address)
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.retry_interval = retry_interval
        # Shared with the fleet router: exponential growth from
        # ``retry_interval`` with equal jitter, so many clients retrying
        # one booting daemon spread out instead of stampeding it.
        self._backoff = BackoffPolicy(base=retry_interval, cap=0.5)
        # A token-guarded TCP daemon requires every frame to carry the
        # token; REPRO_AUTH_TOKEN is the same env var the daemon reads,
        # so one exported variable configures both ends.
        self.auth_token = (
            auth_token
            if auth_token is not None
            else os.environ.get("REPRO_AUTH_TOKEN") or None
        )
        self.last_response: dict[str, Any] | None = None
        self._socket: socket.socket | None = None
        self._stream = None
        self._ids = itertools.count(1)
        # Pipelining state: ids written but not yet claimed, and
        # responses read while waiting for a different id.
        self._outstanding: set[int] = set()
        self._responses: dict[int, dict[str, Any]] = {}
        # handle -> a private copy of the version this client uploaded
        # or derived under it, LRU-bounded.  Copies are never edited, so
        # each derives its canonical fact positions once.
        self._versions: OrderedDict[str, Database] = OrderedDict()
        self._interner = _RowInterner()

    @property
    def address(self) -> str:
        return format_address(self.kind, self.location)

    @property
    def last_trace(self) -> dict[str, Any] | None:
        """The trace document of the last response, when it was traced.

        Populated by passing ``trace=True`` to :meth:`batch`,
        :meth:`answers`, :meth:`aggregate`, or :meth:`refine`; feed it to
        :func:`repro.obs.export_chrome` or :func:`repro.obs.render_trace`.
        """
        if self.last_response is None:
            return None
        trace = self.last_response.get("trace")
        return trace if isinstance(trace, dict) else None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def __enter__(self) -> "AttributionClient":
        self.connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _dial(self) -> socket.socket:
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX)
            target: Any = self.location
        else:
            sock = socket.socket(socket.AF_INET)
            target = tuple(self.location)
        sock.settimeout(self.timeout)
        try:
            sock.connect(target)
        except OSError:
            sock.close()
            raise
        return sock

    def connect(self) -> None:
        """Dial the daemon, retrying while it is still starting up.

        Retries follow the shared :class:`BackoffPolicy` — jittered
        exponential delays starting at ``retry_interval`` — rather than
        a fixed sleep, so a fleet of clients waiting on one daemon
        desynchronizes instead of hammering it in lockstep.
        """
        if self._socket is not None:
            return
        last_error: OSError | None = None
        for attempt in range(max(1, self.connect_retries)):
            try:
                self._socket = self._dial()
                self._stream = self._socket.makefile("rwb")
                return
            except OSError as error:
                # Covers the daemon-still-booting cases: the socket file
                # not yet bound (FileNotFoundError) and the port not yet
                # listening (ConnectionRefusedError).
                last_error = error
                if attempt + 1 < max(1, self.connect_retries):
                    time.sleep(self._backoff.delay(attempt))
        raise ConnectionError(
            f"no attribution daemon reachable at {self.address}"
            f" after {max(1, self.connect_retries)} attempts: {last_error}"
        )

    def close(self) -> None:
        self._versions.clear()
        self._outstanding.clear()
        self._responses.clear()
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None

    def _reset(self) -> None:
        # Drops the held versions too: after a transport failure the
        # daemon may have restarted, so cheap re-uploads beat stale
        # handles (the server deduplicates by content anyway).
        self.close()

    # ------------------------------------------------------------------
    # The request/response round trip
    # ------------------------------------------------------------------
    def call(self, op: str, **params: Any) -> dict[str, Any]:
        """One request/response round trip; returns the ``result`` payload.

        Raises the daemon's exception (rebuilt locally) on an error
        frame.  A connection that proves dead is re-dialed once and the
        request resent — except for ``shutdown``, whose duplicate
        delivery is not idempotent, and except while pipelined requests
        are outstanding (a silent re-dial would strand their responses;
        the transport failure surfaces instead).
        """
        retries = 0 if op == "shutdown" or self._outstanding else 1
        attempt = 0
        while True:
            try:
                return self._call_once(op, params)
            except OSError:
                # Transport-level failure (ConnectionError is an OSError):
                # the connection is dead, not the request.  Daemon-side
                # errors arrive as structured frames and never land here.
                self._reset()
                if attempt >= retries:
                    raise
                attempt += 1

    def submit(self, op: str, decode: Any = None, **params: Any) -> PendingRequest:
        """Write one request frame and return without waiting.

        The returned :class:`PendingRequest` claims the response later
        by the protocol's request ``id`` — issue many submits back to
        back and the daemon works them concurrently over this one
        connection.  Pipelined requests are never auto-retried.
        """
        request_id = self._send(op, params)
        return PendingRequest(self, request_id, op, decode)

    def _call_once(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        return self._receive(self._send(op, params))

    def _send(self, op: str, params: dict[str, Any]) -> int:
        self.connect()
        assert self._stream is not None
        request_id = next(self._ids)
        if self.auth_token is not None:
            params = {**params, "auth": self.auth_token}
        params = {
            key: value for key, value in params.items() if value is not None
        }
        write_frame(self._stream, request(op, request_id, **params))
        self._outstanding.add(request_id)
        return request_id

    def _receive(self, request_id: int) -> dict[str, Any]:
        """The response for ``request_id``, buffering out-of-order frames.

        The asyncio daemon answers pipelined requests as they finish,
        not in arrival order; responses for *other* outstanding requests
        are parked until their own claim arrives.
        """
        while request_id not in self._responses:
            if self._stream is None:
                self._outstanding.discard(request_id)
                raise ConnectionError(
                    f"the connection to {self.address} was closed with"
                    f" request {request_id} still in flight"
                )
            try:
                response = read_frame(self._stream)
            except ProtocolError as error:
                # A stream that dies or degenerates mid-frame is a
                # transport failure; surface it as such so `call` may
                # retry it.
                raise ConnectionError(
                    f"broken response stream from {self.address}: {error}"
                ) from error
            except OSError:
                self._outstanding.discard(request_id)
                raise
            if response is None:
                self._outstanding.discard(request_id)
                raise ConnectionError(
                    f"the daemon at {self.address} closed the connection"
                    " before responding"
                )
            response_id = response.get("id")
            if response_id in self._outstanding:
                self._responses[response_id] = response
            else:
                raise ProtocolError(
                    f"response id {response_id!r} matches no outstanding"
                    f" request (waiting on {request_id!r})"
                )
        response = self._responses.pop(request_id)
        self._outstanding.discard(request_id)
        if not response.get("ok"):
            error = response.get("error")
            raise error_from_payload(error if isinstance(error, dict) else {})
        result = response.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("ok response carries no result object")
        self.last_response = result
        return result

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.call("ping")

    def stats(self) -> dict[str, Any]:
        """The daemon's per-layer counters (engine, registry, coalescer)."""
        return self.call("stats")

    def metrics(self) -> dict[str, Any]:
        """Live serving metrics: per-op latency histograms, admission
        counters, queue/in-flight gauges, coalescing ratios — see
        :mod:`repro.server.metrics` for the document layout."""
        return self.call("metrics")

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to stop; the connection is closed afterwards."""
        result = self.call("shutdown")
        self.close()
        return result

    def load_database(self, database: Database) -> str:
        """Upload ``database``'s current version, once, and return its handle.

        The handle is the version's content address, so a version this
        client holds is not uploaded again, and an edit after an upload
        makes a new handle.  The client keeps a copy of what it uploaded
        and reads sparse results against it.
        """
        handle = database_handle(database)
        if handle in self._versions:
            self._versions.move_to_end(handle)
            return handle
        result = self.call("db_load", database=database_to_dict(database))
        served = str(result["handle"])
        if served == handle:
            self._hold(handle, database.copy())
        return served

    def _hold(self, handle: str, version: Database) -> None:
        self._versions[handle] = version
        self._versions.move_to_end(handle)
        while len(self._versions) > self.MAX_CACHED_HANDLES:
            self._versions.popitem(last=False)

    def update_database(
        self,
        database: Database | str,
        adds: Iterable[Fact] = (),
        removes: Iterable[Fact] = (),
        exogenous_adds: Iterable[Fact] = (),
        delta: DatabaseDelta | None = None,
    ) -> str:
        """Apply a fact-level delta server-side; returns the successor handle.

        ``database`` is a handle string or a database object (uploaded at
        most once, with the usual transparent re-upload on a stale cached
        handle).  Either pass a prebuilt
        :class:`~repro.engine.delta.DatabaseDelta` via ``delta`` or spell
        the edit out: ``adds`` become endogenous facts, ``exogenous_adds``
        exogenous ones, ``removes`` are deleted outright (re-adding an
        existing fact on the other side flips it).  The daemon keeps the
        base version queryable in a bounded version chain; the returned
        handle addresses the successor.  When this client holds the base,
        it applies the delta to its copy too, so requests on the
        successor are sparse from the first.
        """
        if delta is None:
            delta = DatabaseDelta(
                added_endogenous=frozenset(adds),
                added_exogenous=frozenset(exogenous_adds),
                removed=frozenset(removes),
            )
        result = self._with_handle(
            database,
            lambda handle: self.call(
                "db_update", db=handle, delta=delta_to_dict(delta)
            ),
        )
        successor = str(result["handle"])
        base = self._versions.get(str(result["base"]))
        if base is not None and successor not in self._versions:
            self._hold(successor, apply_delta(base, delta))
        return successor

    def _handle_for(self, database: Database | str) -> str:
        if isinstance(database, str):
            return database
        return self.load_database(database)

    def _with_handle(self, database: Database | str, call: Any) -> dict[str, Any]:
        """Run ``call(handle)``; recover once from a stale cached handle.

        A daemon restart or registry eviction invalidates handles the
        client cached; when the caller gave us the database itself we
        can transparently re-upload and retry.  An explicit handle
        string has nothing to re-upload, so the error propagates.
        """
        try:
            return call(self._handle_for(database))
        except UnknownHandleError:
            if isinstance(database, str):
                raise
            self._versions.pop(database_handle(database), None)
            return call(self._handle_for(database))

    @staticmethod
    def _query_text(query: str | ConjunctiveQuery) -> str:
        return query if isinstance(query, str) else query_to_text(query)

    @staticmethod
    def _exogenous_param(exogenous: Iterable[str] | None) -> list[str] | None:
        return None if exogenous is None else sorted(exogenous)

    def _positions(self, handle: str) -> dict[Fact, int] | None:
        """The fact positions of the version held under ``handle``, if any."""
        version = self._versions.get(handle)
        if version is None:
            return None
        self._versions.move_to_end(handle)
        return version.derived(version_positions)

    def _call_results(
        self, op: str, handle: str, decode: Callable[..., Any], **params: Any
    ) -> Any:
        """Send ``op`` on ``handle`` and decode its results (see
        :meth:`_submit_results`)."""
        positions = self._positions(handle)
        result = self.call(
            op, db=handle, sparse=True if positions is not None else None, **params
        )
        return decode(handle, result, positions)

    def _submit_results(
        self, op: str, handle: str, decode: Callable[..., Any], **params: Any
    ) -> PendingRequest:
        """Pipeline ``op`` on ``handle``, sparse when the client holds it.

        The positions are taken when the request is sent and the ticket
        decodes against them: tickets claimed in between may evict the
        handle from the table, but never change what this request asked
        the daemon for.
        """
        positions = self._positions(handle)
        return self.submit(
            op,
            decode=lambda result: decode(handle, result, positions),
            db=handle,
            sparse=True if positions is not None else None,
            **params,
        )

    def _decode_result(
        self,
        handle: str,
        payload: Mapping[str, Any],
        positions: dict[Fact, int] | None,
    ) -> BatchResult:
        """One result document of ``handle``'s version, as views.

        A sparse document is read against ``positions``, those of the
        version the request was sent for, after checking that they fit
        it; a dense one covers every endogenous fact in canonical order
        and is read over its own rows.
        """
        core = self._interner.result(payload)
        if not payload.get("sparse"):
            return publish_result(core, fact_positions(core.shapley), core.from_cache)
        if positions is None:
            raise ProtocolError(
                f"sparse result for handle {handle!r}, a version this client"
                " does not hold"
            )
        if core.player_count != len(positions) or not all(
            item in positions for mapping in (core.shapley, core.banzhaf)
            for item in mapping
        ):
            raise ProtocolError(
                f"sparse result of {core.player_count} players does not"
                f" fit the {len(positions)} facts held for handle"
                f" {handle!r}; refusing to read it as zeros"
            )
        return publish_result(core, positions, core.from_cache)

    def _decode_batch(
        self, handle: str, result: dict[str, Any], positions: dict[Fact, int] | None
    ) -> BatchResult:
        return self._decode_result(handle, result["result"], positions)

    def batch(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        exogenous: Iterable[str] | None = None,
        *,
        policy: MethodPolicy | str | None = None,
        trace: bool = False,
    ):
        """All-facts attribution of one Boolean query, served warm.

        ``policy`` selects the method/accuracy class exactly as on the
        in-process engine (a :class:`~repro.engine.policy.MethodPolicy`
        or a bare method name).  Returns a
        :class:`~repro.engine.results.BatchResult` bit-identical to what
        an in-process engine would produce — including the ``estimate``
        accuracy block on sampled answers; the raw wire payload
        (per-request stats delta, ``coalesced`` flag) stays available on
        :attr:`last_response`.  ``trace=True`` asks the daemon to record
        the request end to end; the document lands on :attr:`last_trace`.
        """
        method_policy = resolve_policy(policy)
        return self._with_handle(
            database,
            lambda handle: self._call_results(
                "batch",
                handle,
                self._decode_batch,
                query=self._query_text(query),
                exogenous=self._exogenous_param(exogenous),
                trace=True if trace else None,
                **method_policy.to_params(),
            ),
        )

    def submit_batch(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        exogenous: Iterable[str] | None = None,
        *,
        policy: MethodPolicy | str | None = None,
        priority: int | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRequest:
        """Pipelined :meth:`batch`: returns a :class:`PendingRequest`
        whose ``result()`` yields the decoded
        :class:`~repro.engine.results.BatchResult`.

        ``priority`` (higher first) and ``deadline_ms`` (failed unrun if
        still queued after this many milliseconds) order and expire the
        request in the daemon's one queue in front of its engine.  A
        :class:`Database` argument is uploaded synchronously first (the
        upload is not pipelined); no transparent stale-handle retry
        happens on this path.
        """
        method_policy = resolve_policy(policy)
        return self._submit_results(
            "batch",
            self._handle_for(database),
            self._decode_batch,
            query=self._query_text(query),
            exogenous=self._exogenous_param(exogenous),
            priority=priority,
            deadline_ms=deadline_ms,
            **method_policy.to_params(),
        )

    def refine(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        exogenous: Iterable[str] | None = None,
        *,
        epsilon: float | None = None,
        delta: float | None = None,
        trace: bool = False,
    ):
        """Tighten a sampled request's accuracy bound, resuming its stream.

        With no explicit ``epsilon``, each call roughly halves the bound
        the stored state reaches at ``delta`` (default 0.05, not the
        stored request's δ); completed rounds are never recomputed
        (``last_response["stats"]`` shows ``sampler.restarts == 0``).
        Returns the refined :class:`~repro.engine.results.BatchResult`.
        """
        return self._with_handle(
            database,
            lambda handle: self._call_results(
                "refine",
                handle,
                self._decode_batch,
                query=self._query_text(query),
                exogenous=self._exogenous_param(exogenous),
                epsilon=epsilon,
                delta=delta,
                trace=True if trace else None,
            ),
        )

    def submit_refine(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        exogenous: Iterable[str] | None = None,
        *,
        epsilon: float | None = None,
        delta: float | None = None,
        priority: int | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRequest:
        """Pipelined :meth:`refine`; same decoding and admission fields
        as :meth:`submit_batch`."""
        return self._submit_results(
            "refine",
            self._handle_for(database),
            self._decode_batch,
            query=self._query_text(query),
            exogenous=self._exogenous_param(exogenous),
            epsilon=epsilon,
            delta=delta,
            priority=priority,
            deadline_ms=deadline_ms,
        )

    def answers(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        answers: Iterable[tuple[Constant, ...]] | None = None,
        exogenous: Iterable[str] | None = None,
        *,
        policy: MethodPolicy | str | None = None,
        trace: bool = False,
    ):
        """Per-answer attribution of a non-Boolean query, served warm.

        Returns an :class:`~repro.engine.results.AnswerBatchResult`
        (aggregate via its :meth:`aggregate`, exactly as in-process).
        """
        method_policy = resolve_policy(policy)
        return self._with_handle(
            database,
            lambda handle: self._call_results(
                "answers",
                handle,
                self._decode_answers,
                query=self._query_text(query),
                answers=None if answers is None else [list(a) for a in answers],
                exogenous=self._exogenous_param(exogenous),
                trace=True if trace else None,
                **method_policy.to_params(),
            ),
        )

    def _decode_answers(
        self, handle: str, result: dict[str, Any], positions: dict[Fact, int] | None
    ):
        from repro.engine.results import AnswerBatchResult
        from repro.obs.counters import Counters

        per_answer = {
            tuple(entry["answer"]): self._decode_result(
                handle, entry["result"], positions
            )
            for entry in result["answers"]
        }
        pool = result.get("pool", {})
        return AnswerBatchResult(
            per_answer,
            Counters(
                hits=int(pool.get("hits", 0)),
                misses=int(pool.get("misses", 0)),
                evictions=0,
            ),
        )

    def submit_answers(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        answers: Iterable[tuple[Constant, ...]] | None = None,
        exogenous: Iterable[str] | None = None,
        *,
        policy: MethodPolicy | str | None = None,
        priority: int | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRequest:
        """Pipelined :meth:`answers`; decodes to an
        :class:`~repro.engine.results.AnswerBatchResult`.  The admission
        fields act as in :meth:`submit_batch`."""
        method_policy = resolve_policy(policy)
        return self._submit_results(
            "answers",
            self._handle_for(database),
            self._decode_answers,
            query=self._query_text(query),
            answers=None if answers is None else [list(a) for a in answers],
            exogenous=self._exogenous_param(exogenous),
            priority=priority,
            deadline_ms=deadline_ms,
            **method_policy.to_params(),
        )

    def aggregate(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        aggregate: str = "count",
        value_index: int | None = None,
        exogenous: Iterable[str] | None = None,
        *,
        trace: bool = False,
    ) -> Mapping[Fact, Fraction]:
        """Aggregate attribution over all candidate answers (count/sum)."""
        result = self._with_handle(
            database,
            lambda handle: self.call(
                "aggregate",
                db=handle,
                query=self._query_text(query),
                aggregate=aggregate,
                value_index=value_index,
                exogenous=self._exogenous_param(exogenous),
                trace=True if trace else None,
            ),
        )
        return self._interner.rows(result["values"])


__all__ = ["AttributionClient", "PendingRequest"]
