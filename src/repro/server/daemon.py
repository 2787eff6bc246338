"""The attribution daemon: one warm engine behind an asyncio serving loop.

Every CLI invocation pays Python startup, cold caches, and a database
re-parse before the first count vector exists.  The daemon pays those
costs **once**: it owns a single long-lived
:class:`~repro.engine.core.BatchAttributionEngine` (tiered in-memory +
optional durable SQLite store, serial or sharded executor) and serves
attribution requests over a Unix-domain or TCP socket using the framed
protocol of :mod:`repro.server.protocol`.  A request that the warm store
already holds is answered without executing a single plan node; a request
identical to one *currently running* joins it through the in-flight
coalescer instead of recomputing.

Concurrency model: one **event loop** multiplexes every connection
(requests on one connection pipeline freely — responses pair by ``id``,
not arrival order), while actual engine work runs on a small pool of
worker threads.  The engine's caches are plain ``OrderedDict`` LRUs —
not thread-safe — so engine *entry* stays serialized by a single lock;
parallelism comes from the engine's own sharded executor (``--jobs``),
from the warm stores (hits barely hold the lock), and from the coalescer
(duplicate requests never queue for the lock at all).

In front of the workers sits **admission control**
(:class:`~repro.server.admission.AdmissionController`): at most
``max_inflight`` compute requests execute or queue fairly (priority
classes, round-robin between clients inside a class), per-client token
buckets (``per_client_rps``) throttle greedy clients, and overload is
answered with typed, **retryable** error frames —
:class:`~repro.server.protocol.OverloadedError` when shed,
:class:`~repro.server.protocol.DeadlineExceededError` when a request's
``deadline_ms`` expired while queued — never with an unbounded queue or
a silent hang.  Cheap introspection ops (``ping``, ``stats``,
``metrics``) bypass admission entirely, so health checks work *because*
the daemon is loaded, not until it is.

Failure containment: a malformed frame ends only its own connection
(best-effort error frame first); a frame that starts arriving but does
not finish within ``frame_timeout`` (a slow-loris peer) closes only that
connection; an exception inside a request — plan-time
:class:`~repro.core.errors.IntractableQueryError`, parse errors, unknown
handles — becomes a structured error frame and the connection lives on;
a client that disconnects mid-request costs nothing but the computed
result (admitted work finishes and lands warm in the store; work still
queued is cancelled and its queue slot reclaimed).

Observability: the ``metrics`` op returns per-op latency histograms (the
fixed bucket dialect of :mod:`repro.io`), queue/in-flight gauges with
peaks, admission counters (admitted / shed / expired / reaped), and
coalescing ratios — the numbers the storm harness reconciles against its
client-side request log.  Lifecycle events are also emitted as
structured JSON lines on the ``repro.server`` logger.

Lifecycle: ``shutdown`` (the protocol op) and SIGTERM (installed by
``python -m repro serve``) both **drain**: the listener closes, in-flight
requests get up to ``drain_timeout`` seconds to finish, new compute
requests are refused with a retryable frame, and only then does the loop
exit; :meth:`AttributionDaemon.close` releases the socket and unlinks
the Unix-socket path.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import json
import logging
import os
import socket
import struct
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable

from repro.core.database import Database
from repro.core.parser import parse_query
from repro.engine.core import BatchAttributionEngine
from repro.engine.delta import delta_from_dict
from repro.engine.fingerprint import fingerprint_database
from repro.engine.policy import MethodPolicy
from repro.io import RowTable, batch_result_to_dict, database_from_dict, row_table
from repro.server import protocol as protocol_module
from repro.obs import tracing as _tracing
from repro.obs.export import top_spans
from repro.server.admission import AdmissionController
from repro.server.metrics import DaemonMetrics, SlowTraceBuffer
from repro.server.protocol import (
    OPERATIONS,
    PROTOCOL_VERSION,
    AuthenticationError,
    OverloadedError,
    ProtocolError,
    encode_frame,
    decode_frame_body,
    error_response,
    format_address,
    ok_response,
    parse_address,
    validate_request,
)
from repro.server.registry import DatabaseRegistry, InFlightCoalescer

_HEADER = struct.Struct(">I")
_logger = logging.getLogger("repro.server")

#: Operations answered inline on the event loop — pure dictionary reads,
#: never shed, never queued: health checks must keep working *because*
#: the daemon is overloaded, not until it is.
INLINE_OPS = frozenset({"ping", "stats", "metrics"})

#: Worker threads for engine calls, request preparation and the side
#: operations; engine entry itself is serialized by one lock.
ENGINE_WORKERS = 4

#: Operations that run on a worker thread (they parse databases or touch
#: the filesystem) but bypass admission: registry state management must
#: not compete with compute for queue slots.
SIDE_OPS = frozenset({"db_load", "db_update"})


def _version_rows(database: Database) -> RowTable | None:
    """The wire row table of a database version, in the engine's order.

    Read from the endogenous half of
    :func:`~repro.engine.fingerprint.fingerprint_database` — the order
    the engine's zero template, and so every result mapping, iterates —
    and derived once per version (``database.derived(_version_rows)``).
    """
    return row_table(fingerprint_database(database)[0])


def _counters_delta(
    before: dict[str, int], after: dict[str, int]
) -> dict[str, int]:
    """Per-request accounting: what this request added to each counter."""
    return {key: after[key] - before.get(key, 0) for key in after}


class AttributionDaemon:
    """A warm :class:`BatchAttributionEngine` served over a socket.

    ``address`` is an address spec (Unix-socket path, ``HOST:PORT``, or
    an explicit ``unix:``/``tcp:`` prefix — see
    :func:`repro.server.protocol.parse_address`).  The daemon binds
    immediately (an ephemeral TCP port resolves at construction); call
    :meth:`serve` (blocking) or run :meth:`serve_forever` in a thread,
    then :meth:`shutdown` + :meth:`close` from anywhere.  ``engine`` and
    ``registry`` default to a fresh engine and a 64-database
    :class:`DatabaseRegistry`.

    Admission knobs: ``max_inflight`` bounds concurrently executing or
    queued compute requests (the queue itself is bounded at
    ``max_queue``, default ``4 * max_inflight``; past it, requests shed
    with a retryable :class:`OverloadedError`); ``per_client_rps``
    token-buckets each client connection; ``drain_timeout`` is how long
    a graceful shutdown waits for in-flight work; ``frame_timeout``
    bounds how long a *started* frame may trickle in before the
    connection is closed (slow-loris defense — an idle connection may
    stay silent forever); ``coalesce_timeout`` bounds how long a
    coalesced follower waits on its leader before giving up with a
    typed :class:`CoalescedRequestAborted` (``None``: as long as it
    takes).
    """

    #: Per-connection pipelining depth: past this many unanswered
    #: requests the read loop stops pulling frames until one completes.
    MAX_PIPELINE = 128

    def __init__(
        self,
        address: str,
        engine: BatchAttributionEngine | None = None,
        registry: DatabaseRegistry | None = None,
        auth_token: str | None = None,
        *,
        max_inflight: int = 64,
        per_client_rps: float | None = None,
        max_queue: int | None = None,
        drain_timeout: float = 5.0,
        frame_timeout: float = 10.0,
        coalesce_timeout: float | None = None,
    ) -> None:
        self.kind, self.location = parse_address(address)
        self.engine = engine if engine is not None else BatchAttributionEngine()
        self.registry = registry if registry is not None else DatabaseRegistry()
        # Only the TCP listener authenticates: a Unix socket is already
        # guarded by filesystem permissions, and requiring a token there
        # would break every local workflow for zero security gain.
        self.auth_token = auth_token if self.kind == "tcp" else None
        self.coalescer = InFlightCoalescer()
        self.metrics = DaemonMetrics()
        # The N slowest traced requests, for post-hoc slowness diagnosis
        # (surfaced as ``slow_traces`` in the ``metrics`` op).
        self.slow_traces = SlowTraceBuffer()
        self.admission = AdmissionController(
            max_inflight,
            per_client_rps=per_client_rps,
            max_queue=max_queue,
            metrics=self.metrics,
        )
        self.drain_timeout = drain_timeout
        self.frame_timeout = frame_timeout
        self.coalesce_timeout = coalesce_timeout
        # Request keys this daemon has already completed.  Once a key's
        # result row is committed to the warm tiers, a later repeat
        # cannot duplicate work anywhere in the fleet — so it skips the
        # claim round-trip (two shared-store write transactions) on the
        # hot path.  Bounded LRU; drained on db_update, whose
        # retirement can evict the rows the skip relies on.
        self._served_keys: OrderedDict[tuple, None] = OrderedDict()
        self._served_lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.connections = 0
        self._engine_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._workers = ThreadPoolExecutor(
            max_workers=ENGINE_WORKERS, thread_name_prefix="repro-engine"
        )
        self._draining = False
        self._shutdown_requested = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_event: asyncio.Event | None = None
        self._stopped = threading.Event()
        self._stopped.set()  # nothing is serving yet
        self._writers: set[asyncio.StreamWriter] = set()
        self._connection_seq = 0
        # Bind now so the address (including an ephemeral TCP port) is
        # known before serving starts — callers read ``location`` first.
        if self.kind == "unix":
            self._reclaim_stale_socket(self.location)
            listener = socket.socket(socket.AF_UNIX)
            try:
                listener.bind(self.location)
                listener.listen(128)
            except OSError:
                listener.close()
                raise
        else:
            listener = socket.socket(socket.AF_INET)
            try:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind(tuple(self.location))
                listener.listen(128)
            except OSError:
                listener.close()
                raise
            self.location = listener.getsockname()[:2]
        listener.setblocking(False)
        self._listen_socket = listener

    @staticmethod
    def _reclaim_stale_socket(path: str) -> None:
        """Unlink a leftover socket file nothing is listening on.

        A daemon killed with SIGKILL leaves its socket file behind; the
        next daemon must be able to bind there.  A *live* listener is
        detected by connecting first, and keeps its address.
        """
        if not os.path.exists(path):
            return
        probe = socket.socket(socket.AF_UNIX)
        probe.settimeout(0.2)
        try:
            probe.connect(path)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        else:
            raise OSError(f"address already in use: a daemon is live on {path}")
        finally:
            probe.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound address in spec form (ephemeral TCP ports resolved)."""
        return format_address(self.kind, self.location)

    def serve(self) -> None:
        """Serve until :meth:`shutdown`; then release the socket."""
        try:
            self.serve_forever()
        finally:
            self.close()

    def serve_forever(self) -> None:
        """Run the serving loop in this thread until drained."""
        self._stopped.clear()
        try:
            asyncio.run(self._serve_async())
        finally:
            self._loop = None
            self._stopped.set()

    def shutdown(self) -> None:
        """Drain and stop the loop; blocks until ``serve_forever`` exits.

        Callable from any thread (including before the loop is up — the
        loop then exits as soon as it starts).
        """
        self.request_shutdown()
        self._stopped.wait()

    def request_shutdown(self) -> None:
        """Begin a graceful drain without waiting for it to finish.

        Safe from handler context, signal handlers, and other threads
        alike — this only flips a flag and pokes the loop.
        """
        self._shutdown_requested = True
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._signal_drain)
            except RuntimeError:
                pass  # the loop already exited; the flag is enough

    def _signal_drain(self) -> None:
        if self._drain_event is not None:
            self._drain_event.set()

    def close(self) -> None:
        self._workers.shutdown(wait=False)
        try:
            self._listen_socket.close()
        except OSError:
            pass
        if self.kind == "unix":
            try:
                os.unlink(self.location)
            except OSError:
                pass

    def count(self, name: str) -> None:
        """Increment a server counter; loop and helper threads race on these."""
        with self._counter_lock:
            setattr(self, name, getattr(self, name) + 1)

    def authorized(self, payload: dict[str, Any]) -> bool:
        """Does this request frame clear the listener's auth policy?

        Unix sockets and token-less daemons accept everything; a TCP
        daemon with a token requires every frame to carry a matching
        ``auth`` field, compared constant-time so the check leaks no
        prefix-length timing signal.
        """
        if self.auth_token is None:
            return True
        presented = payload.get("auth")
        if not isinstance(presented, str):
            return False
        return hmac.compare_digest(
            presented.encode("utf-8"), self.auth_token.encode("utf-8")
        )

    def _log(self, event: str, **fields: Any) -> None:
        """One structured JSON log line on the ``repro.server`` logger."""
        if _logger.isEnabledFor(logging.INFO):
            _logger.info(
                json.dumps(
                    {"event": event, **fields}, separators=(",", ":"), default=str
                )
            )

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    async def _serve_async(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._drain_event = asyncio.Event()
        if self._shutdown_requested:
            self._drain_event.set()
        if self.kind == "unix":
            server = await asyncio.start_unix_server(
                self._serve_connection, sock=self._listen_socket
            )
        else:
            server = await asyncio.start_server(
                self._serve_connection, sock=self._listen_socket
            )
        self._log("listening", address=self.address, pid=os.getpid())
        try:
            await self._drain_event.wait()
            await self._drain(server)
        finally:
            server.close()
            # wait_closed can block on lingering connections (3.12+
            # semantics); everything left is torn down by asyncio.run's
            # task cancellation, so cap the courtesy wait.
            with contextlib.suppress(asyncio.TimeoutError, OSError):
                await asyncio.wait_for(server.wait_closed(), 1.0)

    async def _drain(self, server: asyncio.base_events.Server) -> None:
        """Graceful shutdown: stop accepting, let in-flight work finish."""
        self._draining = True
        self._log(
            "draining",
            inflight=self.admission.inflight,
            queued=self.admission.queued,
            timeout=self.drain_timeout,
        )
        server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        while (
            self.admission.inflight or self.admission.queued
        ) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        abandoned = self.admission.inflight + self.admission.queued
        if abandoned:
            self.metrics.bump("drained_inflight", abandoned)
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        self._log("drained", abandoned=abandoned)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.count("connections")
        self._connection_seq += 1
        peer = writer.get_extra_info("peername")
        if isinstance(peer, tuple) and len(peer) >= 2:
            client = f"{peer[0]}:{peer[1]}"
        else:
            client = f"unix#{self._connection_seq}"
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        admitted: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    payload = await self._read_request(reader)
                except ProtocolError as error:
                    # The stream is no longer trustworthy: report once,
                    # hang up.
                    await self._send(writer, write_lock, error_response(None, error))
                    break
                except (OSError, ValueError):
                    break  # the peer reset mid-read; nothing to tell it
                if payload is None:
                    break
                while len(tasks) >= self.MAX_PIPELINE:
                    await asyncio.wait(set(tasks), return_when=asyncio.FIRST_COMPLETED)
                task = loop.create_task(
                    self._handle_request(payload, writer, write_lock, client, admitted)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(admitted.discard)
        finally:
            self._writers.discard(writer)
            # Requests still *queued* die with their connection (their
            # admission waiters are reaped); admitted work finishes and
            # warms the store for whoever asks next.
            for task in list(tasks):
                if task not in admitted:
                    task.cancel()
            with contextlib.suppress(Exception):
                writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> dict[str, Any] | None:
        """One frame, or None on clean EOF at a frame boundary.

        Waiting for a frame to *start* is unbounded (idle connections
        are fine); once the first byte arrives the rest of the frame
        must land within ``frame_timeout``, or the connection is closed
        — a slow-loris peer trickling bytes can hold a socket, but
        never a queue slot or a worker.
        """
        first = await reader.read(1)
        if not first:
            return None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.frame_timeout

        async def exactly(count: int, what: str) -> bytes:
            try:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                return await asyncio.wait_for(reader.readexactly(count), remaining)
            except asyncio.TimeoutError:
                self.metrics.bump("slow_frames_closed")
                self._log("slow-frame-closed", budget=self.frame_timeout)
                raise ProtocolError(
                    f"{what} did not complete within {self.frame_timeout:g}s;"
                    " closing the connection"
                ) from None
            except asyncio.IncompleteReadError as error:
                raise ProtocolError(f"stream ended inside a {what}") from error

        rest = await exactly(_HEADER.size - 1, "frame header")
        (length,) = _HEADER.unpack(first + rest)
        if length > protocol_module.MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame header announces {length} bytes, above the"
                f" {protocol_module.MAX_FRAME_BYTES}-byte cap"
            )
        body = await exactly(length, "frame body")
        return decode_frame_body(body)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: dict[str, Any],
    ) -> bool:
        """Write one response frame under the connection's write lock.

        Pipelined responses interleave on one socket, so each frame must
        go out atomically.  A response that violates the protocol (a
        result frame above the size cap) is replaced by a structured
        error frame — the client learns why instead of watching a dead
        socket.  A vanished client is not an error: the work is done and
        warm in the store.
        """
        try:
            data = encode_frame(payload)
        except ProtocolError as error:
            data = encode_frame(error_response(payload.get("id"), error))
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
            return True
        except (ConnectionError, OSError, RuntimeError):
            return False

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle_request(
        self,
        payload: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        client: str,
        admitted: set[asyncio.Task],
    ) -> None:
        request_id = payload.get("id")
        self.count("requests")
        started = time.perf_counter()
        op_name = payload.get("op")
        op_label = op_name if op_name in OPERATIONS else "invalid"
        failed = False
        try:
            if not self.authorized(payload):
                # Unauthenticated TCP frames get a typed error frame and
                # never reach dispatch — not even for ping or shutdown.
                failed = True
                self.count("errors")
                await self._send(
                    writer,
                    write_lock,
                    error_response(
                        request_id,
                        AuthenticationError(
                            "this daemon requires an auth token: pass auth_token"
                            " to AttributionClient (or set REPRO_AUTH_TOKEN)"
                        ),
                    ),
                )
                return
            op = validate_request(payload)
            op_label = op
            if op == "shutdown":
                await self._send(
                    writer, write_lock, ok_response(request_id, {"stopping": True})
                )
                self._log("shutdown-requested", client=client)
                self.request_shutdown()
                return
            if op in INLINE_OPS:
                result = self._operations[op](self, payload)
            elif op in SIDE_OPS:
                self._refuse_if_draining()
                result = await asyncio.get_running_loop().run_in_executor(
                    self._workers, partial(self._operations[op], self, payload)
                )
            else:
                result = await self._compute(op, payload, client, admitted)
            await self._send(writer, write_lock, ok_response(request_id, result))
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - the frame is the boundary
            failed = True
            self.count("errors")
            if getattr(error, "retryable", False):
                self._log(
                    "request-shed",
                    client=client,
                    op=op_label,
                    id=request_id,
                    trace_id=payload.get("_trace_id"),
                    error=type(error).__name__,
                )
            await self._send(writer, write_lock, error_response(request_id, error))
        finally:
            self.metrics.observe(
                op_label, (time.perf_counter() - started) * 1000.0, error=failed
            )

    def _refuse_if_draining(self) -> None:
        if self._draining:
            self.metrics.bump("drain_refused")
            raise OverloadedError(
                "daemon is draining for shutdown; retry against a fresh daemon"
            )

    async def _compute(
        self,
        op: str,
        payload: dict[str, Any],
        client: str,
        admitted: set[asyncio.Task],
    ) -> dict[str, Any]:
        """One admission-gated, coalesced, worker-executed compute op.

        With ``trace: true`` on the request, the whole journey is
        spanned: ``server.request`` wraps admission, preparation, and
        the coalesced compute (whose engine spans nest inside), and the
        finished trace document rides the response as ``trace``.  A
        coalesced follower's trace holds the server-side spans plus a
        ``server.coalesced`` span naming the leader's trace id — the
        engine work happened (and was traced) under the leader.
        """
        self._refuse_if_draining()
        tracer = _tracing.Tracer() if payload.get("trace") else None
        if tracer is not None:
            # Bridges to _handle_request's error/shed logging: logs,
            # metrics, and traces correlate on one key.
            payload["_trace_id"] = tracer.trace_id
        started = time.perf_counter()
        priority = int(payload.get("priority") or 0)
        deadline_ms = payload.get("deadline_ms")
        deadline = (
            None
            if deadline_ms is None
            else self.admission.clock() + float(deadline_ms) / 1000.0
        )
        with _tracing.maybe_span(
            tracer,
            "server.request",
            op=op,
            id=payload.get("id"),
            client=client,
            priority=priority,
        ):
            with _tracing.maybe_span(
                tracer, "server.admission", queued=self.admission.queued
            ):
                await self.admission.acquire(
                    client, priority=priority, deadline=deadline
                )
            task = asyncio.current_task()
            if task is not None:
                admitted.add(task)
            try:
                loop = asyncio.get_running_loop()
                prepare = self._preparers[op]
                with _tracing.maybe_span(tracer, "server.prepare"):
                    key, compute = await loop.run_in_executor(
                        self._workers, partial(prepare, self, payload, tracer)
                    )
                compute = self._with_shared_claim(key, compute)
                with _tracing.maybe_span(tracer, "server.coalesce") as span:
                    shared, coalesced = await self.coalescer.run_async(
                        key,
                        lambda: loop.run_in_executor(self._workers, compute),
                        timeout=self.coalesce_timeout,
                    )
                    span.set("coalesced", coalesced)
                result = dict(shared)
                result["coalesced"] = coalesced
                if tracer is not None and coalesced:
                    leader_id = result.get("trace_id")
                    if leader_id and leader_id != tracer.trace_id:
                        with tracer.span(
                            "server.coalesced", leader_trace_id=leader_id
                        ):
                            pass
            finally:
                self.admission.release()
        if tracer is None:
            # A traced leader embeds its trace id for its followers;
            # an untraced copy drops it.
            result.pop("trace_id", None)
            return result
        # The finished document rides the envelope; when the slowest-N
        # buffer keeps it, one structured log line correlates request id,
        # trace id, plan fingerprint, and the top spans.
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        document = tracer.document()
        result["trace"] = document
        result["trace_id"] = tracer.trace_id
        if self.slow_traces.offer(document, elapsed_ms):
            self._log(
                "slow-request",
                id=payload.get("id"),
                trace_id=tracer.trace_id,
                fingerprint=_tracing.label(key),
                ms=round(elapsed_ms, 3),
                top_spans=top_spans(document),
            )
        return result

    # ------------------------------------------------------------------
    # Cheap and side operations (``_operations``)
    # ------------------------------------------------------------------
    def _op_ping(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "protocol": PROTOCOL_VERSION, "pid": os.getpid()}

    def _op_stats(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {
            "engine": self.engine.counters(),
            "registry": self.registry.counters(),
            "coalescer": vars(self.coalescer.stats.snapshot()),
            "server": {
                "requests": self.requests,
                "errors": self.errors,
                "connections": self.connections,
            },
        }

    def _op_metrics(self, payload: dict[str, Any]) -> dict[str, Any]:
        """The live-metrics document — see :mod:`repro.server.metrics`."""
        document = self.metrics.snapshot(
            coalescer=vars(self.coalescer.stats.snapshot()),
            draining=self._draining,
        )
        document["kernel"] = {"counters": vars(self.engine.kernel_stats.snapshot())}
        document["slow_traces"] = self.slow_traces.snapshot()
        shared = self.engine.shared
        if shared is not None:
            # Fleet coalescing visibility: claim wins are computations
            # this daemon led, ``coalesced`` are computations it *did
            # not repeat* because a sibling daemon's claim won the race.
            document["shared"] = {
                "store": vars(shared.stats.snapshot()),
                "claims": vars(shared.claim_stats.snapshot()),
            }
        return document

    def _op_db_load(self, payload: dict[str, Any]) -> dict[str, Any]:
        document = payload.get("database")
        if not isinstance(document, dict):
            raise ProtocolError("db_load needs a 'database' JSON object")
        database = database_from_dict(document)
        handle = self.registry.load(database)
        return {
            "handle": handle,
            "endogenous": len(database.endogenous),
            "exogenous": len(database.exogenous),
        }

    def _op_db_update(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Apply a fact-level delta against a loaded handle.

        The base version stays queryable (other clients may hold its
        handle, and the registry's version chain is what bounds how many
        versions accumulate); its durable store entries are retired so
        bounded stores drain superseded results first.
        """
        handle = str(payload.get("db"))
        document = payload.get("delta")
        if not isinstance(document, dict):
            raise ProtocolError("db_update needs a 'delta' JSON object")
        delta = delta_from_dict(document)
        successor_handle, base, successor = self.registry.update(handle, delta)
        if successor_handle != handle:
            # A no-op delta supersedes nothing — retiring would back-date
            # the *live* version's own entries.  Retiring is one
            # best-effort UPDATE on the durable store, so it runs
            # outside the engine lock: concurrent requests keep serving,
            # and a racing write at worst re-earns its stamp on next hit.
            self.engine.retire_version(base)
            # Retirement can drain the rows the claim skip relies on:
            # forget served keys so post-update requests re-claim.
            with self._served_lock:
                self._served_keys.clear()
        return {
            "handle": successor_handle,
            "base": handle,
            "endogenous": len(successor.endogenous),
            "exogenous": len(successor.exogenous),
            **delta.accounting(base),
        }

    # ------------------------------------------------------------------
    # Compute operations (``_preparers``, run by :meth:`_compute`)
    # ------------------------------------------------------------------
    def _with_shared_claim(
        self, key: tuple, compute: Callable[[], dict[str, Any]]
    ) -> Callable[[], dict[str, Any]]:
        """Coalesce ``compute`` across daemons via the shared store's claims.

        Runs inside the in-process coalescer's leader (worker thread), so
        each daemon stakes at most one claim per request key.  The claim
        winner computes and releases; a loser blocks until the winner's
        release — by which point the winner's result row is committed to
        the shared store — and then runs ``compute``, whose engine store
        lookup finds the row warm and executes nothing.  A timed-out
        wait (or a crashed winner's expired claim) degrades to computing
        locally: coalescing is an optimization, never a correctness
        dependency.

        Keys this daemon has already completed skip the claim entirely:
        their result row is committed to the warm tiers, so a sibling's
        concurrent duplicate finds it there instead of recomputing —
        the claim's write transactions would buy nothing, and warm
        repeats are the fleet's hot path.
        """
        shared = self.engine.shared
        if shared is None:
            return compute

        def claimed() -> dict[str, Any]:
            if self._already_served(key):
                return compute()
            if shared.claim(key):
                try:
                    outcome = compute()
                finally:
                    shared.release(key)
            else:
                shared.await_claim(key)
                outcome = compute()
            self._note_served(key)
            return outcome

        return claimed

    #: Completed-request keys remembered for the claim skip; past this
    #: the oldest are forgotten (and at worst re-claim once).
    SERVED_KEY_CAPACITY = 4096

    def _already_served(self, key: tuple) -> bool:
        with self._served_lock:
            if key in self._served_keys:
                self._served_keys.move_to_end(key)
                return True
        return False

    def _note_served(self, key: tuple) -> None:
        with self._served_lock:
            self._served_keys[key] = None
            self._served_keys.move_to_end(key)
            while len(self._served_keys) > self.SERVED_KEY_CAPACITY:
                self._served_keys.popitem(last=False)

    @staticmethod
    def _policy_key(policy: MethodPolicy) -> tuple:
        """The coalescing-key component of a request's method policy.

        The method *and* the accuracy contract are key material: a
        polynomial-only request must never share an outcome with a
        brute-force-permitting one, and two sampled requests coalesce
        only when their ``(epsilon, delta)`` classes agree exactly.
        """
        return ("policy", policy.method, policy.contract())

    def _request_inputs(self, payload: dict[str, Any], *, boolean: bool) -> tuple:
        """A compute request's ``(handle, database, query, exogenous)``.

        ``boolean`` is the query shape the op needs: batch and refine
        attribute a Boolean query, answers and aggregate a query with
        head variables.
        """
        op = payload.get("op")
        handle = str(payload.get("db"))
        database = self.registry.get(handle)
        query = parse_query(str(payload.get("query")))
        if boolean and not query.is_boolean:
            raise ValueError(
                f"{op} needs a Boolean query; use the answers operation for"
                " queries with head variables"
            )
        if not boolean and query.is_boolean:
            raise ValueError(f"{op} needs a query with head variables")
        relations = payload.get("exogenous")
        exogenous = None if relations is None else frozenset(relations)
        return handle, database, query, exogenous

    def _engine_compute(
        self,
        tracer: "_tracing.Tracer | None",
        run: Callable[[], Any],
        render: Callable[[Any], dict[str, Any]],
    ) -> Callable[[], dict[str, Any]]:
        """The compute step of a prepared op: ``run`` under the engine
        lock, ``render`` its outcome, plus the request's counter delta.

        ``render`` runs outside the lock; a traced request spans it as
        ``server.encode``.  A traced request's ``trace_id`` rides the
        shared result: how coalesced followers learn which trace did the
        work.
        """

        def compute() -> dict[str, Any]:
            with self._engine_lock:
                before = self.engine.counters()
                outcome = run()
                after = self.engine.counters()
            if tracer is None:
                rendered = render(outcome)
            else:
                with tracer.span("server.encode"):
                    rendered = render(outcome)
            out = {**rendered, "stats": _counters_delta(before, after)}
            if tracer is not None:
                out["trace_id"] = tracer.trace_id
            return out

        return compute

    def _prepare_batch(
        self,
        payload: dict[str, Any],
        tracer: "_tracing.Tracer | None" = None,
    ) -> tuple[tuple, Callable[[], dict[str, Any]]]:
        handle, database, query, exogenous = self._request_inputs(
            payload, boolean=True
        )
        policy = MethodPolicy.from_params(payload)
        # The policy is part of the key (see _policy_key).  The handle
        # pins the database *version*: the engine's store may share
        # entries across versions, but a coalesced response carries one
        # version's exact fact set and must never cross versions.
        key = (
            "batch",
            handle,
            self.engine.fingerprint(database, query, exogenous),
            self._policy_key(policy),
        )
        return key, self._engine_compute(
            tracer,
            lambda: self.engine.batch(
                database,
                query,
                exogenous_relations=exogenous,
                policy=policy,
                trace=tracer,
            ),
            lambda result: {
                "result": batch_result_to_dict(
                    result, database.derived(_version_rows)
                )
            },
        )

    def _prepare_refine(
        self,
        payload: dict[str, Any],
        tracer: "_tracing.Tracer | None" = None,
    ) -> tuple[tuple, Callable[[], dict[str, Any]]]:
        """Tighten a sampled request's accuracy bound from its stored state.

        The engine resumes the request's persisted permutation stream —
        no completed round is ever recomputed, which the per-request
        ``stats`` delta makes observable (``sampler.restarts`` stays 0,
        ``sampler.resumed_rounds`` counts the reused prefix).  With no
        explicit ``epsilon``, each call roughly halves the bound the
        rounds reach at ``delta`` (default 0.05, not the stored δ).
        """
        handle, database, query, exogenous = self._request_inputs(
            payload, boolean=True
        )
        epsilon = payload.get("epsilon")
        delta = payload.get("delta")
        key = (
            "refine",
            handle,
            self.engine.fingerprint(database, query, exogenous),
            None if epsilon is None else repr(float(epsilon)),
            None if delta is None else repr(float(delta)),
        )
        return key, self._engine_compute(
            tracer,
            lambda: self.engine.refine(
                database,
                query,
                exogenous_relations=exogenous,
                epsilon=None if epsilon is None else float(epsilon),
                delta=None if delta is None else float(delta),
                trace=tracer,
            ),
            lambda result: {
                "result": batch_result_to_dict(
                    result, database.derived(_version_rows)
                )
            },
        )

    def _prepare_answers(
        self,
        payload: dict[str, Any],
        tracer: "_tracing.Tracer | None" = None,
    ) -> tuple[tuple, Callable[[], dict[str, Any]]]:
        handle, database, query, exogenous = self._request_inputs(
            payload, boolean=False
        )
        policy = MethodPolicy.from_params(payload)
        requested = payload.get("answers")
        answers = (
            None
            if requested is None
            else [tuple(answer) for answer in requested]
        )
        key = (
            "answers",
            handle,
            self.engine.fingerprint_answers(database, query, answers, exogenous),
            self._policy_key(policy),
        )

        def render(batch) -> dict[str, Any]:
            table = database.derived(_version_rows)
            return {
                "answers": [
                    {
                        "answer": list(answer),
                        "result": batch_result_to_dict(result, table),
                    }
                    for answer, result in batch.per_answer.items()
                ],
                "pool": {
                    "hits": batch.pool_stats.hits,
                    "misses": batch.pool_stats.misses,
                },
            }

        return key, self._engine_compute(
            tracer,
            lambda: self.engine.batch_answers(
                database,
                query,
                answers,
                exogenous_relations=exogenous,
                policy=policy,
                trace=tracer,
            ),
            render,
        )

    def _prepare_aggregate(
        self,
        payload: dict[str, Any],
        tracer: "_tracing.Tracer | None" = None,
    ) -> tuple[tuple, Callable[[], dict[str, Any]]]:
        from repro.engine.results import aggregate_spec
        from repro.io import attribution_to_rows

        handle, database, query, exogenous = self._request_inputs(
            payload, boolean=False
        )
        kind = str(payload.get("aggregate"))
        index = payload.get("value_index")
        weight, label = aggregate_spec(kind, index, len(query.head))
        key = (
            "aggregate",
            handle,
            self.engine.fingerprint_answers(database, query, None, exogenous),
            label,
        )

        def render(batch) -> dict[str, Any]:
            try:
                totals = batch.aggregate(weight)
            except TypeError as error:
                # Mirror the CLI's contract: a non-numeric head position is
                # a ValueError, which round-trips over the wire.
                raise ValueError(str(error)) from error
            rows = attribution_to_rows(totals)
            if rows is None:
                raise ValueError(
                    "aggregate values contain constants that do not"
                    " round-trip through JSON scalars"
                )
            return {"label": label, "values": rows}

        return key, self._engine_compute(
            tracer,
            lambda: self.engine.batch_answers(
                database, query, None, exogenous_relations=exogenous, trace=tracer
            ),
            render,
        )

    _operations: dict[str, Callable[["AttributionDaemon", dict[str, Any]], dict]] = {
        "ping": _op_ping,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "db_load": _op_db_load,
        "db_update": _op_db_update,
    }

    _preparers: dict[
        str,
        Callable[
            ["AttributionDaemon", dict[str, Any], "_tracing.Tracer | None"],
            tuple[tuple, Callable[[], dict[str, Any]]],
        ],
    ] = {
        "batch": _prepare_batch,
        "answers": _prepare_answers,
        "aggregate": _prepare_aggregate,
        "refine": _prepare_refine,
    }


__all__ = ["AttributionDaemon"]
