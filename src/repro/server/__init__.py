"""repro.server — the attribution service: warm engine, wire protocol, clients.

The engine made all-facts attribution cheap *per request*; this package
makes it cheap *per fleet*.  A long-lived daemon keeps one warm
:class:`~repro.engine.core.BatchAttributionEngine` — tiered in-memory +
durable SQLite result store, serial or sharded executor — behind a
Unix-domain or TCP socket, so clients skip Python startup, cold caches,
and database re-parsing on every request (the ROADMAP's "heavy traffic"
serving step).

Layers::

    client ──frames──► daemon ──handles──► registry ──keys──► engine
    AttributionClient   AttributionDaemon   DatabaseRegistry   (warm stores,
    retries, pipelining asyncio loop,       content-addressed  coalesced by
    Fraction round-trip admission control   InFlightCoalescer  plan fingerprint)

* :mod:`repro.server.protocol` — length-prefixed JSON frames, versioned
  request/response envelopes, structured error frames that round-trip
  :class:`~repro.core.errors.IntractableQueryError` and parse errors;
  load-shedding outcomes (:class:`OverloadedError`,
  :class:`DeadlineExceededError`, :class:`CoalescedRequestAborted`) are
  typed and marked ``retryable``.
* :mod:`repro.server.registry` — upload a database once (``db_load`` →
  content-addressed handle), then query the handle — or evolve it with a
  fact-level delta (``db_update`` → successor handle; the registry keeps
  a bounded version chain per lineage); concurrent identical requests
  coalesce onto one computation, keyed by the engine's canonical plan
  fingerprints *plus the handle*, so coalescing never crosses database
  versions.
* :mod:`repro.server.admission` — bounded in-flight concurrency, fair
  per-client queueing with priorities and deadlines, per-client token
  buckets; overload sheds with retryable frames instead of queueing
  unboundedly.
* :mod:`repro.server.metrics` — live latency histograms (the fixed
  bucket dialect of :mod:`repro.io`), admission counters, and gauges
  behind the ``metrics`` wire op.
* :mod:`repro.server.daemon` — the asyncio serving loop; pipelines
  requests per connection, survives malformed frames, slow-loris peers
  and mid-request disconnects, drains gracefully on ``shutdown`` or
  SIGTERM; TCP listeners optionally require an auth token
  (``--auth-token`` / ``REPRO_AUTH_TOKEN``, constant-time compare —
  Unix sockets are unaffected).
* :mod:`repro.server.client` — :class:`AttributionClient`, returning the
  same exact-``Fraction`` result objects as an in-process engine, with
  pipelined submits (:class:`PendingRequest`) on top of the same
  connection.
* :mod:`repro.server.fleet` — :class:`FleetClient`, the horizontal
  scale-out layer: consistent-hash routing over N daemons (per-daemon
  LRUs stay hot), per-node health with the jittered backoff of
  :mod:`repro.server.backoff`, failover on overload/disconnect, and
  fan-out ``db_load``/``db_update``; pair it with ``repro serve
  --shared-store`` so the fleet shares one SQLite result tier.

From the CLI: ``python -m repro serve --socket /run/repro.sock`` and
``python -m repro batch db.json QUERY --connect /run/repro.sock``
(``--connect`` accepts a comma-separated node list for fleet routing).
"""

from repro.server.admission import AdmissionController, TokenBucket
from repro.server.backoff import BackoffPolicy
from repro.server.client import AttributionClient, PendingRequest
from repro.server.daemon import AttributionDaemon
from repro.server.fleet import FleetClient, merge_metrics_documents
from repro.server.metrics import DaemonMetrics
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    AuthenticationError,
    CoalescedRequestAborted,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ServerError,
    UnknownHandleError,
    parse_address,
)
from repro.server.registry import DatabaseRegistry, InFlightCoalescer

__all__ = [
    "AdmissionController",
    "AttributionClient",
    "AttributionDaemon",
    "AuthenticationError",
    "BackoffPolicy",
    "CoalescedRequestAborted",
    "DaemonMetrics",
    "DatabaseRegistry",
    "DeadlineExceededError",
    "FleetClient",
    "InFlightCoalescer",
    "MAX_FRAME_BYTES",
    "OverloadedError",
    "PendingRequest",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerError",
    "TokenBucket",
    "UnknownHandleError",
    "merge_metrics_documents",
    "parse_address",
]
