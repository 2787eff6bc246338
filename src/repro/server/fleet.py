"""The fleet router: one client surface over N attribution daemons.

:class:`FleetClient` speaks to a *fleet* of daemons — typically N
processes sharing one :class:`repro.engine.sqlite_store.SQLiteResultStore`
file — through per-node :class:`~repro.server.client.AttributionClient`
connections, and adds the routing layer that makes the fleet behave like
one warm engine:

* **Consistent-hash routing.** Every request is routed by a stable
  digest of its plan-identifying material (database content, query
  text, exogenous set, grounding answers), over a hash ring with
  virtual nodes.  The same request always lands on the same daemon, so
  each daemon's *in-memory* LRU stays hot for its slice of the keyspace
  — the shared store only has to absorb the overflow and the failovers.
  Adding or removing a node remaps only the ring arcs it owned.
* **Health + backoff.** A node that refuses (``OverloadedError``) or
  drops the connection is put in a cooldown that grows with the shared
  jittered-exponential :class:`~repro.server.backoff.BackoffPolicy`;
  while cooling it is skipped by the router and re-probed afterwards.
* **Failover.** A failed call re-routes to the next node on the ring
  (results are bit-identical everywhere, so failover is transparent);
  only when every node has failed does the last error surface.
* **Fan-out.** ``load_database`` / ``update_database`` go to *every*
  node, keeping each daemon's registry version chain in sync and
  propagating retirement fleet-wide through the shared store.  Each
  node client then holds the version too, so a routed or failed-over
  request on the handle is sparse from the first.  ``stats`` /
  ``metrics`` collect per-node documents and (for metrics) a
  bucket-wise merged fleet view — the fixed histogram dialect of
  :mod:`repro.server.metrics` makes the merge exact.
* **Content routing.** A request routes by its database's content
  handle (:func:`~repro.server.registry.database_handle`), so a
  ``Database`` edited after upload routes, uploads and is served as
  its new version.

Usage::

    from repro.server import FleetClient

    with FleetClient(["/run/repro-0.sock", "/run/repro-1.sock"]) as fleet:
        result = fleet.batch(database, "q() :- R(x), not S(x)")
        fleet.metrics()["fleet"]["ops"]["batch"]["requests"]
"""

from __future__ import annotations

import hashlib
import time
from bisect import bisect_right
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.database import Database
from repro.core.facts import Constant, Fact
from repro.core.query import ConjunctiveQuery
from repro.engine.delta import DatabaseDelta
from repro.server.backoff import BackoffPolicy
from repro.server.client import AttributionClient
from repro.server.metrics import LatencyHistogram
from repro.server.protocol import OverloadedError
from repro.server.registry import database_handle

#: Ring points per node: enough that the keyspace splits evenly across
#: small fleets (the expected imbalance of N nodes x V vnodes shrinks
#: like 1/sqrt(V)) while keeping the ring tiny.
VNODES = 64


def _hash_point(material: str) -> int:
    return int.from_bytes(
        hashlib.sha256(material.encode("utf-8")).digest()[:8], "big"
    )


class _Node:
    """One daemon's connection plus its health/cooldown state."""

    __slots__ = ("address", "client", "failures", "down_until")

    def __init__(self, address: str, client: AttributionClient) -> None:
        self.address = address
        self.client = client
        self.failures = 0
        self.down_until = 0.0

    def available(self, now: float) -> bool:
        return now >= self.down_until


class FleetClient:
    """Consistent-hash routing over N daemon addresses; see module docs.

    ``addresses`` is a sequence of address specs or one comma-separated
    string (the CLI's ``--connect a.sock,b.sock`` form).  The remaining
    options are forwarded to every per-node
    :class:`~repro.server.client.AttributionClient`.
    """

    def __init__(
        self,
        addresses: Sequence[str] | str,
        timeout: float | None = 30.0,
        connect_retries: int = 40,
        retry_interval: float = 0.05,
        auth_token: str | None = None,
    ) -> None:
        if isinstance(addresses, str):
            addresses = [part for part in addresses.split(",") if part.strip()]
        cleaned = [address.strip() for address in addresses]
        if not cleaned:
            raise ValueError("a fleet needs at least one daemon address")
        if len(set(cleaned)) != len(cleaned):
            raise ValueError(f"duplicate daemon addresses in fleet: {cleaned}")
        self.nodes: list[_Node] = [
            _Node(
                address,
                AttributionClient(
                    address,
                    timeout=timeout,
                    connect_retries=connect_retries,
                    retry_interval=retry_interval,
                    auth_token=auth_token,
                ),
            )
            for address in cleaned
        ]
        # Node cooldowns reuse the client's backoff schedule at a larger
        # base: a refused node is typically overloaded for longer than a
        # booting one takes to bind its socket.
        self._backoff = BackoffPolicy(base=0.1, cap=5.0)
        # The ring: sorted (point, node index) pairs, VNODES per node.
        ring = [
            (_hash_point(f"{node.address}#{vnode}"), index)
            for index, node in enumerate(self.nodes)
            for vnode in range(VNODES)
        ]
        ring.sort()
        self._ring_points = [point for point, _ in ring]
        self._ring_nodes = [index for _, index in ring]
        #: Router accounting, surfaced by :meth:`router_stats`.
        self.routed = 0
        self.failovers = 0
        #: The node that served the last routed call (its
        #: ``last_response`` / ``last_trace`` are the fleet's).
        self._last_client: AttributionClient | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        for node in self.nodes:
            node.client.close()

    @property
    def addresses(self) -> list[str]:
        return [node.address for node in self.nodes]

    @property
    def last_response(self) -> dict[str, Any] | None:
        client = self._last_client
        return None if client is None else client.last_response

    @property
    def last_trace(self) -> dict[str, Any] | None:
        client = self._last_client
        return None if client is None else client.last_trace

    def router_stats(self) -> dict[str, Any]:
        """Routing accounting plus per-node health, for observability."""
        now = time.monotonic()
        return {
            "routed": self.routed,
            "failovers": self.failovers,
            "nodes": {
                node.address: {
                    "failures": node.failures,
                    "cooling": not node.available(now),
                }
                for node in self.nodes
            },
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _database_digest(self, database: Database | str) -> str:
        """Routing material for a database: its handle.

        A ``Database`` routes by :func:`~repro.server.registry.database_handle`,
        the name the daemons' registries give its current version, so
        routing by the object and by the handle the fleet returns agree
        on the node, and an object edited after upload routes as its new
        version.  The digest is derived once per version.
        """
        return database if isinstance(database, str) else database_handle(database)

    def _preference(self, material: tuple) -> list[_Node]:
        """Every node, ordered by ring position from the key's point.

        The head is the request's home node; the tail is the failover
        order — deterministic, so retries of the same request walk the
        same sequence and land on the same fallback while a node is out.
        """
        point = _hash_point(repr(material))
        start = bisect_right(self._ring_points, point) % len(self._ring_points)
        ordered: list[_Node] = []
        seen: set[int] = set()
        for offset in range(len(self._ring_nodes)):
            index = self._ring_nodes[(start + offset) % len(self._ring_nodes)]
            if index not in seen:
                seen.add(index)
                ordered.append(self.nodes[index])
        return ordered

    def _note_failure(self, node: _Node) -> None:
        node.failures += 1
        node.down_until = time.monotonic() + self._backoff.delay(
            node.failures - 1
        )

    @staticmethod
    def _note_success(node: _Node) -> None:
        node.failures = 0
        node.down_until = 0.0

    def _routed(
        self, material: tuple, call: Callable[[AttributionClient], Any]
    ) -> Any:
        """Run ``call`` on the key's home node, failing over along the ring.

        Nodes in cooldown are deferred to the end of the attempt order
        (never skipped outright — when the whole fleet is cooling, the
        request is still tried rather than refused).  ``OverloadedError``
        and transport failures (``ConnectionError`` is an ``OSError``)
        trigger failover; every other error is the *request's* outcome
        and propagates from the node that served it.
        """
        self.routed += 1
        preference = self._preference(material)
        now = time.monotonic()
        ordered = [node for node in preference if node.available(now)] + [
            node for node in preference if not node.available(now)
        ]
        last_error: Exception | None = None
        for position, node in enumerate(ordered):
            try:
                outcome = call(node.client)
            except (OverloadedError, OSError) as error:
                self._note_failure(node)
                last_error = error
                if position + 1 < len(ordered):
                    self.failovers += 1
                continue
            self._note_success(node)
            self._last_client = node.client
            return outcome
        assert last_error is not None
        raise last_error

    def _fan_out(
        self, call: Callable[[AttributionClient], Any]
    ) -> dict[str, Any]:
        """Run ``call`` on every node; at least one must succeed.

        Returns ``address -> outcome``; nodes that failed map to their
        exception (callers needing all-or-nothing check the values).
        Raises the last error only when *no* node succeeded.
        """
        outcomes: dict[str, Any] = {}
        errors = 0
        last_error: Exception | None = None
        for node in self.nodes:
            try:
                outcomes[node.address] = call(node.client)
            except (OverloadedError, OSError) as error:
                self._note_failure(node)
                outcomes[node.address] = error
                errors += 1
                last_error = error
            else:
                self._note_success(node)
        if errors == len(self.nodes) and last_error is not None:
            raise last_error
        return outcomes

    # ------------------------------------------------------------------
    # Fleet-wide operations
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, dict[str, Any]]:
        return self._fan_out(lambda client: client.ping())

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-node ``stats`` documents, keyed by address."""
        return self._fan_out(lambda client: client.stats())

    def metrics(self) -> dict[str, Any]:
        """Per-node metrics plus the merged fleet view.

        ``{"nodes": {address: document}, "fleet": merged}`` — the merge
        sums counters and histogram buckets (the fixed shared buckets
        make that exact) and recomputes quantiles from the merged
        buckets with the same :func:`repro.io.histogram_quantile` the
        single-node path uses.
        """
        outcomes = self._fan_out(lambda client: client.metrics())
        documents = {
            address: document
            for address, document in outcomes.items()
            if isinstance(document, dict)
        }
        return {
            "nodes": outcomes,
            "fleet": merge_metrics_documents(list(documents.values())),
        }

    def shutdown(self) -> dict[str, dict[str, Any]]:
        """Stop every reachable daemon in the fleet."""
        return self._fan_out(lambda client: client.shutdown())

    def load_database(self, database: Database) -> str:
        """Upload ``database`` to every node; returns the shared handle.

        Handles are content-addressed server-side, so all nodes agree on
        the handle string — which is also this fleet's routing material
        for the database, keeping object- and handle-addressed requests
        on the same home node.
        """
        outcomes = self._fan_out(lambda client: client.load_database(database))
        handles = {
            outcome for outcome in outcomes.values() if isinstance(outcome, str)
        }
        if len(handles) != 1:
            raise ConnectionError(
                f"fleet disagreed on database handle: {sorted(handles)}"
            )
        return handles.pop()

    def update_database(
        self,
        database: Database | str,
        adds: Iterable[Fact] = (),
        removes: Iterable[Fact] = (),
        exogenous_adds: Iterable[Fact] = (),
        delta: DatabaseDelta | None = None,
    ) -> str:
        """Apply a delta on every node; returns the successor handle.

        The fan-out keeps every daemon's registry version chain in sync,
        and each daemon retires the superseded version's entries — in
        the shared store that retirement is fleet-global, so one
        ``db_update`` suffices to drain stale results everywhere.
        """
        adds = tuple(adds)
        removes = tuple(removes)
        exogenous_adds = tuple(exogenous_adds)
        outcomes = self._fan_out(
            lambda client: client.update_database(
                database,
                adds=adds,
                removes=removes,
                exogenous_adds=exogenous_adds,
                delta=delta,
            ),
        )
        handles = {
            outcome for outcome in outcomes.values() if isinstance(outcome, str)
        }
        if len(handles) != 1:
            raise ConnectionError(
                f"fleet disagreed on successor handle: {sorted(handles)}"
            )
        return handles.pop()

    # ------------------------------------------------------------------
    # Routed compute operations (the AttributionClient surface)
    # ------------------------------------------------------------------
    def batch(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        exogenous: Iterable[str] | None = None,
        **options: Any,
    ):
        material = (
            "batch",
            self._database_digest(database),
            AttributionClient._query_text(query),
            AttributionClient._exogenous_param(exogenous),
        )
        return self._routed(
            material,
            lambda client: client.batch(database, query, exogenous, **options),
        )

    def answers(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        answers: Iterable[tuple[Constant, ...]] | None = None,
        exogenous: Iterable[str] | None = None,
        **options: Any,
    ):
        answers = None if answers is None else [tuple(a) for a in answers]
        material = (
            "answers",
            self._database_digest(database),
            AttributionClient._query_text(query),
            AttributionClient._exogenous_param(exogenous),
            None if answers is None else tuple(sorted(answers, key=repr)),
        )
        return self._routed(
            material,
            lambda client: client.answers(
                database, query, answers, exogenous, **options
            ),
        )

    def refine(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        exogenous: Iterable[str] | None = None,
        **options: Any,
    ):
        # Refinement resumes a stored sample stream: route it exactly
        # like batch over the same request material, so the refining
        # node is the one whose memory tier holds the stream's results.
        material = (
            "batch",
            self._database_digest(database),
            AttributionClient._query_text(query),
            AttributionClient._exogenous_param(exogenous),
        )
        return self._routed(
            material,
            lambda client: client.refine(database, query, exogenous, **options),
        )

    def aggregate(
        self,
        database: Database | str,
        query: str | ConjunctiveQuery,
        aggregate: str = "count",
        value_index: int | None = None,
        exogenous: Iterable[str] | None = None,
        **options: Any,
    ) -> Mapping[Fact, Fraction]:
        material = (
            "aggregate",
            self._database_digest(database),
            AttributionClient._query_text(query),
            aggregate,
            value_index,
            AttributionClient._exogenous_param(exogenous),
        )
        return self._routed(
            material,
            lambda client: client.aggregate(
                database, query, aggregate, value_index, exogenous, **options
            ),
        )


# ----------------------------------------------------------------------
# Metrics merging (the fleet-aware ``repro metrics`` view)
# ----------------------------------------------------------------------
def _sum_counters(documents: list[dict[str, Any]], section: str) -> dict[str, int]:
    merged: dict[str, int] = {}
    for document in documents:
        for name, value in document.get(section, {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                merged[name] = merged.get(name, 0) + int(value)
    return merged


def merge_metrics_documents(documents: list[dict[str, Any]]) -> dict[str, Any]:
    """Merge N per-daemon ``metrics`` documents into one fleet view.

    Counters and queue gauges sum; latency histograms merge bucket-wise
    (exact, thanks to the fixed shared bounds) with quantiles recomputed
    from the merged buckets; the coalescing ratio is recomputed from the
    summed leader/follower counts.  ``draining`` is true when *any* node
    drains.  Node-local diagnosis sections (``slow_traces``, ``kernel``)
    stay per-node and are intentionally absent here.
    """
    ops: dict[str, dict[str, Any]] = {}
    names = sorted(
        {name for document in documents for name in document.get("ops", {})}
    )
    for name in names:
        entries = [
            document["ops"][name]
            for document in documents
            if name in document.get("ops", {})
        ]
        latency = LatencyHistogram()
        for entry in entries:
            latency.merge_snapshot(entry.get("latency", {}))
        ops[name] = {
            "requests": sum(int(entry.get("requests", 0)) for entry in entries),
            "errors": sum(int(entry.get("errors", 0)) for entry in entries),
            "latency": latency.snapshot(),
        }
    coalescing = _sum_counters(documents, "coalescing")
    coalescing.pop("ratio", None)
    leaders = coalescing.get("leaders", 0)
    followers = coalescing.get("followers", 0)
    coalescing["ratio"] = round(followers / leaders, 4) if leaders else 0.0
    merged: dict[str, Any] = {
        "nodes": len(documents),
        "ops": ops,
        "admission": _sum_counters(documents, "admission"),
        "queue": _sum_counters(documents, "queue"),
        "coalescing": coalescing,
        "draining": any(document.get("draining") for document in documents),
    }
    shared_sections = [
        document["shared"]
        for document in documents
        if isinstance(document.get("shared"), dict)
    ]
    if shared_sections:
        merged["shared"] = {
            "store": _sum_counters(shared_sections, "store"),
            "claims": _sum_counters(shared_sections, "claims"),
        }
    return merged


__all__ = ["FleetClient", "VNODES", "merge_metrics_documents"]
