"""Command-line interface: attribution queries without writing Python.

Usage (after ``pip install -e .``)::

    python -m repro classify  "q() :- R(x), S(x, y), T(y)" [--exogenous S]
    python -m repro shapley   db.json "q() :- Stud(x), not TA(x), Reg(x, y)"
    python -m repro shapley   db.json QUERY --fact 'TA' Adam
    python -m repro batch     db.json QUERY [QUERY ...]
    python -m repro batch     db.json QUERY --measure both --repeat 3 --stats
    python -m repro batch     db.json QUERY --cache-dir cache/
    python -m repro answers   db.json "ans(x) :- Stud(x), not TA(x), Reg(x, y)"
    python -m repro answers   db.json QUERY --answer Caroline --measure both
    python -m repro answers   db.json QUERY --aggregate count --stats
    python -m repro serve     --socket /tmp/repro.sock --cache-dir cache/
    python -m repro serve     --tcp 127.0.0.1:7464 --max-inflight 32 --per-client-rps 50
    python -m repro batch     db.json QUERY --connect /tmp/repro.sock --json
    python -m repro metrics   --connect /tmp/repro.sock
    python -m repro batch     db.json QUERY --trace --trace-out trace.json
    python -m repro trace     db.json QUERY --jobs 2 --out trace.json
    python -m repro relevance db.json QUERY --fact 'TA' Adam
    python -m repro demo                         # the paper's running example

``batch`` computes the values of *all* endogenous facts per query in one
pass through the shared-work engine (:mod:`repro.engine`): one CntSat
recursion — or one ExoShap rewrite — serves every fact, Shapley and
Banzhaf values come from the same count vectors (``--measure``), and
repeated or overlapping requests hit the engine's LRU caches
(demonstrate with ``--repeat``, inspect with ``--stats``).

``answers`` attributes *per answer tuple* of a non-Boolean query: each
answer ``t`` is one engine batch for the grounded Boolean query ``q_t``,
all groundings share component bundles through the engine's
cross-grounding pool, and ``--aggregate count`` / ``--aggregate sum
--value-index K`` print the linearity-derived aggregate attribution of
every fact.  ``--answer`` restricts to specific tuples (repeatable);
without it every candidate answer is attributed.

Every compute command — ``batch``, ``answers`` and ``trace`` — takes the
same front-door flags and computes through one code path whichever door
they open: ``--exogenous``, ``--method``/``--epsilon``/``--delta``, the
in-process engine's ``--jobs``/``--cache-dir``, or ``--connect ADDR``
(one daemon, or a comma-separated fleet) with ``--timeout`` and
``--auth-token``.  ``batch`` and ``answers`` also share the report flags
``--measure``, ``--stats``, ``--json``, ``--update`` and
``--trace``/``--trace-out``.  Each invocation gets a dedicated engine, so
one in-process run never sees another's warm caches.

``--cache-dir DIR`` (also on ``serve``) turns on the durable result
store: the SQLite file ``DIR/results.db``
(:mod:`repro.engine.sqlite_store`) holds results keyed by request
fingerprints, so a later *process* serves the same requests warm without
recomputing.  It is the same store a daemon fleet shares through
``serve --shared-store PATH``: one process with a cache directory is a
fleet of one.

``--jobs N`` switches the engine to the sharded executor
(:mod:`repro.engine.executors`): the planner's independent grounding and
component tasks are distributed over ``N`` worker processes and their
count vectors merged back — results are bit-identical to serial
execution.  ``--stats`` reports the per-layer
accounting of the plan/execute pipeline: cache counters, planner
prunes, store hits, and executor task placement.

``serve`` starts the attribution daemon (:mod:`repro.server`): one warm
engine behind a Unix-domain socket (``--socket PATH``) or TCP endpoint
(``--tcp HOST:PORT``), optionally with a durable store (``--cache-dir``
for one daemon, ``--shared-store`` for a fleet on one file) and sharded
executor (``--jobs``).  Admission control
is tunable: ``--max-inflight`` bounds concurrent compute requests,
``--per-client-rps`` rate-limits each client connection, and
``--drain-timeout`` caps the graceful drain on SIGTERM/``shutdown``.
``metrics --connect ADDR`` prints the live serving metrics (per-op
latency histograms, queue depth, shed counters, coalescing ratio) of a
running daemon.  ``--connect ADDR`` routes the command through a running
daemon instead of computing in-process: the database uploads once per
invocation (content-addressed, so re-uploads are cheap), results come
back as exact ``Fraction`` values, and repeated queries are served from
the daemon's warm stores::

    python -m repro serve --socket /tmp/repro.sock --cache-dir cache/ &
    python -m repro batch db.json QUERY --connect /tmp/repro.sock

``--method`` selects the algorithm family
through the engine's unified :class:`~repro.engine.policy.MethodPolicy`:
``auto`` (the default — polynomial algorithms when the dichotomy allows,
bounded brute force, and Hoeffding-bounded sampling for everything else;
never rejects a query), ``exact`` (polynomial only; rejects intractable
queries at plan time), ``brute-force``, or ``sampled``.  ``--epsilon`` /
``--delta`` set the additive accuracy contract of a sampled answer (with
probability at least ``1 - delta`` every printed estimate is within
``epsilon`` of the exact Shapley value); sampled answers print their
achieved bound in the provenance line and carry an ``estimate`` block in
``--json``.  ``--refine`` (on ``batch``) tightens a previous sampled
answer instead of recomputing it: the engine resumes the request's
stored permutation stream (in-process with ``--cache-dir``, or daemon
state with ``--connect``), and with no explicit ``--epsilon`` each call
roughly halves its bound at ``--delta`` (0.05 unless given again)::

    python -m repro batch db.json QUERY --method sampled --epsilon 0.05
    python -m repro batch db.json QUERY --refine --connect /tmp/repro.sock

``--json`` prints one machine-readable
JSON document instead of the text report: values as exact
numerator/denominator string pairs (the shared dialect of
:mod:`repro.io`, identical to the wire protocol's) plus the per-layer
``stats`` block.

``--update delta.json`` applies a
fact-level delta before computing — the incremental-maintenance path of
the delta-aware engine.  The file holds ``add_endogenous`` /
``add_exogenous`` / ``remove`` fact rows (the dialect of
:func:`repro.engine.delta.delta_to_dict`).  With ``--connect`` the base
uploads once and the delta travels as a ``db_update`` operation, so the
daemon's warm stores carry every result the delta did not touch; without
it the delta is applied locally before the engine runs::

    python -m repro answers db.json QUERY --connect /run/repro.sock \
        --update delta.json

``--trace`` records a hierarchical span
trace of each request — planner prunes, store tiers with hit/miss,
kernel convolutions, sampler rounds, and (with ``--jobs``) per-worker
lanes; with ``--connect`` the daemon contributes its admission and
coalescing spans and ships the trace back on the response.  The tree
prints after the report; ``--trace-out FILE.json`` additionally exports
Chrome ``trace_event`` JSON loadable in ``chrome://tracing`` or
Perfetto.  The dedicated ``trace`` command does the same for a single
query without the attribution report::

    python -m repro trace db.json QUERY --jobs 2 --out trace.json

``--auth-token TOKEN`` (or ``REPRO_AUTH_TOKEN``) guards a TCP daemon:
``serve --tcp`` rejects frames without the token (constant-time compare,
typed error frame), and the same flag/env authenticates ``--connect``
clients.  Unix-domain sockets rely on filesystem permissions instead and
ignore the token.

The database file uses the JSON layout of :mod:`repro.io`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from repro.core.classify import classify
from repro.core.errors import ReproError
from repro.core.facts import Fact
from repro.core.parser import parse_query
from repro.io import batch_result_to_dict, load_database
from repro.relevance.algorithms import (
    is_negatively_relevant,
    is_positively_relevant,
)
from repro.shapley.exact import shapley_all_values, shapley_value


def _convert_tokens(args: Sequence[str]) -> tuple:
    """CLI tokens as constants, converting numeric-looking arguments."""
    converted: list = []
    for token in args:
        try:
            converted.append(int(token))
        except ValueError:
            converted.append(token)
    return tuple(converted)


def _parse_fact(relation: str, args: Sequence[str]) -> Fact:
    """Build a fact from CLI tokens, converting numeric-looking arguments."""
    return Fact(relation, _convert_tokens(args))


def _open_store(path):
    """The durable result store at ``path``, or a one-line CLI error."""
    import sqlite3

    from repro.engine import SQLiteResultStore

    try:
        return SQLiteResultStore(path)
    except sqlite3.Error as error:
        # A file that is not a SQLite database, or one SQLite cannot
        # open: report it like any other unusable input file.
        raise ValueError(f"cannot open result store {path}: {error}") from None


def _make_engine(options: argparse.Namespace):
    """A dedicated engine for this invocation (--cache-dir / --jobs /
    --shared-store configure it)."""
    from repro.engine import BatchAttributionEngine

    cache_dir = getattr(options, "cache_dir", None)
    shared_store = getattr(options, "shared_store", None)
    if cache_dir is not None and shared_store is not None:
        raise ValueError(
            "--cache-dir and --shared-store both name the durable result"
            " store; pass one"
        )
    if cache_dir is not None:
        shared_store = Path(cache_dir) / "results.db"
    shared = None if shared_store is None else _open_store(shared_store)
    # Never the process-wide default engine: one invocation's warm caches,
    # store, or worker pool must not leak into the next one.
    return BatchAttributionEngine(jobs=getattr(options, "jobs", None), shared=shared)


class _LocalAttributor:
    """The in-process engine in the call shapes of the daemon clients.

    :class:`~repro.server.client.AttributionClient` and
    :class:`~repro.server.fleet.FleetClient` share ``update_database``,
    ``batch``, ``refine``, ``answers``, ``stats`` and ``last_trace``;
    wrapping the engine in the same shapes lets every command compute
    through one code path whichever front door :func:`_attributor` opens.
    """

    def __init__(self, engine) -> None:
        self.engine = engine

    def __enter__(self) -> "_LocalAttributor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # The invocation's durable store closes with it, as a client's
        # socket does.
        if self.engine.shared is not None:
            self.engine.shared.close()

    @property
    def last_trace(self) -> dict | None:
        return self.engine.last_trace

    def update_database(self, database, *, delta):
        from repro.engine.delta import apply_delta

        return apply_delta(database, delta)

    def batch(self, database, query, exogenous=None, *, policy=None, trace=False):
        return self.engine.batch(
            database, query, exogenous_relations=exogenous, policy=policy, trace=trace
        )

    def refine(
        self, database, query, exogenous=None, *, epsilon=None, delta=None, trace=False
    ):
        return self.engine.refine(
            database,
            query,
            exogenous_relations=exogenous,
            epsilon=epsilon,
            delta=delta,
            trace=trace,
        )

    def answers(
        self, database, query, answers=None, exogenous=None, *, policy=None, trace=False
    ):
        return self.engine.batch_answers(
            database,
            query,
            answers,
            exogenous_relations=exogenous,
            policy=policy,
            trace=trace,
        )

    def stats(self) -> dict:
        return {"engine": self.engine.counters()}


def _attributor(options: argparse.Namespace):
    """The invocation's front door: the engine, one daemon, or a fleet.

    Without ``--connect`` a dedicated in-process engine; with one address
    an :class:`~repro.server.client.AttributionClient`; with a
    comma-separated ``--connect a.sock,b.sock`` a
    :class:`~repro.server.fleet.FleetClient` (consistent-hash routing with
    failover, fan-out database updates).  All three answer the same calls.
    """
    if not options.connect:
        return _LocalAttributor(_make_engine(options))
    if (
        getattr(options, "cache_dir", None) is not None
        or getattr(options, "jobs", None) is not None
    ):
        # --jobs/--cache-dir configure an in-process engine; a daemon has
        # its own.
        raise ValueError(
            "--connect routes through a daemon, so --jobs/--cache-dir"
            " have no effect here; set them on `python -m repro serve` instead"
        )
    if "," in options.connect:
        from repro.server.fleet import FleetClient as door
    else:
        from repro.server.client import AttributionClient as door
    return door(options.connect, timeout=options.timeout, auth_token=options.auth_token)


def _policy_from_options(options: argparse.Namespace):
    """The :class:`MethodPolicy` of this invocation's --method/--epsilon/--delta."""
    from repro.engine.policy import DEFAULT_DELTA, DEFAULT_EPSILON, MethodPolicy

    epsilon = getattr(options, "epsilon", None)
    delta = getattr(options, "delta", None)
    return MethodPolicy(
        getattr(options, "method", None) or "auto",
        epsilon=DEFAULT_EPSILON if epsilon is None else epsilon,
        delta=DEFAULT_DELTA if delta is None else delta,
    )


def _provenance(result) -> str:
    """The bracketed provenance of one result line, accuracy included."""
    label = result.method
    if result.estimate is not None:
        est = result.estimate
        label += (
            f" eps<={est.epsilon:.4g} delta={est.delta:g}"
            f" rounds={est.rounds} resumed={est.resumed_rounds}"
        )
    if result.from_cache:
        label += ", cached"
    return label


def _print_stats(stats: dict) -> None:
    """The --stats text: one line per section of ``attributor.stats()``,
    in the JSON that --json emits, for an engine, a daemon or a fleet."""
    for section in sorted(stats):
        print(f"stats[{section}]: {json.dumps(stats[section], sort_keys=True)}")


def _cmd_classify(options: argparse.Namespace) -> int:
    query = parse_query(options.query)
    verdict = classify(query, frozenset(options.exogenous or ()))
    print(f"query:  {query!r}")
    print(f"class:  {verdict.complexity.value}")
    print(f"reason: {verdict.reason}")
    if verdict.witness is not None:
        print(f"witness: {verdict.witness!r}")
    return 0


def _cmd_shapley(options: argparse.Namespace) -> int:
    database = load_database(options.database)
    query = parse_query(options.query)
    exogenous = frozenset(options.exogenous) if options.exogenous else None
    if options.fact:
        target = _parse_fact(options.fact[0], options.fact[1:])
        value = shapley_value(database, query, target, exogenous)
        print(f"{target!r}: {value} ({float(value):+.6f})")
        return 0
    values = shapley_all_values(database, query, exogenous)
    for f in sorted(values, key=repr):
        print(f"{f!r:32} {values[f]!s:>12} ({float(values[f]):+.6f})")
    total = sum(values.values())
    print(f"{'(sum)':32} {total!s:>12}")
    return 0


def _load_delta(options: argparse.Namespace):
    """The --update delta, or None; malformed files raise ValueError."""
    update = getattr(options, "update", None)
    if update is None:
        return None
    from repro.engine.delta import delta_from_dict

    return delta_from_dict(json.loads(Path(update).read_text()))


def _trace_wanted(options: argparse.Namespace) -> bool:
    """--trace-out implies --trace: an export needs a recorded trace."""
    return bool(
        getattr(options, "trace", False) or getattr(options, "trace_out", None)
    )


def _finish_traces(
    options: argparse.Namespace,
    traces: list[tuple[str, dict | None]],
    *,
    quiet: bool = False,
) -> None:
    """Render and/or export collected ``(query, document)`` traces.

    ``quiet`` suppresses the text tree (--json mode keeps stdout a single
    machine-readable document); --trace-out exports the first recorded
    trace as Chrome ``trace_event`` JSON either way.
    """
    if not _trace_wanted(options):
        return
    from repro.obs import export_chrome, render_trace

    out = getattr(options, "trace_out", None)
    for text, document in traces:
        if document is None:
            print(f"warning: no trace recorded for {text!r}", file=sys.stderr)
            continue
        if not quiet:
            print(f"trace for {text!r}:")
            print(render_trace(document))
        if out:
            export_chrome(document, out)
            if not quiet:
                print(f"trace written to {out}")
            out = None


def _cmd_batch(options: argparse.Namespace) -> int:
    attributor = _attributor(options)
    if options.refine and options.method not in (None, "sampled"):
        print(
            "error: --refine always resumes the sampled method; drop"
            f" --method {options.method}",
            file=sys.stderr,
        )
        return 2
    policy = _policy_from_options(options)
    database = load_database(options.database)
    delta = _load_delta(options)
    exogenous = frozenset(options.exogenous) if options.exogenous else None
    queries = [(text, parse_query(text)) for text in options.queries]
    want_trace = _trace_wanted(options)
    results = []
    traces: list[tuple[str, dict | None]] = []
    with attributor:
        # With a daemon the base uploads once and only the delta travels:
        # its warm stores carry everything the delta did not touch.
        target = (
            database
            if delta is None
            else attributor.update_database(database, delta=delta)
        )
        for text, query in queries:
            for _ in range(max(1, options.repeat)):
                if options.refine:
                    result = attributor.refine(
                        target,
                        query,
                        exogenous,
                        epsilon=options.epsilon,
                        delta=options.delta,
                        trace=want_trace,
                    )
                else:
                    result = attributor.batch(
                        target, query, exogenous, policy=policy, trace=want_trace
                    )
            results.append((text, query, result))
            if want_trace:
                traces.append((text, attributor.last_trace))
        stats = attributor.stats() if options.stats or options.json else None
    if options.json:
        document = {
            "database": options.database,
            "queries": [
                {"query": text, **batch_result_to_dict(result)}
                for text, _, result in results
            ],
            "stats": stats,
        }
        if want_trace:
            document["traces"] = [
                {"query": text, "trace": trace} for text, trace in traces
            ]
        print(json.dumps(document, indent=2))
        _finish_traces(options, traces, quiet=True)
        return 0
    for text, query, result in results:
        print(
            f"query {query!r} [{_provenance(result)}],"
            f" {result.player_count} players:"
        )
        show_shapley = options.measure in ("shapley", "both")
        # Sampled results estimate Shapley only: their Banzhaf mapping is
        # empty, so the column simply does not print.
        show_banzhaf = options.measure in ("banzhaf", "both")
        for f in sorted(result.shapley, key=repr):
            columns = []
            if show_shapley:
                columns.append(f"shapley={result.shapley[f]!s}")
            if show_banzhaf and f in result.banzhaf:
                columns.append(f"banzhaf={result.banzhaf[f]!s}")
            print(f"  {f!r:32} {'  '.join(columns)}")
        if show_shapley:
            total = sum(result.shapley.values())
            print(f"  {'(shapley sum)':32} {total!s}")
    _finish_traces(options, traces)
    if options.stats:
        _print_stats(stats)
    return 0


def _cmd_answers(options: argparse.Namespace) -> int:
    attributor = _attributor(options)
    database = load_database(options.database)
    query = parse_query(options.query)
    if query.is_boolean:
        print("error: the answers command needs a query with head variables",
              file=sys.stderr)
        return 2
    arity = len(query.head)
    if options.answer and options.aggregate:
        print(
            "error: --aggregate sums over every candidate answer and"
            " conflicts with --answer; drop one of the two flags",
            file=sys.stderr,
        )
        return 2
    aggregate = None
    if options.aggregate:
        from repro.engine.results import aggregate_spec

        try:
            # One validator shared with the daemon's aggregate operation,
            # checked before any attribution work runs.
            aggregate = aggregate_spec(options.aggregate, options.value_index, arity)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    exogenous = frozenset(options.exogenous) if options.exogenous else None
    requested = (
        None
        if not options.answer
        else [_convert_tokens(tokens) for tokens in options.answer]
    )
    for tokens in requested or ():
        if len(tokens) != arity:
            print(
                f"error: answer {tokens!r} has arity {len(tokens)}, but the"
                f" query head has arity {arity}",
                file=sys.stderr,
            )
            return 2
    policy = _policy_from_options(options)
    delta = _load_delta(options)
    want_trace = _trace_wanted(options)
    with attributor:
        target = (
            database
            if delta is None
            else attributor.update_database(database, delta=delta)
        )
        batch = attributor.answers(
            target, query, requested, exogenous, policy=policy, trace=want_trace
        )
        traces = [(options.query, attributor.last_trace)] if want_trace else []
        stats = attributor.stats() if options.stats or options.json else None
    show_shapley = options.measure in ("shapley", "both")
    show_banzhaf = options.measure in ("banzhaf", "both")

    totals = label = None
    if aggregate is not None:
        weight, label = aggregate
        try:
            totals = batch.aggregate(weight)
        except (TypeError, ValueError) as error:
            print(
                f"error: head position {options.value_index} is not numeric"
                f" on every answer ({error})",
                file=sys.stderr,
            )
            return 2

    if options.json:
        from repro.io import attribution_to_rows

        document = {
            "database": options.database,
            "query": options.query,
            "answers": [
                {"answer": list(answer), **batch_result_to_dict(result)}
                for answer, result in batch.per_answer.items()
            ],
            "pool": {
                "hits": batch.pool_stats.hits,
                "misses": batch.pool_stats.misses,
            },
            "stats": stats,
        }
        if totals is not None:
            document["aggregate"] = {
                "label": label,
                "values": attribution_to_rows(totals),
            }
        if want_trace:
            document["traces"] = [
                {"query": text, "trace": trace} for text, trace in traces
            ]
        print(json.dumps(document, indent=2))
        _finish_traces(options, traces, quiet=True)
        return 0

    def print_values(result, indent: str = "  ") -> None:
        # A sampled result has no Banzhaf estimates (empty mapping), so
        # the column simply does not print for it.
        for f in sorted(result.shapley, key=repr):
            if not result.shapley[f] and not result.banzhaf.get(f):
                continue
            columns = []
            if show_shapley:
                columns.append(f"shapley={result.shapley[f]!s}")
            if show_banzhaf and f in result.banzhaf:
                columns.append(f"banzhaf={result.banzhaf[f]!s}")
            print(f"{indent}{f!r:32} {'  '.join(columns)}")

    for answer, result in batch.per_answer.items():
        print(f"answer {answer!r} [{_provenance(result)}]:")
        print_values(result)
        if show_shapley:
            total = sum(result.shapley.values())
            print(f"  {'(shapley sum)':32} {total!s}")

    if totals is not None:
        print(f"aggregate [{label}] attribution:")
        for f in sorted(totals, key=repr):
            if totals[f]:
                print(f"  {f!r:32} shapley={totals[f]!s}")
        print(f"  {'(sum)':32} {sum(totals.values(), Fraction(0))!s}")

    _finish_traces(options, traces)
    if options.stats:
        _print_stats(stats)
        print(f"pool: {json.dumps(vars(batch.pool_stats), sort_keys=True)}")
    return 0


def _cmd_serve(options: argparse.Namespace) -> int:
    import os
    import signal

    from repro.server.daemon import AttributionDaemon

    engine = _make_engine(options)
    address = options.socket if options.socket else options.tcp
    auth_token = options.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None
    daemon = AttributionDaemon(
        address,
        engine=engine,
        auth_token=auth_token,
        max_inflight=options.max_inflight,
        per_client_rps=options.per_client_rps,
        drain_timeout=options.drain_timeout,
    )

    def _stop(signum: int, frame: object) -> None:
        # Graceful drain: in-flight requests finish (up to --drain-timeout),
        # new arrivals get a retryable OverloadedError, then serve_forever
        # returns normally and the finally below unlinks the socket.
        daemon.request_shutdown()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(
        f"repro attribution daemon listening on {daemon.address}"
        f" (pid {os.getpid()})",
        flush=True,
    )
    try:
        daemon.serve_forever()
    finally:
        daemon.close()
    return 0


def _render_metrics(document: dict) -> None:
    """The metrics document as aligned text: ops table, then counters."""
    ops = document.get("ops", {})
    if ops:
        header = (
            f"{'op':<12} {'requests':>8} {'errors':>8}"
            f" {'p50 ms':>10} {'p99 ms':>10} {'max ms':>10}"
        )
        print(header)
        for op in sorted(ops):
            doc = ops[op]
            latency = doc.get("latency", {})

            def column(value):
                return f"{value:.2f}" if isinstance(value, (int, float)) else "-"

            print(
                f"{op:<12} {doc.get('requests', 0):>8} {doc.get('errors', 0):>8}"
                f" {column(latency.get('p50_ms')):>10}"
                f" {column(latency.get('p99_ms')):>10}"
                f" {column(latency.get('max_ms')):>10}"
            )
    admission = document.get("admission", {})
    for name in sorted(admission):
        print(f"admission[{name}]: {admission[name]}")
    queue = document.get("queue", {})
    for name in sorted(queue):
        print(f"queue[{name}]: {queue[name]}")
    coalescing = document.get("coalescing")
    if coalescing:
        print(f"coalescing: {json.dumps(coalescing, sort_keys=True)}")
    counters = document.get("kernel", {}).get("counters", {})
    for name in sorted(counters):
        print(f"kernel[{name}]: {counters[name]}")
    shared = document.get("shared")
    if shared:
        for section in sorted(shared):
            print(f"shared[{section}]: {json.dumps(shared[section], sort_keys=True)}")
    print(f"draining: {document.get('draining', False)}")


def _cmd_metrics(options: argparse.Namespace) -> int:
    with _attributor(options) as client:
        document = client.metrics()
    if options.json:
        # A fleet's unreachable nodes report their error instead.
        print(
            json.dumps(
                document,
                indent=2,
                sort_keys=True,
                default=lambda error: {"error": str(error)},
            )
        )
        return 0
    nodes = document.get("nodes")
    if nodes is not None:
        # A fleet: per-node documents plus the exact bucket-wise merge.
        reachable = {
            address for address, doc in nodes.items() if isinstance(doc, dict)
        }
        print(f"fleet: {len(reachable)}/{len(nodes)} nodes reporting")
        for address in sorted(set(nodes) - reachable):
            print(f"node[{address}]: unreachable ({nodes[address]})", file=sys.stderr)
        document = document["fleet"]
    _render_metrics(document)
    return 0


def _cmd_trace(options: argparse.Namespace) -> int:
    """Run one traced request and print its span tree (optionally export)."""
    from repro.obs import export_chrome, render_trace

    attributor = _attributor(options)
    database = load_database(options.database)
    query = parse_query(options.query)
    exogenous = frozenset(options.exogenous) if options.exogenous else None
    policy = _policy_from_options(options)
    with attributor:
        if query.is_boolean:
            attributor.batch(database, query, exogenous, policy=policy, trace=True)
        else:
            attributor.answers(
                database, query, None, exogenous, policy=policy, trace=True
            )
        document = attributor.last_trace
    if document is None:
        print("error: no trace was recorded for the request", file=sys.stderr)
        return 2
    print(render_trace(document))
    if options.out:
        path = export_chrome(document, options.out)
        print(f"trace written to {path}")
    return 0


def _cmd_relevance(options: argparse.Namespace) -> int:
    database = load_database(options.database)
    query = parse_query(options.query)
    target = _parse_fact(options.fact[0], options.fact[1:])
    positive = is_positively_relevant(database, query, target)
    negative = is_negatively_relevant(database, query, target)
    print(f"{target!r}:")
    print(f"  positively relevant: {positive}")
    print(f"  negatively relevant: {negative}")
    print(f"  Shapley value is {'nonzero' if positive or negative else 'zero'}")
    return 0


def _cmd_demo(_: argparse.Namespace) -> int:
    from repro.workloads.running_example import (
        EXAMPLE_2_3_SHAPLEY,
        figure_1_database,
        query_q1,
    )

    db = figure_1_database()
    values = shapley_all_values(db, query_q1())
    print(f"running example (Figure 1), query {query_q1()!r}:")
    for f in sorted(values, key=repr):
        match = "✓" if values[f] == EXAMPLE_2_3_SHAPLEY[f] else "✗"
        print(f"  {f!r:26} {values[f]!s:>8}  paper: {EXAMPLE_2_3_SHAPLEY[f]!s:>8} {match}")
    return 0


def _add_method_flags(parser: argparse.ArgumentParser) -> None:
    """The shared --method/--epsilon/--delta of batch and answers."""
    parser.add_argument(
        "--method",
        choices=("auto", "exact", "brute-force", "sampled"),
        default=None,
        help="algorithm family: auto (default; never rejects a query),"
        " exact (polynomial only), brute-force, or sampled"
        " ((epsilon, delta)-approximate)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        metavar="EPS",
        help="additive accuracy of a sampled answer (default: 0.1)",
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=None,
        metavar="DELTA",
        help="failure probability of a sampled answer's bound"
        " (default: 0.05)",
    )


def _add_front_door_flags(
    parser: argparse.ArgumentParser, *, report: bool = True
) -> None:
    """The flags every compute command shares: inputs, method, and the
    front door (in-process engine, ``--connect`` daemon or fleet).

    ``report`` adds the attribution report's flags of batch and answers.
    """
    parser.add_argument(
        "--exogenous", nargs="*", metavar="REL", help="exogenous relations (X)"
    )
    _add_method_flags(parser)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard independent plan tasks across N worker processes"
        " (default: in-process serial execution)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="SQLite result store at DIR/results.db (warm across processes)",
    )
    parser.add_argument(
        "--connect",
        metavar="ADDR",
        help="route through a running attribution daemon (socket path or"
        " HOST:PORT) instead of computing in-process; a comma-separated"
        " list routes across a daemon fleet by consistent hashing",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request socket timeout with --connect (default: wait as"
        " long as the computation needs, like in-process execution)",
    )
    parser.add_argument(
        "--auth-token",
        metavar="TOKEN",
        default=None,
        help="auth token for a guarded TCP daemon with --connect"
        " (default: REPRO_AUTH_TOKEN)",
    )
    if not report:
        return
    parser.add_argument(
        "--measure",
        choices=("shapley", "banzhaf", "both"),
        default="shapley",
        help="attribution measure(s) to print (default: shapley)",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print engine cache statistics"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one machine-readable JSON document (exact"
        " numerator/denominator pairs plus the per-layer stats block)",
    )
    parser.add_argument(
        "--update",
        metavar="DELTA.json",
        help="apply a fact-level delta (add_endogenous/add_exogenous/remove"
        " rows) before computing; with --connect the delta travels as one"
        " db_update against the uploaded handle",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span trace of each request (engine, stores, kernels;"
        " with --connect also the daemon's admission/coalescing) and print"
        " the span tree",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE.json",
        help="export the first trace as Chrome trace_event JSON"
        " (chrome://tracing / Perfetto; implies --trace)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shapley values for conjunctive queries with negation"
        " (PODS 2020 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_classify = commands.add_parser(
        "classify", help="dichotomy classification of a query"
    )
    p_classify.add_argument("query", help="datalog-style query text")
    p_classify.add_argument(
        "--exogenous", nargs="*", metavar="REL", help="exogenous relations (X)"
    )
    p_classify.set_defaults(handler=_cmd_classify)

    p_shapley = commands.add_parser("shapley", help="exact Shapley values")
    p_shapley.add_argument("database", help="database JSON file")
    p_shapley.add_argument("query", help="datalog-style query text")
    p_shapley.add_argument(
        "--fact", nargs="+", metavar=("REL", "ARG"),
        help="single target fact: relation then arguments",
    )
    p_shapley.add_argument(
        "--exogenous", nargs="*", metavar="REL", help="exogenous relations (X)"
    )
    p_shapley.set_defaults(handler=_cmd_shapley)

    p_batch = commands.add_parser(
        "batch",
        help="all-facts Shapley/Banzhaf values via the shared-work engine",
    )
    p_batch.add_argument("database", help="database JSON file")
    p_batch.add_argument(
        "queries", nargs="+", metavar="QUERY", help="datalog-style query text(s)"
    )
    _add_front_door_flags(p_batch)
    p_batch.add_argument(
        "--refine",
        action="store_true",
        help="tighten a previous sampled answer by resuming its stored"
        " permutation stream (no --epsilon: roughly halve its bound at"
        " --delta, default 0.05 even if the first request's differed)",
    )
    p_batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run each batch N times (repeats hit the result cache)",
    )
    p_batch.set_defaults(handler=_cmd_batch)

    p_answers = commands.add_parser(
        "answers",
        help="per-answer attribution of a non-Boolean query (engine-backed)",
    )
    p_answers.add_argument("database", help="database JSON file")
    p_answers.add_argument("query", help="datalog-style query with head variables")
    p_answers.add_argument(
        "--answer",
        nargs="+",
        action="append",
        metavar="VAL",
        help="attribute only this answer tuple (repeatable);"
        " default: every candidate answer",
    )
    p_answers.add_argument(
        "--aggregate",
        choices=("count", "sum"),
        help="also print the aggregate attribution over all answers",
    )
    p_answers.add_argument(
        "--value-index",
        type=int,
        metavar="K",
        help="head position to sum for --aggregate sum",
    )
    _add_front_door_flags(p_answers)
    p_answers.set_defaults(handler=_cmd_answers)

    p_serve = commands.add_parser(
        "serve",
        help="run the attribution daemon: one warm engine behind a socket",
    )
    serve_address = p_serve.add_mutually_exclusive_group(required=True)
    serve_address.add_argument(
        "--socket", metavar="PATH", help="listen on a Unix-domain socket"
    )
    serve_address.add_argument(
        "--tcp", metavar="HOST:PORT", help="listen on a TCP endpoint"
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="SQLite result store at DIR/results.db for the daemon's"
        " engine (a fleet of one; use --shared-store to name the file)",
    )
    p_serve.add_argument(
        "--shared-store",
        metavar="PATH",
        help="shared SQLite result tier (one file for a whole daemon"
        " fleet: results computed by any daemon warm every other, and"
        " concurrent identical requests coalesce fleet-wide)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard the daemon's engine across N worker processes",
    )
    p_serve.add_argument(
        "--auth-token",
        metavar="TOKEN",
        default=None,
        help="require this token on every frame of a --tcp listener"
        " (constant-time compare; default: REPRO_AUTH_TOKEN; Unix"
        " sockets ignore it)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="execution slots for compute requests; excess queues (bounded"
        " at 4x) and arrivals past the queue are shed with a retryable"
        " overloaded frame (default: 64)",
    )
    p_serve.add_argument(
        "--per-client-rps",
        type=float,
        default=None,
        metavar="RPS",
        help="token-bucket rate limit per client connection; requests above"
        " it are shed, not queued (default: unlimited)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="on SIGTERM/shutdown: how long in-flight requests may finish"
        " before the loop exits (default: 5.0)",
    )
    p_serve.set_defaults(handler=_cmd_serve)

    p_metrics = commands.add_parser(
        "metrics",
        help="live daemon metrics: latency histograms, admission counters",
    )
    p_metrics.add_argument(
        "--connect",
        required=True,
        metavar="ADDR",
        help="running attribution daemon (socket path or HOST:PORT);"
        " a comma-separated list reports per-fleet merged metrics",
    )
    p_metrics.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="socket timeout for the metrics request (default: 10.0)",
    )
    p_metrics.add_argument(
        "--auth-token",
        metavar="TOKEN",
        default=None,
        help="auth token for a guarded TCP daemon"
        " (default: REPRO_AUTH_TOKEN)",
    )
    p_metrics.add_argument(
        "--json",
        action="store_true",
        help="print the raw metrics document as JSON",
    )
    p_metrics.set_defaults(handler=_cmd_metrics)

    p_trace = commands.add_parser(
        "trace",
        help="run one traced request and print its span tree",
    )
    p_trace.add_argument("database", help="database JSON file")
    p_trace.add_argument(
        "query",
        help="datalog-style query text (Boolean queries run as a batch,"
        " queries with head variables as per-answer attribution)",
    )
    _add_front_door_flags(p_trace, report=False)
    p_trace.add_argument(
        "--out",
        metavar="FILE.json",
        help="also export Chrome trace_event JSON"
        " (chrome://tracing / Perfetto)",
    )
    p_trace.set_defaults(handler=_cmd_trace)

    p_relevance = commands.add_parser(
        "relevance", help="relevance of a fact (polarity-consistent queries)"
    )
    p_relevance.add_argument("database", help="database JSON file")
    p_relevance.add_argument("query", help="datalog-style query text")
    p_relevance.add_argument(
        "--fact", nargs="+", required=True, metavar=("REL", "ARG"),
        help="target fact: relation then arguments",
    )
    p_relevance.set_defaults(handler=_cmd_relevance)

    p_demo = commands.add_parser("demo", help="reproduce Example 2.3")
    p_demo.set_defaults(handler=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    from repro.engine.core import environment_problems

    problems = environment_problems()
    if problems:
        # One clear line per problem instead of a traceback three stack
        # frames deep inside engine construction.
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return options.handler(options)
    except ConnectionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        # Covers parse errors (QuerySyntaxError), plan-time rejections
        # (IntractableQueryError), protocol/handle errors from a daemon.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Unreadable database files, unbindable sockets, and kin.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        # Includes malformed database JSON (json.JSONDecodeError).
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
