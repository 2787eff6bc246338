"""The executor layer: run a plan's nodes, serially or across processes.

An executor consumes a :class:`repro.engine.plan.Plan` and a bundle cache
and produces one :class:`repro.engine.results.BatchResult` per grounding
task.  Two backends implement the protocol:

* :class:`SerialExecutor` — today's semantics, and the default: every
  node runs in-process; bundle nodes are satisfied *lazily* through the
  cache as each grounding task's recursion reaches them, so cache
  accounting is byte-for-byte what the pre-split engine produced.
* :class:`ShardedExecutor` — a ``concurrent.futures``
  ``ProcessPoolExecutor`` backend: independent bundle nodes (per-component
  count vectors) and self-contained brute-force grounding nodes are
  shipped to worker processes; finished ``CountBundle``s are merged back
  into the caller's :class:`repro.engine.cache.BundlePool` (``seed``),
  after which the remaining convolution/assembly tasks run in-process and
  hit the pool instead of recursing.  Exact integer count vectors make
  the merge lossless: sharded and serial execution return bit-identical
  ``Fraction`` values.

Worker processes never share state with the parent: each task runs with
a fresh local cache, the pool initializer resets the process-wide default
engine (see :func:`repro.engine.core.reset_default_engine`), and under
the ``spawn`` start method the workers re-import :mod:`repro` from
scratch (the executor pins the package's location into ``PYTHONPATH`` so
spawned children can).  Worker pools are shared per ``(jobs,
start_method)`` across executors and shut down at interpreter exit.

If a pool cannot be created or dies mid-flight (sandboxed environments,
killed workers), the sharded executor degrades to in-process execution —
a correctness-preserving fallback counted in
the ``fallbacks`` counter of the executor's per-``execute`` record.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Protocol, runtime_checkable

from repro.engine.bundles import (
    BundleCache,
    batch_count_vectors,
    bundle_for_component,
)
from repro.engine.cache import LRUCache
from repro.engine.plan import BundleTask, GroundingTask, Plan
from repro.engine.results import (
    BatchResult,
    result_from_state,
    result_from_vectors,
)
from repro.obs import tracing as _tracing
from repro.obs.counters import Counters
from repro.shapley.sampling import extend_state, merge_totals, run_rounds


#: Executor accounting, where the plan's nodes actually ran: ``tasks``
#: grounding tasks run, in process or by a worker; ``bundle_tasks``
#: bundle nodes the workers ran; ``shipped`` nodes and sampled round
#: ranges that came back from a worker; ``fallbacks`` failed pools whose
#: nodes then ran in process.  One record per ``execute`` call; the engine
#: sums them.
EXECUTOR_COUNTERS = ("tasks", "bundle_tasks", "shipped", "fallbacks")


@runtime_checkable
class Executor(Protocol):
    """Anything that can run a plan against a bundle cache."""

    jobs: int

    def execute(
        self, plan: Plan, cache: BundleCache
    ) -> tuple[dict[tuple, BatchResult], Counters]: ...


def execute_grounding_task(task: GroundingTask, cache: BundleCache) -> BatchResult:
    """Run one grounding node: count vectors plus Lemma 3.2 assembly.

    The method was fixed at plan time; this function only executes it.
    For ``cntsat``/``exoshap`` the recursion satisfies the task's bundle
    dependencies through ``cache`` — hitting entries an executor seeded,
    computing (and memoizing) whatever is missing.
    """
    if task.method in ("empty", "inconsistent"):
        # No player can matter: the engine zero-fills every fact of D.
        return BatchResult({}, {}, task.method, 0)
    if task.method == "brute-force":
        from repro.shapley.brute_force import brute_force_all

        shapley, banzhaf = brute_force_all(task.database, task.query)
        return BatchResult(
            shapley, banzhaf, "brute-force", len(task.database.endogenous)
        )
    if task.method == "sampled":
        return execute_sample_task(task)
    vectors = batch_count_vectors(task.database, task.query, cache)
    return result_from_vectors(vectors, task.method)


def assemble_sample_result(
    task: GroundingTask,
    fresh_totals: dict,
    fresh_evaluations: int,
) -> BatchResult:
    """Fold fresh round totals into the task's prior state and report."""
    spec = task.sample_spec
    state = extend_state(
        spec.prior,
        spec.seed,
        fresh_totals,
        spec.fresh_rounds,
        fresh_evaluations,
    )
    return result_from_state(
        state,
        spec.delta,
        state_digest=spec.state_digest,
        resumed_rounds=spec.prior.rounds if spec.prior else 0,
    )


def execute_sample_task(task: GroundingTask) -> BatchResult:
    """Run one sampled node in-process: the fresh round suffix, then fold."""
    spec = task.sample_spec
    start = spec.prior.rounds if spec.prior else 0
    totals, evaluations = run_rounds(
        task.database, task.query, spec.seed, start, spec.fresh_rounds
    )
    return assemble_sample_result(task, totals, evaluations)


class SerialExecutor:
    """Run every plan node in-process — the default backend.

    Grounding tasks execute in plan order; bundle nodes are not
    pre-materialized but satisfied lazily by each task's recursion
    through the shared cache, which reproduces the pre-split engine's
    behavior (and its cache hit/miss accounting) exactly.
    """

    jobs = 1

    def execute(
        self, plan: Plan, cache: BundleCache
    ) -> tuple[dict[tuple, BatchResult], Counters]:
        stats = Counters(*EXECUTOR_COUNTERS)
        results: dict[tuple, BatchResult] = {}
        tracer = _tracing.ACTIVE
        for task in plan.tasks:
            with _tracing.maybe_span(
                tracer,
                f"node:{task.method}",
                node=_tracing.label(task.node_id) if tracer is not None else None,
            ):
                results[task.node_id] = execute_grounding_task(task, cache)
            stats.tasks += 1
        return results, stats

    def __repr__(self) -> str:
        return "SerialExecutor()"


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _worker_init() -> None:
    """Start every worker with a clean slate.

    Workers must never reuse (or mutate) an engine inherited from the
    parent: under ``fork`` the process image carries the parent's default
    engine, caches and stats included.  Resetting the singleton makes the
    per-process caches empty and the counters zero, so parent accounting
    is never double-counted.
    """
    from repro.engine.core import reset_default_engine

    reset_default_engine()


def _run_bundle_chunk(
    tasks: list[BundleTask], trace: bool = False
) -> tuple[list[tuple[tuple, object]], dict | None]:
    """Worker payload: a chunk of component bundles, one shared local cache.

    With ``trace`` set, the worker records its own spans (one
    ``node:bundle`` per component, plus whatever the kernels emit) and
    ships them home alongside the results — spans arrive iff results do.
    """
    cache: LRUCache = LRUCache(128)
    tracer = _tracing.Tracer() if trace else None
    out: list[tuple[tuple, object]] = []
    with _tracing.activate(tracer):
        for task in tasks:
            with _tracing.maybe_span(
                tracer,
                "node:bundle",
                node=_tracing.label(task.node_id) if tracer is not None else None,
            ):
                out.append((task.node_id, bundle_for_component(task.scope, cache)))
    return out, (tracer.shipment() if tracer is not None else None)


def _run_grounding_chunk(
    tasks: list[GroundingTask], trace: bool = False
) -> tuple[list[tuple[tuple, BatchResult]], dict | None]:
    """Worker payload: a chunk of self-contained grounding nodes.

    Chunking amortizes the dispatch overhead: each task carries only its
    grounding's relevance slice, so a chunk pickles small.
    """
    cache: LRUCache = LRUCache(64)
    tracer = _tracing.Tracer() if trace else None
    out: list[tuple[tuple, BatchResult]] = []
    with _tracing.activate(tracer):
        for task in tasks:
            with _tracing.maybe_span(
                tracer,
                f"node:{task.method}",
                node=_tracing.label(task.node_id) if tracer is not None else None,
            ):
                out.append((task.node_id, execute_grounding_task(task, cache)))
    return out, (tracer.shipment() if tracer is not None else None)


def _run_sample_chunk(
    task: GroundingTask, start: int, count: int, trace: bool = False
) -> tuple[tuple, dict, int, dict | None]:
    """Worker payload: one contiguous round range of a sampled node.

    Per-round seeding (:func:`repro.shapley.sampling.round_rng`) makes
    the returned integer totals a pure function of ``(seed, start,
    count)``, so the parent can merge ranges in any completion order
    and still match serial execution bit for bit.  A traced worker ships
    only its ``sampler.round`` span — the node-level ``node:sampled``
    span is emitted once by the parent at assembly time.
    """
    tracer = _tracing.Tracer() if trace else None
    with _tracing.activate(tracer):
        totals, evaluations = run_rounds(
            task.database, task.query, task.sample_spec.seed, start, count
        )
    return (
        task.node_id,
        totals,
        evaluations,
        tracer.shipment() if tracer is not None else None,
    )


def _round_ranges(start: int, count: int, jobs: int) -> list[tuple[int, int]]:
    """Split ``count`` rounds from ``start`` into up to ``jobs`` ranges."""
    if count <= 0:
        return []
    size = -(-count // jobs)
    ranges = []
    position = start
    end = start + count
    while position < end:
        step = min(size, end - position)
        ranges.append((position, step))
        position += step
    return ranges


def _merge_shipped_trace(
    tracer: "_tracing.Tracer | None",
    at: float | None,
    shipment: dict | None,
    name: str,
) -> None:
    """Fold one worker shipment under a fresh dispatch span.

    The dispatch span covers the submit-to-merge window; the worker's
    own spans land inside it, on a dedicated lane, re-clocked onto the
    parent tracer (see :meth:`repro.obs.tracing.Tracer.merge_shipment`).
    """
    if tracer is None or at is None or shipment is None:
        return
    end = tracer.now()
    lane = tracer.new_lane()
    dispatch = tracer.add_span(
        name,
        at,
        end,
        parent_id=tracer.current_id,
        lane=lane,
        pid=shipment.get("pid"),
    )
    if dispatch is None:
        return
    tracer.merge_shipment(
        shipment, parent_id=dispatch.span_id, at=at, until=end, lane=lane
    )


def _chunked(items: list, jobs: int) -> list[list]:
    """Split work into at most ``4 * jobs`` chunks (load-balance headroom)."""
    if not items:
        return []
    size = max(1, -(-len(items) // (jobs * 4)))
    return [items[index : index + size] for index in range(0, len(items), size)]


# ----------------------------------------------------------------------
# Shared worker pools
# ----------------------------------------------------------------------
_WORKER_POOLS: dict[tuple[int, str | None], ProcessPoolExecutor] = {}
_FINALIZER_REGISTERED = False


def _ensure_child_importable() -> None:
    """Pin :mod:`repro`'s location into ``PYTHONPATH`` for spawned workers.

    ``spawn`` children re-import everything from scratch; when the parent
    found :mod:`repro` through an in-process ``sys.path`` edit (pytest's
    ``pythonpath`` setting, a REPL ``sys.path.insert``), the children
    would not.  Environment variables do survive the spawn, so the
    package's source root is appended there.
    """
    import repro

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH")
    parts = existing.split(os.pathsep) if existing else []
    if source_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([source_root, *parts])


def _worker_pool(jobs: int, start_method: str | None) -> ProcessPoolExecutor:
    """The shared pool for ``(jobs, start_method)``, created on first use.

    Sharing pools across executors (and across the engines holding them)
    bounds the number of worker processes per configuration and amortizes
    the start-method cost — ``spawn`` workers in particular are expensive
    to boot.  Pools are torn down at interpreter exit.
    """
    import multiprocessing
    import multiprocessing.util

    global _FINALIZER_REGISTERED
    key = (jobs, start_method)
    pool = _WORKER_POOLS.get(key)
    if pool is None:
        context = multiprocessing.get_context(start_method)
        if context.get_start_method() != "fork":
            # fork children inherit sys.path by memory image; only the
            # re-importing start methods need the environment pin.
            _ensure_child_importable()
        if not _FINALIZER_REGISTERED:
            # A ``multiprocessing.Process`` child joins its *non-daemon*
            # children (our pool workers) in ``util._exit_function``
            # BEFORE interpreter atexit runs — an atexit-only shutdown
            # would deadlock such a child, its workers blocked on the
            # call queue forever.  A multiprocessing finalizer runs ahead
            # of that join loop.  It must be registered per process and
            # per fork: ``util._after_fork`` clears the registry.
            multiprocessing.util.Finalize(None, shutdown_worker_pools, exitpriority=100)
            _FINALIZER_REGISTERED = True
        pool = ProcessPoolExecutor(
            max_workers=jobs, mp_context=context, initializer=_worker_init
        )
        _WORKER_POOLS[key] = pool
    return pool


def shutdown_worker_pools() -> None:
    """Shut down every shared worker pool (idempotent; used at exit).

    ``wait=True`` lets the workers consume their exit sentinels before
    anything tries to join them; pending-but-unstarted work is cancelled.
    """
    for pool in list(_WORKER_POOLS.values()):
        pool.shutdown(wait=True, cancel_futures=True)
    _WORKER_POOLS.clear()


def _forget_worker_pools() -> None:
    """Drop pool references in a forked child WITHOUT shutting down.

    The executor objects a child inherits manage threads and processes
    that only exist in the *parent*; using them would hang, shutting them
    down would tear down the parent's workers.  Forgetting them makes the
    child's first sharded execute create its own pool (and re-register
    the per-process exit finalizer above).
    """
    global _FINALIZER_REGISTERED
    _WORKER_POOLS.clear()
    _FINALIZER_REGISTERED = False


atexit.register(shutdown_worker_pools)
if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX everywhere we run
    os.register_at_fork(after_in_child=_forget_worker_pools)


class ShardedExecutor:
    """Shard independent plan nodes across a pool of worker processes.

    Two node families are independent by construction and worth a
    process hop: bundle nodes (per-component count vectors, deduplicated
    across groundings by the planner) and brute-force grounding nodes
    (self-contained coalition enumerations).  Everything else — the
    per-grounding convolution and assembly — runs in the parent against
    the merged pool, where it is a cache-hit-driven epilogue.

    ``jobs`` defaults to the machine's CPU count; ``start_method``
    selects the ``multiprocessing`` context (``None`` = platform
    default, ``"fork"``/``"spawn"``/``"forkserver"`` explicit).  Plans
    with fewer than :attr:`MIN_SHARD_TASKS` shardable nodes run serially —
    shipping one task buys no wall-clock and costs a pickle round trip.
    """

    MIN_SHARD_TASKS = 2

    def __init__(
        self,
        jobs: int | None = None,
        start_method: str | None = None,
    ) -> None:
        import multiprocessing

        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        if start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                # Fail at construction, not deep inside the first _ship.
                raise ValueError(
                    f"unknown start method {start_method!r}"
                    f" (available: {', '.join(available)})"
                )
        self.start_method = start_method

    def __repr__(self) -> str:
        method = self.start_method or "default"
        return f"ShardedExecutor(jobs={self.jobs}, start_method={method!r})"

    def execute(
        self, plan: Plan, cache: BundleCache
    ) -> tuple[dict[tuple, BatchResult], Counters]:
        stats = Counters(*EXECUTOR_COUNTERS)
        results: dict[tuple, BatchResult] = {}
        pending_bundles: list[BundleTask] = []
        remote_tasks: list[GroundingTask] = []
        sample_tasks: list[GroundingTask] = []
        if self.jobs > 1:
            pending_bundles = [
                bundle
                for bundle in plan.bundles.values()
                if cache.peek(bundle.fingerprint) is None
            ]
            remote_tasks = [task for task in plan.tasks if task.method == "brute-force"]
            # A sampled node shards *within itself*: its fresh round
            # range splits into per-worker sub-ranges whose integer
            # totals merge order-independently.
            sample_tasks = [
                task
                for task in plan.tasks
                if task.method == "sampled" and task.sample_spec.fresh_rounds >= 2
            ]
            shardable = (
                len(pending_bundles) + len(remote_tasks) + len(sample_tasks) * self.jobs
            )
            if shardable < self.MIN_SHARD_TASKS:
                pending_bundles, remote_tasks, sample_tasks = [], [], []
        if pending_bundles or remote_tasks or sample_tasks:
            try:
                self._ship(
                    pending_bundles, remote_tasks, sample_tasks, cache, results, stats
                )
            except (BrokenProcessPool, OSError, pickle.PicklingError):
                # Correctness first: whatever did not come back from the
                # workers is recomputed in-process below.  The pool is
                # shut down, not just forgotten — on a non-fatal error
                # (e.g. an unpicklable payload) its workers are still
                # alive and would otherwise leak until interpreter exit.
                failed = _WORKER_POOLS.pop((self.jobs, self.start_method), None)
                if failed is not None:
                    failed.shutdown(wait=False, cancel_futures=True)
                stats.fallbacks += 1
        tracer = _tracing.ACTIVE
        for task in plan.tasks:
            if task.node_id in results:
                continue
            with _tracing.maybe_span(
                tracer,
                f"node:{task.method}",
                node=_tracing.label(task.node_id) if tracer is not None else None,
            ):
                results[task.node_id] = execute_grounding_task(task, cache)
            stats.tasks += 1
        return results, stats

    def _ship(
        self,
        bundles: list[BundleTask],
        tasks: list[GroundingTask],
        sample_tasks: list[GroundingTask],
        cache: BundleCache,
        results: dict[tuple, BatchResult],
        stats: Counters,
    ) -> None:
        """Submit shardable nodes, merge what comes back.

        Bundle results merge into the caller's cache (``seed`` — no
        hit/miss noise), grounding results go straight into the result
        map, and sampled nodes' per-range totals accumulate until every
        range of a node has arrived, at which point the node's result is
        assembled in the parent (nodes missing a range fall back to the
        serial path).  Completion order is irrelevant: nodes are keyed
        by fingerprint ids and the exact integer/Fraction arithmetic
        makes merged results identical to in-process ones.
        """
        from dataclasses import replace

        tracer = _tracing.ACTIVE
        trace = tracer is not None
        pool = _worker_pool(self.jobs, self.start_method)
        futures = {}
        submits: dict[object, float] = {}

        def _submit(payload, kind, *args):
            future = pool.submit(payload, *args, trace)
            futures[future] = kind
            if trace:
                submits[future] = tracer.now()

        for chunk in _chunked(bundles, self.jobs):
            _submit(_run_bundle_chunk, "bundle", chunk)
        for chunk in _chunked(tasks, self.jobs):
            _submit(_run_grounding_chunk, "task", chunk)
        sample_by_node: dict[tuple, GroundingTask] = {}
        expected: dict[tuple, int] = {}
        partials: dict[tuple, list[tuple[dict, int]]] = {}
        for task in sample_tasks:
            spec = task.sample_spec
            start = spec.prior.rounds if spec.prior else 0
            ranges = _round_ranges(start, spec.fresh_rounds, self.jobs)
            sample_by_node[task.node_id] = task
            expected[task.node_id] = len(ranges)
            partials[task.node_id] = []
            # Ship without the prior state: workers only run the fresh
            # range, the parent folds the prior back in on assembly.
            shippable = replace(task, sample_spec=replace(spec, prior=None))
            for range_start, count in ranges:
                _submit(_run_sample_chunk, "sample", shippable, range_start, count)
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        try:
            for future in done:
                kind = futures[future]
                if kind == "sample":
                    node_id, totals, evaluations, shipment = future.result()
                    partials[node_id].append((totals, evaluations))
                    stats.shipped += 1
                else:
                    pairs, shipment = future.result()
                    for node_id, value in pairs:
                        if kind == "bundle":
                            cache.seed(node_id[1], value)
                            stats.bundle_tasks += 1
                        else:
                            results[node_id] = value
                            stats.tasks += 1
                        stats.shipped += 1
                _merge_shipped_trace(
                    tracer, submits.get(future), shipment, f"shard:{kind}"
                )
            for node_id, parts in partials.items():
                if len(parts) != expected[node_id]:
                    continue
                with _tracing.maybe_span(
                    tracer,
                    "node:sampled",
                    node=_tracing.label(node_id) if tracer is not None else None,
                    ranges=len(parts),
                ):
                    totals = merge_totals({}, *(part[0] for part in parts))
                    evaluations = sum(part[1] for part in parts)
                    results[node_id] = assemble_sample_result(
                        sample_by_node[node_id], totals, evaluations
                    )
                stats.tasks += 1
        finally:
            for future in not_done:
                future.cancel()


__all__ = [
    "EXECUTOR_COUNTERS",
    "Executor",
    "SerialExecutor",
    "ShardedExecutor",
    "assemble_sample_result",
    "execute_grounding_task",
    "execute_sample_task",
    "shutdown_worker_pools",
]
