"""The batch attribution engine: plan, execute, store.

:class:`BatchAttributionEngine` is the front door for all-facts
attribution.  Since the plan/execute split it is a thin orchestrator over
three interchangeable layers:

1. the **planner** (:mod:`repro.engine.plan`) turns a request into an
   explicit DAG of fingerprint-keyed work units — method dispatch
   (CntSat / ExoShap / brute force, Theorems 3.1 and 4.3) happens at
   plan time, as does pruning of nodes the result store already holds
   and up-front validation of intractable requests;
2. an **executor** (:mod:`repro.engine.executors`) runs the plan's
   nodes — :class:`repro.engine.executors.SerialExecutor` in-process
   (the default, today's semantics) or
   :class:`repro.engine.executors.ShardedExecutor` across worker
   processes, merging count vectors back through the bundle pool;
3. a **result store** (:mod:`repro.engine.stores`) keeps finished
   results — one :class:`repro.engine.stores.TieredResultStore`: the
   in-memory LRU in front of the optional durable SQLite store
   (:mod:`repro.engine.sqlite_store`), with read-through promotion.

Shapley and Banzhaf values fall out of the same per-fact count vectors,
so the engine always materializes both.  ``stats`` exposes per-layer
accounting (planner prunes, store hits, executor tasks) alongside the
per-cache counters.

Engines are cheap to construct; share one instance (see
:func:`default_engine`) to share the caches.  A constructor picks only
the backend (``executor``/``jobs``) and the durable tier (``shared``):
the LRU sizes are the module constants below, and tracing is chosen
per call (``trace=``).
The environment variables ``REPRO_JOBS`` and ``REPRO_START_METHOD``
select the default executor backend when none is passed explicitly
(``REPRO_JOBS=2`` makes every engine shard across two worker
processes), which is how the CI matrix runs the whole engine suite
under a sharded backend.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction
from typing import AbstractSet, Iterable

from repro.core.database import Database
from repro.core.facts import Constant, Fact
from repro.core.query import BooleanQuery, ConjunctiveQuery
from repro.engine.bundles import BundleCache
from repro.engine.cache import BundlePool, LRUCache
from repro.engine.delta import DELTA_COUNTERS
from repro.engine.executors import (
    EXECUTOR_COUNTERS,
    SerialExecutor,
    ShardedExecutor,
)
from repro.engine.fingerprint import database_digest, fingerprint_database
from repro.engine.plan import (
    PLAN_COUNTERS,
    SAMPLE_COUNTERS,
    Plan,
    PlanRequest,
    build_plan,
)
from repro.engine.policy import MethodPolicy, resolve_policy
from repro.engine.results import (
    AnswerBatchResult,
    BatchResult,
    fact_positions,
    project_result,
    publish_result,
    rename_result,
)
from repro.engine.sqlite_store import SQLiteResultStore
from repro.engine.stores import TieredResultStore
from repro.obs import tracing as _tracing
from repro.obs.counters import Counters
from repro.util import kernels


def environment_problems() -> list[str]:
    """Human-readable problems with the engine's environment variables.

    The engine itself stays lenient (:func:`_executor_from_environment`
    silently degrades to the serial backend, so library imports never
    break), but front ends that a human drives — the CLI, the daemon —
    call this first and turn each problem into a clear one-line error
    instead of silently losing the parallelism the user asked for.
    """
    problems: list[str] = []
    raw_jobs = os.environ.get("REPRO_JOBS")
    if raw_jobs:
        try:
            jobs = int(raw_jobs)
        except ValueError:
            problems.append(
                f"REPRO_JOBS={raw_jobs!r} is not an integer"
                " (expected a worker count, e.g. REPRO_JOBS=2)"
            )
        else:
            if jobs < 1:
                problems.append(
                    f"REPRO_JOBS={raw_jobs!r} must be a positive integer"
                    " (1 means serial execution)"
                )
    raw_method = os.environ.get("REPRO_START_METHOD")
    if raw_method:
        import multiprocessing

        known = multiprocessing.get_all_start_methods()
        if raw_method not in known:
            problems.append(
                f"REPRO_START_METHOD={raw_method!r} is not a multiprocessing"
                f" start method (expected one of: {', '.join(known)})"
            )
    return problems


def _executor_from_environment() -> ShardedExecutor:
    """The executor selected by ``REPRO_JOBS`` / ``REPRO_START_METHOD``.

    Any :func:`environment_problems`, or an unset or ``<= 1`` job count,
    means the serial backend — the environment can only ever *add*
    parallelism, never break an engine construction.
    """
    if environment_problems():
        return SerialExecutor()
    jobs = int(os.environ.get("REPRO_JOBS") or 1)
    if jobs <= 1:
        return SerialExecutor()
    return ShardedExecutor(
        jobs=jobs, start_method=os.environ.get("REPRO_START_METHOD") or None
    )


def version_positions(database: Database) -> dict[Fact, int]:
    """Every endogenous fact of ``D`` mapped to its position, sorted by ``repr``.

    Read from the endogenous half of :func:`fingerprint_database`.  Used
    as ``database.derived(version_positions)``, it is built once per
    database version, shared by every request against the version and
    never mutated.  Every published result is a view over it
    (:func:`repro.engine.results.publish_result`): a fact missing from a
    result's slice reads as zero, which is how every public mapping
    covers all of ``D.endogenous`` in the canonical order.  The client
    reads sparse results against the same positions of the versions it
    holds.
    """
    return fact_positions(fingerprint_database(database)[0])


class _RequestScope:
    """What one public engine call threads through its request window."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "_tracing.Tracer | None", span) -> None:
        self.tracer = tracer
        self.span = span


#: Entries of the engine's component-bundle LRU and result LRU.
COMPONENT_CACHE_SIZE = 512
RESULT_CACHE_SIZE = 128


class BatchAttributionEngine:
    """Computes Shapley/Banzhaf values for all endogenous facts at once.

    Instances hold two bounded LRU caches: a *result* cache
    (:data:`RESULT_CACHE_SIZE` entries) keyed on the whole ``(database,
    query, X, grounding)`` request — the memory tier of the engine's
    :class:`repro.engine.stores.TieredResultStore` — and a *component*
    cache (:data:`COMPONENT_CACHE_SIZE` entries) keyed on ``(component
    fingerprint, scoped facts)`` that lets overlapping requests share
    per-component count bundles.

    ``executor`` picks the backend (default: serial, or whatever
    ``REPRO_JOBS`` says); ``jobs`` is a convenience shortcut for
    ``executor=ShardedExecutor(jobs=...)``.  ``shared`` is the durable
    tier, a :class:`repro.engine.sqlite_store.SQLiteResultStore` behind
    the in-memory LRU.  One process with a store is a fleet of one: N
    daemons pointed at the same file serve each other's warm results,
    and retirement propagates fleet-wide.
    """

    def __init__(
        self,
        executor: ShardedExecutor | None = None,
        jobs: int | None = None,
        shared: SQLiteResultStore | None = None,
    ) -> None:
        self.component_cache: LRUCache = LRUCache(COMPONENT_CACHE_SIZE)
        self.result_cache: LRUCache = LRUCache(RESULT_CACHE_SIZE)
        self.shared = shared
        self.store = TieredResultStore(self.result_cache, shared)
        if jobs is not None and jobs < 1:
            # Same contract as ShardedExecutor: reject broken job counts
            # loudly instead of silently degrading to serial.
            raise ValueError(f"jobs must be positive, got {jobs}")
        if executor is None:
            if jobs is not None:
                # An explicit job count always wins over the environment:
                # jobs=1 must mean serial even under REPRO_JOBS=2.
                executor = ShardedExecutor(jobs=jobs) if jobs > 1 else SerialExecutor()
            else:
                executor = _executor_from_environment()
        self.executor = executor
        #: The finished trace document of the last engine-traced request
        #: (left alone when the caller supplied its own tracer).
        self.last_trace: dict | None = None
        #: Engine-scoped kernel accounting: the sum of per-request
        #: deltas, vs the process-wide totals of
        #: :func:`repro.util.kernels.kernel_stats`.
        self.kernel_stats = Counters(*kernels.KERNEL_COUNTERS)
        self.planner_stats = Counters(*PLAN_COUNTERS)
        self.executor_stats = Counters(*EXECUTOR_COUNTERS)
        self.executor_stats.processes = self.executor.jobs
        self.delta_stats = Counters(*DELTA_COUNTERS)
        self.sample_stats = Counters(*SAMPLE_COUNTERS)
        # Distinct database fingerprints served, for version accounting.
        # Bounded: past the cap new versions stop being *counted* as new,
        # which only ever under-reports versions_seen.  The last one
        # seen is kept to skip re-hashing it on repeated requests.
        self._versions: set[tuple] = set()
        self._versions_cap = 1024
        self._last_version: tuple | None = None

    # ------------------------------------------------------------------
    # Per-request scoping (tracing + kernel counter deltas)
    # ------------------------------------------------------------------
    def _resolve_tracer(
        self, trace: "bool | _tracing.Tracer | None"
    ) -> tuple["_tracing.Tracer | None", bool]:
        """The request's tracer, and whether the engine owns documenting it.

        ``None`` or ``False`` means untraced; ``True`` builds a fresh
        tracer whose finished document lands in :attr:`last_trace`; a
        :class:`repro.obs.tracing.Tracer` instance (the daemon's) is used
        as-is — its owner documents it, so engine spans nest under
        whatever the owner already opened.
        """
        if trace is None or trace is False:
            return None, False
        if trace is True:
            return _tracing.Tracer(), True
        return trace, False

    @contextmanager
    def _request_scope(
        self, trace: "bool | _tracing.Tracer | None", kind: str
    ):
        """One request's accounting window: ``request`` span + kernel delta.

        The window spans planning and execution; when it closes, the
        process-wide kernel counter delta is folded into the
        engine-scoped :attr:`kernel_stats` aggregate.  Under a sharded
        executor the delta covers parent-side work only — workers count
        into their own process-local totals.
        """
        tracer, owned = self._resolve_tracer(trace)
        before = kernels.kernel_stats().snapshot()
        try:
            with _tracing.activate(tracer):
                with _tracing.maybe_span(tracer, "request", kind=kind) as span:
                    yield _RequestScope(tracer, span)
        finally:
            self.kernel_stats.merge(kernels.kernel_stats().delta(before))
            if owned:
                self.last_trace = tracer.document()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def batch(
        self,
        database: Database,
        query: BooleanQuery,
        *,
        exogenous_relations: AbstractSet[str] | None = None,
        policy: MethodPolicy | str | None = None,
        grounding: tuple[Constant, ...] | None = None,
        trace: "bool | _tracing.Tracer | None" = None,
    ) -> BatchResult:
        """Shapley and Banzhaf values of every endogenous fact of ``D``.

        One plan with a single grounding request: the planner consults
        the result store (a satisfied plan executes nothing), the
        executor runs whatever remains, and the fresh result is written
        back through the store.  All options are keyword-only.

        ``policy`` selects the method and — for sampled answers — the
        ``(epsilon, delta)`` accuracy contract (a bare method name such
        as ``"sampled"`` is accepted); the default ``auto`` policy
        serves every request: exact algorithms where the dichotomy
        allows, the Section 5 additive FPRAS beyond them.  A sampled
        result carries its accuracy metadata in ``result.estimate`` and
        an empty Banzhaf mapping.

        ``grounding`` carries the head constants when ``query`` is the
        grounding ``q_t`` of a non-Boolean query at answer ``t``; it is
        part of the request fingerprint, so distinct answers can never
        collide even when their grounded atom sets coincide.

        ``trace`` opts this request into span tracing: ``True`` records
        a fresh trace into :attr:`last_trace`, a
        :class:`repro.obs.tracing.Tracer` instance nests the request's
        spans under the caller's, ``None`` (the default) traces nothing.
        """
        method_policy = resolve_policy(policy)
        with self._request_scope(trace, "batch") as scope:
            self._note_version(database)
            plan = build_plan(
                database,
                [PlanRequest(query, grounding)],
                exogenous_relations=exogenous_relations,
                policy=method_policy,
                store=self.store,
                include_bundles=self.executor.jobs > 1,
                bundle_cache=self.component_cache,
            )
            self._note_plan(plan)
            planned = plan.requests[0]
            if scope.tracer is not None:
                scope.span.set("fingerprint", _tracing.label(planned.key))
            positions = database.derived(version_positions)
            if planned.node_id is None:
                scope.span.set("pruned", True)
                return self._finish(
                    plan.satisfied[planned.key], positions, from_cache=True
                )
            results = self._execute(plan, self.component_cache, database)
            return self._finish(results[planned.node_id], positions, from_cache=False)

    def batch_answers(
        self,
        database: Database,
        query: ConjunctiveQuery,
        answers: Iterable[tuple[Constant, ...]] | None = None,
        *,
        exogenous_relations: AbstractSet[str] | None = None,
        policy: MethodPolicy | str | None = None,
        trace: "bool | _tracing.Tracer | None" = None,
    ) -> AnswerBatchResult:
        """One plan covering every grounding ``q_t`` of a non-Boolean query.

        ``answers`` defaults to every candidate answer of ``query``
        (tuples reachable under *some* endogenous subset); the remaining
        options are keyword-only, with ``policy`` carrying the
        method/accuracy request shape exactly as in :meth:`batch`.  The
        planner emits one exact grounding task per isomorphism class of
        answers: groundings whose relevance slices and grounded queries
        are equal up to renaming constants have equal values by the
        symmetry axiom, so each other member's result is the
        representative's, renamed, and is stored under its own key as
        if it had run.  Sampled groundings each run their own stream.
        The planner also deduplicates the tasks' top-level component
        nodes — the DAG form of "untouched components are computed once
        and reused by every answer" — and all groundings share one
        cross-grounding :class:`BundlePool` at execution time, on top
        of the with/without sharing inside each batch.
        """
        from repro.shapley.aggregates import candidate_answers
        from repro.shapley.answers import ground_at_answer, head_assignment

        method_policy = resolve_policy(policy)
        if query.is_boolean:
            raise ValueError("batch_answers needs a query with head variables")
        with self._request_scope(trace, "batch_answers") as scope:
            if answers is None:
                answers = candidate_answers(database, query)
            requests = []
            for answer in sorted(answers, key=repr):
                answer = tuple(answer)
                if head_assignment(query, answer) is None:
                    # A tuple conflicting with a repeated head variable is
                    # never an answer: q_t is identically false and every
                    # fact's value vanishes.
                    requests.append(PlanRequest(None, answer, inconsistent=True))
                else:
                    requests.append(
                        PlanRequest(ground_at_answer(query, answer), answer)
                    )
            scope.span.set("answers", len(requests))
            self._note_version(database)
            plan = build_plan(
                database,
                requests,
                exogenous_relations=exogenous_relations,
                policy=method_policy,
                store=self.store,
                include_bundles=self.executor.jobs > 1,
                bundle_cache=self.component_cache,
            )
            self._note_plan(plan)
            pool = BundlePool(self.component_cache)
            results = self._execute(plan, pool, database)
            positions = database.derived(version_positions)
            per_answer: dict[tuple[Constant, ...], BatchResult] = {}
            for planned in plan.requests:
                if planned.node_id is None:
                    result, cached = plan.satisfied[planned.key], True
                elif planned.renaming is not None:
                    result, cached = results[planned.key], False
                else:
                    result, cached = results[planned.node_id], False
                per_answer[planned.request.grounding] = self._finish(
                    result, positions, from_cache=cached
                )
            return AnswerBatchResult(per_answer, pool.stats.snapshot())

    def _note_version(self, database: Database) -> None:
        """Count distinct database fingerprints for the delta accounting."""
        version = fingerprint_database(database)
        if version is self._last_version:
            # The same derived fingerprint object: already counted.
            return
        self._last_version = version
        if version not in self._versions and len(self._versions) < self._versions_cap:
            self._versions.add(version)
            self.delta_stats.versions_seen += 1

    def _note_plan(self, plan: Plan) -> None:
        """Fold one plan's accounting into the engine-level counters."""
        self.planner_stats.merge(plan.stats)
        self.sample_stats.merge(plan.sample)

    def _execute(
        self, plan: Plan, cache: BundleCache, database: Database
    ) -> dict[tuple, BatchResult]:
        """Run a plan's tasks and write fresh results back to the store.

        Fresh results cover their task's relevance slice (the task's
        database) and are stored in that form, under the relevance-scoped
        key — the form every database version can inflate back from
        (:func:`repro.engine.results.project_result`).  Results come back
        keyed by node id, and each alias's under its own request key: its
        representative's stored result renamed onto the alias's facts
        (:func:`repro.engine.results.rename_result`), and stored under
        that key like any executed result.  ``cache`` serves
        the tasks' component bundles.  When a durable store is attached,
        entries are tagged with the digest of the ``database`` version
        that wrote them so superseded versions can be retired (evicted
        first) later.
        """
        if self.shared is not None:
            self.shared.writer_version = database_digest(database)
        before = cache.stats.snapshot()
        with _tracing.maybe_span(
            _tracing.ACTIVE,
            "execute",
            tasks=len(plan.tasks),
            bundles=len(plan.bundles),
        ) as span:
            results, stats = self.executor.execute(plan, cache)
            span.set("shipped", stats.shipped)
            span.set("fallbacks", stats.fallbacks)
        self.executor_stats.merge(stats)
        lookups = cache.stats.delta(before)
        self.delta_stats.components_reused += lookups.hits
        self.delta_stats.components_dirty += lookups.misses + stats.bundle_tasks
        stored: dict[tuple, BatchResult] = {}
        for task in plan.tasks:
            if task.sample_spec is not None:
                state = results[task.node_id].sample_state
                if state is not None:
                    prior = task.sample_spec.prior
                    self.sample_stats.fresh_rounds += state.rounds - (
                        prior.rounds if prior else 0
                    )
                    self.sample_stats.evaluations += state.evaluations - (
                        prior.evaluations if prior else 0
                    )
                    # The resumable sampler state, under its
                    # policy-independent key: any future contract over
                    # this request refines from here.
                    self.store.put(task.sample_spec.state_key, state)
            if task.key is not None:
                stored[task.node_id] = project_result(
                    results[task.node_id], task.database.endogenous
                )
                self.store.put(task.key, stored[task.node_id])
        for planned in plan.requests:
            if planned.renaming is not None and planned.key not in results:
                results[planned.key] = rename_result(
                    stored[planned.node_id], planned.renaming
                )
                self.store.put(planned.key, results[planned.key])
        return results

    def _finish(
        self, result: BatchResult, positions: dict[Fact, int], from_cache: bool
    ) -> BatchResult:
        """Publish a slice-scoped result over the whole database.

        Every result inside the engine — executed or store-served, exact
        or sampled — covers only its request's relevance slice.  Here,
        once, it is published as read-only views over ``D``'s endogenous
        facts (``positions``, see :func:`version_positions`): the rest of them
        read as zero (null players have exactly zero Shapley and Banzhaf
        values) and are counted in ``delta.facts_zero_filled``.  Views
        iterate in the canonical ``repr`` order on every path and cannot
        be mutated, so no caller can corrupt the store; the
        transport-only sampler state is stripped — callers resume
        through the store, not through result objects.
        """
        self.delta_stats.facts_zero_filled += len(positions) - len(result.shapley)
        return publish_result(result, positions, from_cache)

    def shapley_all(
        self,
        database: Database,
        query: BooleanQuery,
        exogenous_relations: AbstractSet[str] | None = None,
        *,
        policy: MethodPolicy | str | None = None,
    ) -> dict[Fact, "Fraction"]:
        return dict(
            self.batch(
                database,
                query,
                exogenous_relations=exogenous_relations,
                policy=policy,
            ).shapley
        )

    def banzhaf_all(
        self,
        database: Database,
        query: BooleanQuery,
        exogenous_relations: AbstractSet[str] | None = None,
        *,
        policy: MethodPolicy | str | None = None,
    ) -> dict[Fact, "Fraction"]:
        return dict(
            self.batch(
                database,
                query,
                exogenous_relations=exogenous_relations,
                policy=policy,
            ).banzhaf
        )

    def refine(
        self,
        database: Database,
        query: BooleanQuery,
        *,
        exogenous_relations: AbstractSet[str] | None = None,
        grounding: tuple[Constant, ...] | None = None,
        epsilon: float | None = None,
        delta: float | None = None,
        trace: "bool | _tracing.Tracer | None" = None,
    ) -> BatchResult:
        """Tighten a sampled request's bound from its stored state.

        Resumes the request's permutation stream where the stored
        :class:`repro.shapley.sampling.SampleState` left off and runs
        only the rounds the new contract still needs — never restarting.
        ``delta`` defaults to ``DEFAULT_DELTA``, not to the stored
        request's δ (a ``SampleState`` records none); ``epsilon`` to
        half the bound the stored rounds reach at that ``delta`` (4x the
        rounds: the Hoeffding count is quadratic in ``1/epsilon``).
        Without any stored state this is simply a fresh sampled batch
        under the (given or default) contract.
        """
        from repro.engine.fingerprint import (
            fingerprint_request,
            fingerprint_sample_state,
        )
        from repro.engine.policy import DEFAULT_DELTA, DEFAULT_EPSILON
        from repro.shapley.sampling import SampleState, achieved_epsilon

        confidence = DEFAULT_DELTA if delta is None else float(delta)
        target = epsilon
        if target is None:
            base_key = fingerprint_request(
                database, query, exogenous_relations, grounding
            )
            state = self.store.get(fingerprint_sample_state(base_key))
            if isinstance(state, SampleState) and state.rounds >= 1:
                target = achieved_epsilon(4 * state.rounds, confidence)
            else:
                target = DEFAULT_EPSILON
            target = min(max(target, 1e-9), 0.999)
        return self.batch(
            database,
            query,
            exogenous_relations=exogenous_relations,
            grounding=grounding,
            policy=MethodPolicy("sampled", epsilon=target, delta=confidence),
            trace=trace,
        )

    def counters(self) -> dict[str, int]:
        """A flat, JSON-ready snapshot of every stats counter.

        Keys are ``layer.field`` (``store.hits``, ``planner.pruned``,
        ``executor.shipped``, ...).  Serving layers subtract two
        snapshots to report per-request accounting — e.g. "this request
        executed zero new tasks" — without reaching into the layers.
        """
        return {
            f"{layer}.{name}": value
            for layer, counters in self._layers().items()
            for name, value in vars(counters).items()
        }

    @property
    def stats(self) -> dict[str, Counters]:
        """Per-layer accounting snapshot.

        ``components`` and ``results`` are the two LRU caches and
        ``shared`` the durable tier (when attached); ``planner``,
        ``store`` and ``executor`` report the plan/execute layers: how
        many plan nodes were pruned against how many planned, whether
        *any* store tier held a result, and where the executed tasks
        actually ran.
        """
        return {
            layer: counters.snapshot() for layer, counters in self._layers().items()
        }

    def _layers(self) -> dict[str, Counters]:
        """The live counters of every layer, in :attr:`stats` order."""
        counters: dict[str, Counters] = {
            "components": self.component_cache.stats,
            "results": self.result_cache.stats,
        }
        if self.shared is not None:
            counters["shared"] = self.shared.stats
        counters["store"] = self.store.stats
        counters["planner"] = self.planner_stats
        counters["executor"] = self.executor_stats
        counters["delta"] = self.delta_stats
        counters["sampler"] = self.sample_stats
        # Engine-scoped: the sum of this engine's per-request deltas, not
        # the process-wide totals of ``kernels.kernel_stats()``.
        counters["kernel"] = self.kernel_stats
        return counters

    def retire_version(self, database: Database) -> int:
        """Mark a superseded database version's durable entries stale.

        Called by the serving layer when ``database`` is replaced by a
        successor (``db_update``): entries the version wrote are
        back-dated so bounded-store eviction takes them first.  Entries
        still valid across the delta re-earn their stamp on their next
        hit; live-version hot entries are never pushed out by stale
        ones.  The durable store may be shared by a fleet, so one
        daemon's retirement reaches every sibling.  Returns the number
        of entries retired (0 without a durable store).
        """
        if self.shared is None:
            return 0
        return self.shared.retire(database_digest(database))

    def clear(self) -> None:
        """Drop all cached entries (statistics are kept).

        Clears the component cache and the result LRU — the store's
        memory tier.  The durable tier survives so other processes keep
        their warm entries.
        """
        self.component_cache.clear()
        self.result_cache.clear()


_default: BatchAttributionEngine | None = None


def default_engine() -> BatchAttributionEngine:
    """The process-wide shared engine (shared caches across call sites)."""
    global _default
    if _default is None:
        _default = BatchAttributionEngine()
    return _default


def reset_default_engine() -> None:
    """Forget the process-wide engine; the next call builds a fresh one.

    Registered as an ``os.register_at_fork`` child hook, so a forked
    process — a ``multiprocessing`` worker, a daemonized server child —
    starts with empty per-process caches and zeroed stats instead of
    mutating (and double-counting) the engine state inherited from its
    parent.  ``spawn`` children get this for free by re-importing.
    """
    global _default
    _default = None


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX everywhere we run
    os.register_at_fork(after_in_child=reset_default_engine)
