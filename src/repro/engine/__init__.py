"""repro.engine — shared-work batch attribution, split into plan / execute / store.

The seed pipeline answered "what is the Shapley value of *every* fact?"
with ``m`` independent runs of the Lemma 3.2 counts reduction — two full
CntSat recursions per fact.  This package answers it with **one** shared
recursion plus closed-form convolution algebra, organized as three
pluggable layers behind one engine front door.

Architecture (plan/execute engine, PR 3)
----------------------------------------
::

    request ──► planner ──► Plan (DAG) ──► executor ──► results ──► store
                 │                           │                        │
                 │ method dispatch           │ ShardedExecutor        │ TieredResultStore:
                 │ fingerprint node ids      │   (ProcessPool,        │   result LRU
                 │ store pruning             │    BundlePool merge)   │   → SQLiteResultStore
                 │ up-front validation       │ SerialExecutor: jobs=1 │     (optional, durable)

* The **planner** (:mod:`repro.engine.plan`) turns a ``(database, query,
  groundings)`` request into an explicit DAG: one grounding task per
  answer (method dispatch — CntSat, one ExoShap rewrite, validated brute
  force — happens here) over per-component bundle tasks that are
  deduplicated across groundings by canonical fingerprint.  Nodes whose
  request key the result store already holds are pruned before any
  execution; intractable requests fail at plan time.
* **Executors** (:mod:`repro.engine.executors`) run the plan.
  :class:`ShardedExecutor` ships independent bundle and brute-force
  nodes to a ``ProcessPoolExecutor`` (``--jobs N`` on the CLI,
  ``REPRO_JOBS``/``REPRO_START_METHOD`` in the environment) and merges
  the count vectors back through the :class:`BundlePool` — exact integer
  arithmetic makes sharded results bit-identical to serial ones.
  :class:`SerialExecutor` (the default) is the same executor at
  ``jobs=1``: every node runs in-process.
* The **result store** (:mod:`repro.engine.stores`) decides whether a
  node needed computing at all: one :class:`TieredResultStore` puts the
  in-memory result LRU in front of the optional durable
  :class:`SQLiteResultStore` (one file, shared by any number of
  processes, optionally bounded via ``max_entries``/``max_bytes`` LRU
  eviction), with read-through promotion.
* The engine is **delta-aware** (:mod:`repro.engine.delta`,
  PR 5): store keys cover only a request's query-relevant facts, so a
  fact insertion/deletion/flip (:class:`DatabaseDelta`,
  :func:`database_delta`/:func:`apply_delta`) invalidates exactly the
  requests and Gaifman components it touches — everything else is
  served across database versions, bit-identically, with the engine's
  ``stats["delta"]`` reporting versions seen, null players zero-filled,
  and components reused vs recomputed.
* The engine has an **approximation tier** (:mod:`repro.engine.policy`,
  :mod:`repro.shapley.sampling`, PR 6): every front door takes one
  :class:`MethodPolicy` (``auto``/``exact``/``brute-force``/``sampled``
  plus an ``(epsilon, delta)`` accuracy contract), and ``auto`` serves
  the intractable class — non-hierarchical queries too large for brute
  force — as Hoeffding-bounded Shapley estimates instead of raising.
  Sampled results carry an :class:`AttributionEstimate` and leave a
  resumable :class:`~repro.shapley.sampling.SampleState` in the store,
  so :meth:`BatchAttributionEngine.refine` (and the daemon's ``refine``
  op) tightens the bound by extending the same deterministic
  permutation stream — never recomputing a completed round, across
  processes, restarts, and irrelevant database deltas.

The component-convolution trick
-------------------------------
For a self-join-free query, the variable-connected components of the
Gaifman graph touch disjoint relations and therefore own disjoint sets of
database facts.  The query is the conjunction of its components, so the
count vector ``c[k] = |Sat(D, q, k)|`` factorizes as the convolution
(polynomial product) of per-component count vectors; one level down,
CntSat slices a component by its root variable's value and UNSAT
vectors convolve (disjunction).  Perturbing one fact ``f`` — deleting it
for ``Sat^{-f}``, or moving it to the exogenous side for ``Sat^{+f}``,
which the partition identity ``Sat(k+1) = Sat^{+f}(k) + Sat^{-f}(k+1)``
derives from the baseline — only changes the factor of the component
and slice that own ``f``.  Both measures are linear functionals of
``Sat^{-f}``, and every recursion step is affine in the owning child's
vector, so the engine runs the recursion **forward once** for the
baseline vectors, recording each step on a tape, and then pulls the
measures' weight vectors **backward once** down the tape (correlation is
the adjoint of convolution).  Every fact's Shapley and Banzhaf numerator
falls out as a dot product with its ground-level deletion vector: ``2m``
full recursions become one traversal in each direction, with no
length-``n`` vector built per fact (``benchmarks/bench_engine.py`` and
the ``exact-cold`` workload of ``perfbench/`` measure it).  It is also
what makes the DAG shard well: components are independent work units by
construction (``benchmarks/bench_parallel.py`` measures the scaling).

On top of the shared recursion the engine keeps: the bounded LRU
**component-bundle cache** keyed on canonical fingerprints
(:mod:`repro.engine.cache`, :mod:`repro.engine.fingerprint`); **answer
batches** (:meth:`BatchAttributionEngine.batch_answers`) whose groundings
share Gaifman-component bundles through a call-scoped
:class:`BundlePool`; and grounding-aware request fingerprints so distinct
answers ``q_t``, ``q_t'`` never collide in any store.

Usage::

    from repro.engine import default_engine, ShardedExecutor
    from repro.engine import BatchAttributionEngine

    result = default_engine().batch(database, query)
    result.shapley[some_fact]   # exact Fraction
    result.banzhaf[some_fact]   # same vectors, different weights

    engine = BatchAttributionEngine(jobs=4)          # sharded backend
    engine.batch_answers(database, non_boolean_query)
    engine.stats                # per-layer accounting:
    #   components/results/shared (caches),
    #   planner (pruned vs planned), store (any-tier hits),
    #   executor (tasks, shipped, fallbacks)

or, from the CLI::

    python -m repro batch db.json "q() :- Stud(x), not TA(x), Reg(x, y)"
    python -m repro answers db.json "ans(x) :- Stud(x), Reg(x, y)" --jobs 4

Fork/spawn safety: worker and daemon children must not inherit the
parent's default engine — :func:`reset_default_engine` is registered as
an ``os.register_at_fork`` hook, so forked children lazily rebuild a
fresh engine with empty caches and zeroed stats.
"""

from repro.engine.bundles import (
    BatchVectors,
    CountBundle,
    batch_count_vectors,
    bundle_for_component,
    top_level_components,
)
from repro.engine.cache import BundlePool, LRUCache
from repro.engine.core import (
    BatchAttributionEngine,
    default_engine,
    environment_problems,
    reset_default_engine,
    version_positions,
)
from repro.engine.delta import (
    DatabaseDelta,
    apply_delta,
    database_delta,
    delta_from_dict,
    delta_to_dict,
    delta_touches_query,
    dirty_components,
)
from repro.engine.executors import (
    SerialExecutor,
    ShardedExecutor,
    execute_grounding_task,
)
from repro.engine.fingerprint import (
    FactIndex,
    digest_key,
    fingerprint_component,
    fingerprint_database,
    fingerprint_grounding,
    fingerprint_query,
    fingerprint_request,
    fingerprint_sample_state,
    fingerprint_sampled,
    relevant_facts,
)
from repro.engine.sqlite_store import SQLiteResultStore
from repro.engine.plan import (
    BundleTask,
    GroundingTask,
    Plan,
    PlanRequest,
    SampleSpec,
    build_plan,
)
from repro.engine.policy import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    METHODS,
    MethodPolicy,
    resolve_policy,
)
from repro.engine.results import (
    AnswerBatchResult,
    AttributionEstimate,
    AttributionView,
    BatchResult,
    fact_numerators,
    project_result,
    publish_result,
    result_from_state,
    result_from_vectors,
)
from repro.engine.stores import StoredValue, TieredResultStore

__all__ = [
    "AnswerBatchResult",
    "AttributionEstimate",
    "AttributionView",
    "BatchAttributionEngine",
    "BatchResult",
    "BatchVectors",
    "BundlePool",
    "BundleTask",
    "CountBundle",
    "DEFAULT_DELTA",
    "DEFAULT_EPSILON",
    "DatabaseDelta",
    "FactIndex",
    "GroundingTask",
    "LRUCache",
    "METHODS",
    "MethodPolicy",
    "Plan",
    "PlanRequest",
    "SQLiteResultStore",
    "SampleSpec",
    "SerialExecutor",
    "ShardedExecutor",
    "StoredValue",
    "TieredResultStore",
    "apply_delta",
    "batch_count_vectors",
    "build_plan",
    "bundle_for_component",
    "database_delta",
    "default_engine",
    "delta_from_dict",
    "delta_to_dict",
    "delta_touches_query",
    "digest_key",
    "dirty_components",
    "environment_problems",
    "execute_grounding_task",
    "fact_numerators",
    "fingerprint_component",
    "fingerprint_database",
    "fingerprint_grounding",
    "fingerprint_query",
    "fingerprint_request",
    "fingerprint_sample_state",
    "fingerprint_sampled",
    "project_result",
    "publish_result",
    "relevant_facts",
    "reset_default_engine",
    "resolve_policy",
    "result_from_state",
    "result_from_vectors",
    "top_level_components",
    "version_positions",
]
