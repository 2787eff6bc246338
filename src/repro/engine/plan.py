"""The planner: one request in, one explicit DAG of work units out.

:func:`build_plan` turns a ``(database, query, groundings)`` request into
a :class:`Plan` — the static half of the engine's plan/execute split.
Planning does everything that must happen *before* any count vector is
computed, and nothing that computes one:

1. **Method dispatch** (the dichotomy of Theorems 3.1/4.3, steered by a
   :class:`repro.engine.policy.MethodPolicy`) on each grounding's
   *relevance slice* — the facts some atom of ``q_t`` can match, cut
   from the database version's one
   :class:`repro.engine.fingerprint.FactIndex`; every other fact is a
   null player, zero-filled at the engine boundary.
   Each grounding is classified as ``cntsat``, ``exoshap`` (the
   rewrite runs at plan time, once), ``brute-force`` (validated once,
   up front, against ``MAX_BRUTE_FORCE_PLAYERS``), ``sampled`` (the
   Section 5 additive FPRAS — the ``auto`` fallback for the
   intractable class, or forced), ``empty``, or ``inconsistent``.
   Under an ``exact`` policy, intractable requests fail at plan time,
   before a single worker is spawned; under ``auto`` nothing is
   intractable anymore.
2. **Node construction**: one :class:`GroundingTask` per isomorphism
   class of exact requests (the per-grounding convolution/assembly
   task) plus one :class:`BundleTask` per distinct top-level Gaifman
   component (the per-component count-vector task).  Equal requests
   collapse onto one node; so do *isomorphic* ones — equal relevance
   slices and grounded queries up to renaming constants
   (:func:`repro.engine.fingerprint.canonical_grounding`), which have
   equal values fact for fact by the symmetry axiom.  Every later
   member of a class is an *alias*: it keeps its own key and records
   the representative's node id and a fact bijection, and the engine
   renames the representative's result onto it.  Only ``cntsat``,
   ``exoshap`` and ``brute-force`` requests alias; a sampled one keeps
   its own key, seed and stream.  Node ids are canonical fingerprints
   (:mod:`repro.engine.fingerprint`), so groundings that share a
   component share the *same* bundle node — the DAG encodes the
   cross-grounding sharing that :class:`repro.engine.cache.BundlePool`
   realizes at execution time.
3. **Store pruning, across versions**: plan nodes whose request key is
   already satisfied by the engine's
   :class:`repro.engine.stores.TieredResultStore` are pruned from the
   executable plan and recorded in :attr:`Plan.satisfied`; executors
   never see them.  Keys are *relevance-scoped*
   (:func:`repro.engine.fingerprint.fingerprint_request`), so a request
   whose relevant slice a database delta did not touch is pruned even
   against a different database version.  Satisfied results stay in
   their stored, slice-projected form; the engine publishes them — like
   every executed result — as views that read irrelevant facts as zero
   (:func:`repro.engine.results.publish_result`).
4. **Bundle-reuse accounting**: when a ``bundle_cache`` is supplied,
   bundle nodes whose component fingerprint is already warm are counted
   as reused (``plan.stats.bundles_reused``) — the executor will satisfy
   them from the cache instead of recomputing, which is how a delta's
   *clean* components are skipped.

Executors (:mod:`repro.engine.executors`) consume the plan; they are
free to run independent nodes in any order — or in different processes —
because the planner has already made every dependency explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, AbstractSet, Sequence

from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.facts import Constant, Fact
from repro.core.hierarchy import is_hierarchical
from repro.core.paths import has_non_hierarchical_path
from repro.core.query import BooleanQuery, ConjunctiveQuery
from repro.engine.bundles import top_level_components
from repro.engine.fingerprint import (
    FactIndex,
    canonical_grounding,
    digest_key,
    fingerprint_sample_state,
    fingerprint_sampled,
)
from repro.engine.policy import MethodPolicy
from repro.engine.results import BatchResult, result_from_state
from repro.obs import tracing as _tracing
from repro.obs.counters import Counters
from repro.shapley.brute_force import (
    MAX_BRUTE_FORCE_PLAYERS,
    validate_brute_force_bound,
)
from repro.shapley.sampling import SampleState, rounds_for_contract, sample_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.bundles import BundleCache
    from repro.engine.stores import TieredResultStore

#: Node-id tag for per-component bundle tasks.
BUNDLE = "bundle"
#: Node-id tag for per-grounding convolution/assembly tasks.
RESULT = "result"
#: The methods whose results isomorphic requests share by renaming: the
#: exact ones.  A sampled result is an estimate from its own key's seeded
#: stream, so a sampled request never aliases.
ALIASED_METHODS = ("cntsat", "exoshap", "brute-force")


@dataclass(frozen=True)
class PlanRequest:
    """One grounding of a batch request, before planning.

    ``query`` is the (grounded) Boolean query; ``grounding`` carries the
    answer tuple when the query was obtained by grounding a non-Boolean
    head, and ``inconsistent`` marks tuples that conflict with a repeated
    head variable (``query`` is then ``None`` — the result is identically
    zero and never touches the stores).
    """

    query: BooleanQuery | None
    grounding: tuple[Constant, ...] | None = None
    inconsistent: bool = False


@dataclass(frozen=True)
class BundleTask:
    """A per-component count-vector node: compute one CountBundle."""

    node_id: tuple
    fingerprint: tuple
    scope: tuple


@dataclass(frozen=True)
class SampleSpec:
    """How a ``sampled`` grounding task must drive the permutation stream.

    ``rounds`` is the *total* round count the task's accuracy contract
    requires; the executor runs only the fresh suffix ``prior.rounds ..
    rounds - 1`` of stream ``seed`` and folds it into ``prior`` (the
    stored :class:`repro.shapley.sampling.SampleState` the planner
    loaded, or ``None`` on a cold start).  ``state_key`` is where the
    engine persists the extended state; ``state_digest`` is the public
    handle surfaced on the result's estimate.  ``restarted`` records
    that a stored state existed but was unusable (wrong stream or
    player set) and the stream was restarted from round zero.
    """

    seed: int
    rounds: int
    epsilon: float
    delta: float
    state_key: tuple
    state_digest: str
    prior: SampleState | None = None
    restarted: bool = False

    @property
    def fresh_rounds(self) -> int:
        return self.rounds - (self.prior.rounds if self.prior else 0)


@dataclass(frozen=True)
class GroundingTask:
    """A per-grounding node: count vectors + Lemma 3.2 assembly.

    ``database``/``query`` are the pair the method actually runs on:
    the request's *relevance slice* (never the whole database), and for
    ``exoshap`` the slice's *rewrite* produced at plan time.  The
    ``inconsistent`` task carries neither — its result is empty and the
    engine zero-fills it.  For ``sampled`` tasks ``sample_spec`` carries
    the round plan.  ``dependencies`` lists the bundle node ids this
    task's recursion will consume; executors may satisfy them in any
    order (or lazily, through the bundle cache) before or while running
    the task.
    """

    node_id: tuple
    key: tuple | None
    method: str
    database: Database | None
    query: BooleanQuery | None
    dependencies: tuple[tuple, ...] = ()
    sample_spec: SampleSpec | None = None


@dataclass(frozen=True)
class PlannedRequest:
    """A request after planning: where its result will come from.

    ``node_id`` names the grounding task that produces the result, or is
    ``None`` when the store already held it (then ``Plan.satisfied[key]``
    has the value).  An *alias* — a request isomorphic to an earlier
    one's, see :func:`repro.engine.fingerprint.canonical_grounding` —
    names that request's task and carries ``renaming``, which maps each
    fact of the task's result to this request's own fact.
    """

    request: PlanRequest
    key: tuple | None
    node_id: tuple | None
    renaming: dict[Fact, Fact] | None = None


#: Planner accounting, how much work the plan avoided up front:
#: ``planned`` grounding tasks against ``requested`` requests, ``pruned``
#: requests the store already satisfied, ``bundles`` bundle nodes and
#: ``bundles_reused`` those whose component was already warm.
PLAN_COUNTERS = ("requested", "planned", "pruned", "bundles", "bundles_reused")

#: Sampler accounting, how the approximation tier spent (and saved) work:
#: ``requests`` sampled requests planned; ``resumed_rounds`` stored
#: antithetic rounds reused instead of recomputed; ``served_from_state``
#: requests whose contract stored rounds already satisfied (zero fresh
#: work); ``restarts`` requests that found an unusable stored state and
#: started the stream over.  The engine fills in ``fresh_rounds`` and
#: ``evaluations`` after execution: new rounds actually run and query
#: evaluations actually spent.
SAMPLE_COUNTERS = (
    "requests",
    "fresh_rounds",
    "resumed_rounds",
    "served_from_state",
    "restarts",
    "evaluations",
)


@dataclass
class Plan:
    """An executable DAG: grounding tasks over shared bundle nodes.

    ``tasks`` lists the grounding tasks in request order (node ids are
    unique — duplicate and isomorphic requests collapse onto one node);
    ``bundles`` maps bundle node ids to their tasks, deduplicated across
    groundings; ``satisfied`` holds the store-pruned results keyed by
    request fingerprint; ``requests`` records, per input request, where
    its result will come from.
    """

    requests: list[PlannedRequest] = field(default_factory=list)
    tasks: list[GroundingTask] = field(default_factory=list)
    bundles: dict[tuple, BundleTask] = field(default_factory=dict)
    satisfied: dict[tuple, BatchResult] = field(default_factory=dict)
    stats: Counters = field(default_factory=lambda: Counters(*PLAN_COUNTERS))
    sample: Counters = field(default_factory=lambda: Counters(*SAMPLE_COUNTERS))


def _as_boolean(query: BooleanQuery) -> BooleanQuery:
    """Normalize a CQ to its Boolean form (UCQs are Boolean already)."""
    return query.as_boolean() if isinstance(query, ConjunctiveQuery) else query


def dispatch(
    database: Database,
    query: BooleanQuery,
    exogenous_relations: AbstractSet[str] | None,
    policy: MethodPolicy,
    endogenous_relations: AbstractSet[str],
) -> tuple[str, Database, BooleanQuery]:
    """The policy-steered dichotomy dispatch, with up-front validation.

    ``database`` is the request's relevance slice; the irrelevant facts
    of ``D`` are null players, zero-filled at the engine boundary.  The
    schema-level quantities do not come from the slice: ``X`` defaults to
    the query relations without endogenous facts in the *full* database
    (``endogenous_relations``), so a relation whose endogenous facts all
    fall outside ``q_t`` is never mistaken for an exogenous one.  Player
    counts — and hence the brute-force cap — are the slice's.

    Returns ``(method, database, query)`` where the database/query pair
    is the one the method runs on (rewritten for ``exoshap``).  Raises
    :class:`IntractableQueryError` — at plan time — when the policy is
    ``exact`` and no polynomial algorithm applies, or when a forced
    ``brute-force`` request is oversized.  Under ``auto`` the dispatch
    never raises: the intractable class falls through to ``sampled``.
    :func:`repro.shapley.model_counting.model_count` asks it too.
    """
    players = len(database.endogenous)
    if policy.method == "brute-force":
        validate_brute_force_bound(database)
        return "brute-force", database, query
    if policy.method == "sampled":
        return "sampled", database, _as_boolean(query)
    if isinstance(query, ConjunctiveQuery):
        boolean = query.as_boolean()
        if exogenous_relations is None:
            exogenous_relations = boolean.relation_names - endogenous_relations
        if boolean.is_self_join_free:
            if is_hierarchical(boolean):
                return "cntsat", database, boolean
            if not has_non_hierarchical_path(boolean, exogenous_relations):
                from repro.shapley.exoshap import rewrite_to_hierarchical

                # The slice may hold none of a declared relation's
                # endogenous facts; check the declaration against D.
                declared = sorted(set(exogenous_relations) & endogenous_relations)
                if declared:
                    raise ValueError(
                        f"relation {declared[0]} is declared exogenous but"
                        " contains endogenous facts"
                    )
                rewrite = rewrite_to_hierarchical(
                    database, boolean, exogenous_relations
                )
                return "exoshap", rewrite.database, rewrite.query
    if policy.method == "exact":
        raise IntractableQueryError(
            f"no polynomial batch algorithm applies to {query!r} and brute"
            f" force over {players} endogenous facts is disabled"
        )
    if players > MAX_BRUTE_FORCE_PLAYERS:
        return "sampled", database, _as_boolean(query)
    return "brute-force", database, query


def _plan_sampled(
    plan: Plan,
    request: PlanRequest,
    query: BooleanQuery,
    base_key: tuple,
    index: FactIndex,
    policy: MethodPolicy,
    store: "TieredResultStore | None",
    seen: set[tuple],
) -> None:
    """Plan one sampled grounding: accuracy-tagged key, resumable state.

    The result key wraps the base request key with the policy's
    ``(epsilon, delta)`` contract — stores never mix accuracy classes —
    while the sampler *state* lives under a policy-independent key, so
    any contract over the same request extends one permutation stream.
    Three outcomes, checked in order:

    1. the contract's own result entry is warm — prune;
    2. a stored state already holds enough rounds — build the (tighter)
       result from it at plan time, zero fresh work;
    3. otherwise emit a task whose spec resumes the stored state (or
       starts the stream) and runs only the missing rounds, over the
       request's *relevant slice* (read from ``index``) as its database:
       dummy invariance makes the restricted estimates exact-equivalent,
       and keeps them — like every relevance-scoped entry — valid across
       database versions whose deltas leave the slice untouched.
    """
    skey = fingerprint_sampled(base_key, policy.contract())
    if skey in plan.satisfied:
        plan.requests.append(PlannedRequest(request, skey, None))
        return
    node_id = (RESULT, skey)
    if node_id in seen:
        plan.requests.append(PlannedRequest(request, skey, node_id))
        return
    if store is not None:
        tracer = _tracing.ACTIVE
        with _tracing.maybe_span(
            tracer,
            "prune",
            key=_tracing.label(skey) if tracer is not None else None,
            sampled=True,
        ) as prune_span:
            cached = store.get(skey)
            prune_span.set("hit", cached is not None)
    else:
        cached = None
    if cached is not None:
        plan.satisfied[skey] = cached
        plan.stats.pruned += 1
        plan.requests.append(PlannedRequest(request, skey, None))
        return
    state_key = fingerprint_sample_state(base_key)
    state_digest = digest_key(state_key)[:16]
    seed = sample_seed(base_key)
    relevant = index.relevant(request.query)
    prior = store.get(state_key) if store is not None else None
    restarted = False
    if prior is not None and not (
        isinstance(prior, SampleState)
        and prior.compatible_with(seed, relevant[0])
    ):
        prior, restarted = None, True
    needed = rounds_for_contract(policy.epsilon, policy.delta)
    plan.sample.requests += 1
    plan.sample.resumed_rounds += prior.rounds if prior is not None else 0
    if restarted:
        plan.sample.restarts += 1
    if prior is not None and prior.rounds >= needed:
        plan.satisfied[skey] = result_from_state(
            prior, policy.delta, state_digest=state_digest
        )
        plan.stats.pruned += 1
        plan.sample.served_from_state += 1
        plan.requests.append(PlannedRequest(request, skey, None))
        return
    restricted = Database(endogenous=relevant[0], exogenous=relevant[1])
    spec = SampleSpec(
        seed=seed,
        rounds=needed,
        epsilon=policy.epsilon,
        delta=policy.delta,
        state_key=state_key,
        state_digest=state_digest,
        prior=prior,
        restarted=restarted,
    )
    seen.add(node_id)
    plan.tasks.append(
        GroundingTask(
            node_id,
            skey,
            "sampled",
            restricted,
            query,
            sample_spec=spec,
        )
    )
    plan.stats.planned += 1
    plan.requests.append(PlannedRequest(request, skey, node_id))


def build_plan(
    database: Database,
    requests: Sequence[PlanRequest],
    *,
    exogenous_relations: AbstractSet[str] | None = None,
    policy: MethodPolicy | None = None,
    store: "TieredResultStore | None" = None,
    include_bundles: bool = True,
    bundle_cache: "BundleCache | None" = None,
) -> Plan:
    """Plan a batch request: dispatch, node construction, store pruning.

    All validation errors (intractable queries under an ``exact``
    policy — including store-served results whose *cached* method was
    brute force — and oversized forced brute force) surface here, before
    any execution; a returned plan only contains work the policy
    sanctioned.

    Request keys are relevance-scoped, so store pruning works **across
    database versions**: a delta that leaves a request's relevant slice
    untouched leaves its key (and hence its store entry) intact.  Every
    result the plan yields — satisfied or executed — covers only its
    slice; the engine zero-fills the rest of ``D`` at its boundary.

    ``include_bundles=False`` skips materializing the per-component
    bundle nodes.  Only a sharding executor consumes them (the serial
    recursion re-derives the same components and keys internally), so
    the engine disables them for single-process backends rather than pay
    the top-level restriction/fingerprint pass twice per grounding.
    ``bundle_cache`` (when given alongside bundle nodes) is only
    consulted — never mutated — to count how many bundle nodes are
    already warm (``stats.bundles_reused``): the delta-scoped pruning
    signal for clean components.
    """
    if policy is None:
        policy = MethodPolicy()
    with _tracing.maybe_span(_tracing.ACTIVE, "plan", requests=len(requests)) as span:
        plan = _build_plan(
            database,
            requests,
            exogenous_relations,
            policy,
            store,
            include_bundles,
            bundle_cache,
        )
        span.set("planned", plan.stats.planned)
        span.set("pruned", plan.stats.pruned)
        span.set("bundles", plan.stats.bundles)
    return plan


def _build_plan(
    database: Database,
    requests: Sequence[PlanRequest],
    exogenous_relations: AbstractSet[str] | None,
    policy: MethodPolicy,
    store: "TieredResultStore | None",
    include_bundles: bool,
    bundle_cache: "BundleCache | None",
) -> Plan:
    plan = Plan()
    plan.stats.requested = len(requests)
    # One index of D, derived once per database version, serves every
    # grounding's relevance slice; the executed tasks carry only their
    # slice.
    index = database.derived(FactIndex)
    tracer = _tracing.ACTIVE
    seen: set[tuple] = set()
    # One exact task per isomorphism class of groundings: the class key
    # maps to the representative's node id and endogenous facts in key
    # order, and every later member plans as an alias of that task.
    classes: dict[tuple, tuple[tuple, tuple[Fact, ...]]] = {}
    aliases: dict[tuple, PlannedRequest] = {}
    classify = len(requests) > 1 and bool(index.endogenous)
    for request in requests:
        if request.inconsistent:
            node_id = (RESULT, "inconsistent")
            if node_id not in seen:
                seen.add(node_id)
                plan.tasks.append(
                    GroundingTask(node_id, None, "inconsistent", None, None)
                )
                plan.stats.planned += 1
            plan.requests.append(PlannedRequest(request, None, node_id))
            continue
        key = index.request_key(
            request.query, exogenous_relations, request.grounding
        )
        if policy.method == "sampled" and index.endogenous:
            _plan_sampled(
                plan,
                request,
                _as_boolean(request.query),
                key,
                index,
                policy,
                store,
                seen,
            )
            continue
        if key in plan.satisfied:
            plan.requests.append(PlannedRequest(request, key, None))
            continue
        node_id = (RESULT, key)
        if node_id in seen:
            plan.requests.append(PlannedRequest(request, key, node_id))
            continue
        if key in aliases:
            plan.requests.append(replace(aliases[key], request=request))
            continue
        if store is not None:
            with _tracing.maybe_span(
                tracer,
                "prune",
                key=_tracing.label(key) if tracer is not None else None,
            ) as prune_span:
                cached = store.get(key)
                prune_span.set("hit", cached is not None)
        else:
            cached = None
        if cached is not None:
            if policy.method == "exact" and cached.method == "brute-force":
                # A warm store must not bypass the caller's polynomial-only
                # contract: honor the policy exactly as a cold plan would.
                raise IntractableQueryError(
                    f"no polynomial batch algorithm applies to {request.query!r}"
                    f" and brute force over {cached.player_count} endogenous"
                    " facts is disabled"
                )
            plan.satisfied[key] = cached
            plan.stats.pruned += 1
            plan.requests.append(PlannedRequest(request, key, None))
            continue
        relevant = index.relevant(request.query)
        canonical = (
            canonical_grounding(request.query, relevant, request.grounding)
            if classify
            else None
        )
        if canonical is not None and canonical[0] in classes:
            representative, facts = classes[canonical[0]]
            aliases[key] = PlannedRequest(
                request, key, representative, dict(zip(facts, canonical[1]))
            )
            plan.requests.append(aliases[key])
            continue
        sliced = Database(endogenous=relevant[0], exogenous=relevant[1])
        if index.endogenous:
            method, count_database, count_query = dispatch(
                sliced,
                request.query,
                exogenous_relations,
                policy,
                index.endogenous_relations,
            )
        else:
            method, count_database, count_query = "empty", sliced, request.query
        if method == "sampled":
            # An ``auto`` fallback: the request is re-planned on the
            # sampled path, under its accuracy-tagged key.
            _plan_sampled(
                plan,
                request,
                count_query,
                key,
                index,
                policy,
                store,
                seen,
            )
            continue
        dependencies = []
        if include_bundles and method in ("cntsat", "exoshap"):
            for fingerprint, scope in top_level_components(count_database, count_query):
                bundle_id = (BUNDLE, fingerprint)
                if bundle_id not in plan.bundles:
                    plan.bundles[bundle_id] = BundleTask(bundle_id, fingerprint, scope)
                    if (
                        bundle_cache is not None
                        and bundle_cache.peek(fingerprint) is not None
                    ):
                        plan.stats.bundles_reused += 1
                dependencies.append(bundle_id)
        seen.add(node_id)
        plan.tasks.append(
            GroundingTask(
                node_id,
                key,
                method,
                count_database,
                count_query,
                tuple(dependencies),
            )
        )
        plan.stats.planned += 1
        plan.requests.append(PlannedRequest(request, key, node_id))
        if canonical is not None and method in ALIASED_METHODS:
            classes[canonical[0]] = (node_id, canonical[1])
    plan.stats.bundles = len(plan.bundles)
    return plan


__all__ = [
    "BUNDLE",
    "PLAN_COUNTERS",
    "RESULT",
    "SAMPLE_COUNTERS",
    "BundleTask",
    "GroundingTask",
    "Plan",
    "PlanRequest",
    "PlannedRequest",
    "SampleSpec",
    "build_plan",
    "dispatch",
]
