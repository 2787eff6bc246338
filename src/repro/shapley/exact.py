"""Exact Shapley values: the counts reduction and the per-fact front door.

The reduction of Livshits et al. (restated before Lemma 3.2) turns any
polynomial-time counter of satisfying ``k``-subsets into a polynomial-time
Shapley algorithm.  With ``m = |Dn|``:

.. math::

    Shapley(D, q, f) = \\sum_{k=0}^{m-1} \\frac{k!\\,(m-k-1)!}{m!}
        \\left(|Sat^{+f}(k)| - |Sat^{-f}(k)|\\right)

where ``Sat^{+f}(k)`` counts ``k``-subsets of ``Dn \\ {f}`` satisfying the
query *with* ``f`` present (``f`` moved to the exogenous side) and
``Sat^{-f}(k)`` the same *without* ``f`` (``f`` deleted).

The per-fact functions read their value from one request to the shared
batch engine, whose planner alone chooses CntSat (Theorem 3.1), ExoShap
(Theorem 4.3) or brute force, on the request's relevance slice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, AbstractSet, Callable

from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.facts import Fact
from repro.core.query import BooleanQuery, ConjunctiveQuery
from repro.util.kernels import ShapleyAccumulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.results import BatchResult

CountFunction = Callable[[Database, ConjunctiveQuery], list[int]]


def count_satisfying_subsets(
    database: Database, query: ConjunctiveQuery
) -> list[int]:
    """The vector ``[|Sat(D, q, 0)|, ..., |Sat(D, q, |Dn|)|]``.

    The baseline of the engine's forward pass.  Raises
    :class:`SelfJoinError` / :class:`NotHierarchicalError` outside the
    tractable class of Theorem 3.1.
    """
    from repro.engine.bundles import batch_count_vectors

    return list(batch_count_vectors(database, query).baseline)


def shapley_from_counts(
    database: Database,
    query: ConjunctiveQuery,
    target: Fact,
    counter: CountFunction = count_satisfying_subsets,
) -> Fraction:
    """Shapley value via two count-vector computations (the Lemma 3.2 route)."""
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    m = len(database.endogenous)
    with_target = database.with_fact_exogenous(target)
    without_target = database.without_fact(target)
    counts_with = counter(with_target, query)
    counts_without = counter(without_target, query)
    accumulator = ShapleyAccumulator(m)
    for k in range(m):
        difference = counts_with[k] - counts_without[k]
        if difference:
            accumulator.add(k, difference)
    return accumulator.value()


def exact_result(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    exogenous_relations: AbstractSet[str] | None = None,
    allow_brute_force: bool = True,
) -> "BatchResult":
    """The default engine's result for the request of endogenous ``target``.

    The ``exact`` policy first; with ``allow_brute_force``, a plan-time
    :class:`IntractableQueryError` retries as ``brute-force``, whose cap
    the planner checks on the relevance slice.  Never a sampled estimate.
    """
    from repro.engine import default_engine

    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    engine = default_engine()
    try:
        return engine.batch(
            database, query, exogenous_relations=exogenous_relations, policy="exact"
        )
    except IntractableQueryError:
        if not allow_brute_force:
            raise
    return engine.batch(
        database, query, exogenous_relations=exogenous_relations, policy="brute-force"
    )


def shapley_hierarchical(
    database: Database, query: ConjunctiveQuery, target: Fact
) -> Fraction:
    """Polynomial-time Shapley for hierarchical self-join-free CQ¬ (Thm 3.1).

    Raises :class:`SelfJoinError` / :class:`NotHierarchicalError` outside
    that class, so it never runs ExoShap or brute force.
    """
    from repro.engine.bundles import cntsat_query

    result = exact_result(
        database, cntsat_query(query), target, allow_brute_force=False
    )
    return result.shapley[target]


def shapley_value(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    exogenous_relations: AbstractSet[str] | None = None,
    allow_brute_force: bool = True,
) -> Fraction:
    """Exact ``Shapley(D, q, f)``, by the engine's choice of algorithm.

    The planner prefers CntSat for hierarchical self-join-free CQ¬s
    (Theorem 3.1), then ExoShap when the exogenous relations remove
    every non-hierarchical path (Theorem 4.3).  Otherwise, when
    ``allow_brute_force`` is set, it enumerates the coalitions of the
    relevance slice (any Boolean query, including UCQ¬s and self-joins)
    up to ``MAX_BRUTE_FORCE_PLAYERS`` players; past that, or without
    ``allow_brute_force``, it raises :class:`IntractableQueryError`.
    """
    return exact_result(
        database, query, target, exogenous_relations, allow_brute_force
    ).shapley[target]


def shapley_all_values(
    database: Database,
    query: BooleanQuery,
    exogenous_relations: AbstractSet[str] | None = None,
    *,
    policy=None,
) -> dict[Fact, Fraction]:
    """Shapley values of every endogenous fact, exact or sampled per policy.

    Delegates to the shared-work batch engine
    (:class:`repro.engine.BatchAttributionEngine`), i.e. routes through
    the plan/execute pipeline: the planner dispatches the method and
    prunes store-satisfied work, the configured executor (serial by
    default, sharded under ``REPRO_JOBS``) runs one CntSat-style
    recursion — or one ExoShap rewrite — for all facts instead of two
    count-vector computations per fact.  ``policy`` is a
    :class:`repro.engine.policy.MethodPolicy` (or a bare method name):
    the default ``auto`` serves even non-hierarchical queries too large
    for brute force as Hoeffding-bounded estimates, while ``exact``
    fails at plan time with an :class:`IntractableQueryError` naming
    the player count.
    """
    from repro.engine import default_engine

    return default_engine().shapley_all(
        database,
        query,
        exogenous_relations,
        policy=policy,
    )
