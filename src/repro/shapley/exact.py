"""Exact Shapley values: the counts reduction and the dispatching front door.

The reduction of Livshits et al. (restated before Lemma 3.2) turns any
polynomial-time counter of satisfying ``k``-subsets into a polynomial-time
Shapley algorithm.  With ``m = |Dn|``:

.. math::

    Shapley(D, q, f) = \\sum_{k=0}^{m-1} \\frac{k!\\,(m-k-1)!}{m!}
        \\left(|Sat^{+f}(k)| - |Sat^{-f}(k)|\\right)

where ``Sat^{+f}(k)`` counts ``k``-subsets of ``Dn \\ {f}`` satisfying the
query *with* ``f`` present (``f`` moved to the exogenous side) and
``Sat^{-f}(k)`` the same *without* ``f`` (``f`` deleted).

:func:`shapley_value` dispatches on the dichotomies: CntSat for
hierarchical queries, ExoShap when exogenous relations rescue tractability
(Theorem 4.3), and bounded brute force otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Callable

from repro.core.classify import classify
from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.facts import Fact
from repro.core.gaifman import infer_exogenous_relations
from repro.core.hierarchy import is_hierarchical
from repro.core.paths import has_non_hierarchical_path
from repro.core.query import BooleanQuery, ConjunctiveQuery, UnionQuery
from repro.shapley.brute_force import (
    MAX_BRUTE_FORCE_PLAYERS,
    shapley_all_brute_force,
    shapley_brute_force,
)
from repro.shapley.cntsat import count_satisfying_subsets
from repro.util.kernels import ShapleyAccumulator

CountFunction = Callable[[Database, ConjunctiveQuery], list[int]]


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


def shapley_hierarchical(
    database: Database, query: ConjunctiveQuery, target: Fact
) -> Fraction:
    """Polynomial-time Shapley for hierarchical self-join-free CQ¬ (Thm 3.1)."""
    return shapley_from_counts(database, query, target, count_satisfying_subsets)


def shapley_value(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    exogenous_relations: AbstractSet[str] | None = None,
    allow_brute_force: bool = True,
) -> Fraction:
    """Exact ``Shapley(D, q, f)``, choosing the best applicable algorithm.

    Order of preference:

    1. CntSat for hierarchical self-join-free CQ¬s (Theorem 3.1);
    2. ExoShap when the exogenous relations remove every non-hierarchical
       path (Theorem 4.3);
    3. brute-force coalition enumeration (any Boolean query, including
       UCQ¬s and self-joins) when ``|Dn|`` is small enough and
       ``allow_brute_force`` is set; otherwise
       :class:`IntractableQueryError`.
    """
    if isinstance(query, UnionQuery):
        return _fallback(database, query, target, allow_brute_force,
                         reason="UCQ¬ has no exact polynomial algorithm here")
    query = query.as_boolean()
    if exogenous_relations is None:
        exogenous_relations = infer_exogenous_relations(query, database)
    if query.is_self_join_free:
        if is_hierarchical(query):
            return shapley_hierarchical(database, query, target)
        if not has_non_hierarchical_path(query, exogenous_relations):
            from repro.shapley.exoshap import exo_shapley

            return exo_shapley(database, query, target, exogenous_relations)
    verdict = classify(query, exogenous_relations)
    return _fallback(
        database, query, target, allow_brute_force,
        reason=f"query classified as {verdict.complexity.value} ({verdict.reason})",
    )


def _fallback(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    allow_brute_force: bool,
    reason: str,
) -> Fraction:
    size = len(database.endogenous)
    if allow_brute_force and size <= MAX_BRUTE_FORCE_PLAYERS:
        return shapley_brute_force(database, query, target)
    raise IntractableQueryError(
        f"no polynomial exact algorithm applies ({reason}) and brute force"
        f" over {size} endogenous facts is "
        + ("disabled" if not allow_brute_force else "too large")
    )


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


def shapley_all_values_per_fact(
    database: Database,
    query: BooleanQuery,
    exogenous_relations: AbstractSet[str] | None = None,
    allow_brute_force: bool = True,
) -> dict[Fact, Fraction]:
    """The seed fact-at-a-time loop: one full dispatch per endogenous fact.

    Kept as the reference implementation the batch engine is validated
    and benchmarked against (``benchmarks/bench_engine.py``); prefer
    :func:`shapley_all_values` everywhere else.
    """
    if isinstance(query, ConjunctiveQuery):
        boolean = query.as_boolean()
        if exogenous_relations is None:
            exogenous_relations = infer_exogenous_relations(boolean, database)
        tractable = boolean.is_self_join_free and (
            is_hierarchical(boolean)
            or not has_non_hierarchical_path(boolean, exogenous_relations)
        )
        if tractable:
            return {
                fact: shapley_value(database, boolean, fact, exogenous_relations)
                for fact in sorted(database.endogenous, key=repr)
            }
    size = len(database.endogenous)
    if allow_brute_force and size <= MAX_BRUTE_FORCE_PLAYERS:
        return shapley_all_brute_force(database, query)
    raise IntractableQueryError(
        f"no polynomial exact algorithm applies and brute force over {size}"
        " endogenous facts is "
        + ("disabled" if not allow_brute_force else "too large")
    )
