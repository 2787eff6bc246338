"""Shapley values of facts w.r.t. aggregate queries over CQ¬s.

The paper (remarks in Section 3, following Livshits et al.) extends the
dichotomy to summations over CQ¬s via linearity of expectation: for an
aggregate ``α = Σ_t val(t) · 1[t ∈ q(D)]`` over the answer tuples of a
(non-Boolean) CQ¬ ``q``,

    ``Shapley(D, α, f) = Σ_t val(t) · Shapley(D, q_t, f)``

where ``q_t`` is the Boolean query obtained by substituting the head
variables with the constants of ``t``.

Candidate tuples must be enumerated over the *positive part* of the query:
with negation, a tuple can be an answer under a subset ``E`` without being
an answer on the full database.

All aggregate operators are engine-backed (:mod:`repro.engine`): the
groundings ``q_t`` run as one answer batch — one *plan* since the
plan/execute split, whose independent grounding/component nodes shard
across worker processes under the engine's sharded executor — that
shares Gaifman-component bundles across answers, each grounding costs a
single shared recursion for *all* facts, and
:func:`aggregate_attribution` exposes the all-facts aggregate values
that fall out of the same pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Callable

from repro.core.database import Database
from repro.core.evaluation import answers
from repro.core.facts import Constant, Fact
from repro.core.query import ConjunctiveQuery

TupleValue = Callable[[tuple[Constant, ...]], Fraction | int]


def candidate_answers(
    database: Database, query: ConjunctiveQuery
) -> frozenset[tuple[Constant, ...]]:
    """All tuples that could be answers under *some* endogenous subset.

    Negated atoms only shrink answer sets for a fixed assignment, but a
    smaller ``E`` can enable an assignment that the full database blocks;
    the positive atoms alone determine which head tuples are ever
    reachable, so we evaluate the positive part on all facts, through
    the version's one index.
    """
    from repro.engine.fingerprint import FactIndex

    if query.is_boolean:
        raise ValueError("aggregates need a query with head variables")
    positive_part = ConjunctiveQuery(
        query.positive_atoms, head=query.head, name=query.name
    )
    return answers(positive_part, database.derived(FactIndex))


def _weighted_answers(
    database: Database, query: ConjunctiveQuery, value_of: TupleValue
) -> list[tuple[tuple[Constant, ...], Fraction]]:
    """Candidate answers with nonzero weight, sorted by ``repr``."""
    weighted = []
    for row in sorted(candidate_answers(database, query), key=repr):
        weight = Fraction(value_of(row))
        if weight:
            weighted.append((row, weight))
    return weighted


def _attribution_from_weighted(
    database: Database,
    query: ConjunctiveQuery,
    weighted: list[tuple[tuple[Constant, ...], Fraction]],
    exogenous_relations: AbstractSet[str] | None,
) -> dict[Fact, Fraction]:
    """Linearity over precomputed ``(answer, weight)`` pairs, through
    :meth:`~repro.engine.results.AnswerBatchResult.aggregate`."""
    from repro.engine import default_engine, version_positions

    if not weighted:
        return dict.fromkeys(database.derived(version_positions), Fraction(0))
    batch = default_engine().batch_answers(
        database,
        query,
        [row for row, _ in weighted],
        exogenous_relations=exogenous_relations,
    )
    return batch.aggregate(dict(weighted).__getitem__)


def aggregate_attribution(
    database: Database,
    query: ConjunctiveQuery,
    value_of: TupleValue,
    exogenous_relations: AbstractSet[str] | None = None,
) -> dict[Fact, Fraction]:
    """Aggregate Shapley values of *every* endogenous fact in one pass.

    One engine answer batch covers all weighted candidate answers; by
    linearity each fact's aggregate value is the weighted sum of its
    per-answer values.  The mapping iterates facts sorted by ``repr``
    and contains every endogenous fact (zeros included).
    """
    weighted = _weighted_answers(database, query, value_of)
    return _attribution_from_weighted(
        database, query, weighted, exogenous_relations
    )


def shapley_aggregate(
    database: Database,
    query: ConjunctiveQuery,
    target: Fact,
    value_of: TupleValue,
    exogenous_relations: AbstractSet[str] | None = None,
) -> Fraction:
    """Shapley value of ``target`` w.r.t. ``Σ_t value_of(t)`` over answers.

    Engine-backed: one batch per grounded query ``q_t`` (shared across
    facts and across answers via the engine caches), then the weighted
    sum of ``target``'s entries.
    """
    weighted = _weighted_answers(database, query, value_of)
    if not weighted:
        return Fraction(0)
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    return _attribution_from_weighted(
        database, query, weighted, exogenous_relations
    )[target]


def shapley_count(
    database: Database,
    query: ConjunctiveQuery,
    target: Fact,
    exogenous_relations: AbstractSet[str] | None = None,
) -> Fraction:
    """Shapley value w.r.t. ``Count{t | q(t)}`` (each answer weighs 1)."""
    return shapley_aggregate(
        database, query, target, lambda row: 1, exogenous_relations
    )


def shapley_sum(
    database: Database,
    query: ConjunctiveQuery,
    target: Fact,
    value_index: int,
    exogenous_relations: AbstractSet[str] | None = None,
) -> Fraction:
    """Shapley value w.r.t. ``Sum{t[value_index] | q(t)}``.

    ``value_index`` selects the numeric head position to sum, e.g. the
    profit attribute in the paper's export example.
    """
    if not query.head:
        raise ValueError("shapley_sum needs a query with head variables")
    if not 0 <= value_index < len(query.head):
        raise ValueError(
            f"value_index {value_index} out of range for head of size {len(query.head)}"
        )

    def value_of(row: tuple[Constant, ...]) -> Fraction:
        return Fraction(row[value_index])

    return shapley_aggregate(database, query, target, value_of, exogenous_relations)
