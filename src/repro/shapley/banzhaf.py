"""Banzhaf values of database facts.

The (raw) Banzhaf value averages the marginal contribution over *uniform
subsets* instead of permutation prefixes:

    ``Banzhaf(D, q, f) = 2^{-(m-1)} Σ_{E ⊆ Dn∖{f}} (v(E ∪ {f}) - v(E))``.

Two facts make it worth shipping alongside the Shapley engine:

* it falls out of the same count vectors — summing ``c⁺[k] − c⁻[k]`` over
  ``k`` with uniform weight — so the Theorem 3.1 / 4.3 tractable classes
  are tractable for Banzhaf too, via the identical reductions;
* it *coincides with the causal effect* of Salimi et al. under the
  independent-1/2 retention semantics, tying the paper's intro-level
  comparison of measures into one identity the test suite verifies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet

from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.query import BooleanQuery, ConjunctiveQuery
from repro.shapley.brute_force import (
    brute_force_all,
    query_game,
    validate_brute_force_bound,
)
from repro.shapley.exact import (
    CountFunction,
    count_satisfying_subsets,
    exact_result,
)
from repro.shapley.games import banzhaf_value as game_banzhaf_value


def banzhaf_from_counts(
    database: Database,
    query: ConjunctiveQuery,
    target: Fact,
    counter: CountFunction = count_satisfying_subsets,
) -> Fraction:
    """Banzhaf value via two count-vector computations (mirrors Shapley)."""
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    m = len(database.endogenous)
    counts_with = counter(database.with_fact_exogenous(target), query)
    counts_without = counter(database.without_fact(target), query)
    total = sum(counts_with[k] - counts_without[k] for k in range(m))
    return Fraction(total, 2 ** (m - 1))


def banzhaf_brute_force(
    database: Database, query: BooleanQuery, target: Fact
) -> Fraction:
    """Banzhaf value by coalition enumeration (oracle for tests)."""
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    validate_brute_force_bound(database)
    return game_banzhaf_value(*query_game(database, query), target)


def banzhaf_all_brute_force(
    database: Database, query: BooleanQuery
) -> dict[Fact, Fraction]:
    """Exact Banzhaf values of every endogenous fact (see :func:`brute_force_all`)."""
    return brute_force_all(database, query)[1]


def banzhaf_all_values(
    database: Database,
    query: BooleanQuery,
    exogenous_relations: AbstractSet[str] | None = None,
    *,
    policy=None,
) -> dict[Fact, Fraction]:
    """Exact Banzhaf values of every endogenous fact, via the batch engine.

    The engine derives Banzhaf and Shapley values from the same per-fact
    count vectors, so asking for both costs one shared recursion total —
    one plan/execute pass, under whichever executor backend the default
    engine is configured with.  ``policy`` follows
    :func:`repro.shapley.exact.shapley_all_values` — but note the
    ``sampled`` method estimates Shapley only, so a sampled policy here
    returns an empty mapping.
    """
    from repro.engine import default_engine

    return default_engine().banzhaf_all(
        database,
        query,
        exogenous_relations,
        policy=policy,
    )


def banzhaf_value(
    database: Database,
    query: BooleanQuery,
    target: Fact,
    exogenous_relations: AbstractSet[str] | None = None,
    allow_brute_force: bool = True,
) -> Fraction:
    """Exact Banzhaf value, read from the engine like :func:`shapley_value`."""
    return exact_result(
        database, query, target, exogenous_relations, allow_brute_force
    ).banzhaf[target]
