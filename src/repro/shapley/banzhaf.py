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
from repro.core.errors import IntractableQueryError
from repro.core.facts import Fact
from repro.core.gaifman import infer_exogenous_relations
from repro.core.hierarchy import is_hierarchical
from repro.core.paths import has_non_hierarchical_path
from repro.core.query import BooleanQuery, ConjunctiveQuery
from repro.shapley.brute_force import (
    MAX_BRUTE_FORCE_PLAYERS,
    brute_force_all,
    query_game,
)
from repro.shapley.cntsat import count_satisfying_subsets
from repro.shapley.exact import CountFunction


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
    import itertools

    from repro.shapley.brute_force import validate_brute_force_bound

    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    validate_brute_force_bound(database)
    players, value = query_game(database, query)
    others = [player for player in players if player != target]
    total = 0
    for size in range(len(others) + 1):
        for subset in itertools.combinations(others, size):
            coalition = frozenset(subset)
            total += value(coalition | {target}) - value(coalition)
    return Fraction(total, 2 ** len(others))


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
    """Exact Banzhaf value, dispatching like :func:`repro.shapley.shapley_value`."""
    if isinstance(query, ConjunctiveQuery):
        boolean = query.as_boolean()
        if exogenous_relations is None:
            exogenous_relations = infer_exogenous_relations(boolean, database)
        if boolean.is_self_join_free:
            if is_hierarchical(boolean):
                return banzhaf_from_counts(database, boolean, target)
            if not has_non_hierarchical_path(boolean, exogenous_relations):
                from repro.shapley.exoshap import rewrite_to_hierarchical

                rewrite = rewrite_to_hierarchical(
                    database, boolean, exogenous_relations
                )
                return banzhaf_from_counts(rewrite.database, rewrite.query, target)
    size = len(database.endogenous)
    if allow_brute_force and size <= MAX_BRUTE_FORCE_PLAYERS:
        return banzhaf_brute_force(database, query, target)
    raise IntractableQueryError(
        f"no polynomial Banzhaf algorithm applies and brute force over"
        f" {size} endogenous facts is "
        + ("disabled" if not allow_brute_force else "too large")
    )
