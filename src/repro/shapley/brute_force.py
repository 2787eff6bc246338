"""Brute-force Shapley values for Boolean queries.

Works for **any** Boolean query (CQ¬, UCQ¬, self-joins, anything with a
``holds`` semantics) by instantiating the query game of Section 2:

* players  — the endogenous facts ``Dn``;
* value    — ``v(E) = q(Dx ∪ E) - q(Dx)``.

Complexity is exponential in ``|Dn|``; this module is the ground-truth
oracle against which the polynomial algorithms (CntSat, ExoShap) and the
sampling estimator are validated.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable

from repro.core.database import Database
from repro.core.errors import IntractableQueryError
from repro.core.evaluation import holds
from repro.core.facts import Fact
from repro.core.query import BooleanQuery
from repro.shapley.games import shapley_and_banzhaf, shapley_by_subsets

# Enumerating 2^|Dn| subsets beyond this size is a bug, not a computation.
MAX_BRUTE_FORCE_PLAYERS = 24


def query_game(
    database: Database, query: BooleanQuery
) -> tuple[list[Fact], Callable[[frozenset], int]]:
    """The cooperative game (players, value function) of a query.

    The returned value function memoizes satisfaction per coalition, since
    Shapley computations revisit coalitions many times.
    """
    players = sorted(database.endogenous, key=repr)
    exogenous = list(database.exogenous)
    baseline = 1 if holds(query, exogenous) else 0
    cache: dict[frozenset, int] = {}

    def value(coalition: frozenset) -> int:
        if coalition not in cache:
            satisfied = 1 if holds(query, exogenous + list(coalition)) else 0
            cache[coalition] = satisfied - baseline
        return cache[coalition]

    return players, value


def validate_brute_force_bound(database: Database) -> int:
    """Validate ``|Dn| <= MAX_BRUTE_FORCE_PLAYERS`` once, up front.

    Enumeration must fail before any per-coalition work happens, with an
    error naming the player count; returns ``|Dn|`` on success.  The
    error is an :class:`IntractableQueryError` (which is also a
    ``ValueError`` for backwards compatibility).
    """
    size = len(database.endogenous)
    if size > MAX_BRUTE_FORCE_PLAYERS:
        raise IntractableQueryError(
            f"brute force over {size} endogenous facts would enumerate"
            f" 2^{size} coalitions (limit: {MAX_BRUTE_FORCE_PLAYERS});"
            " use the polynomial algorithms or sampling instead"
        )
    return size


def shapley_brute_force(
    database: Database, query: BooleanQuery, target: Fact
) -> Fraction:
    """Exact ``Shapley(D, q, f)`` by coalition enumeration."""
    if not database.is_endogenous(target):
        raise ValueError(f"{target!r} is not an endogenous fact of the database")
    validate_brute_force_bound(database)
    return shapley_by_subsets(*query_game(database, query), target)


def brute_force_all(
    database: Database, query: BooleanQuery
) -> tuple[dict[Fact, Fraction], dict[Fact, Fraction]]:
    """Exact ``(Shapley, Banzhaf)`` values of every endogenous fact.

    One enumeration feeds both measures: every coalition's satisfaction
    is evaluated exactly once (``2^|Dn| + 1`` calls of ``holds``, the
    extra one for ``q(Dx)``), and each nonzero marginal contribution is
    added to the fact's Shapley accumulator and its Banzhaf total.  The
    ``MAX_BRUTE_FORCE_PLAYERS`` bound is checked once up front and
    violations raise :class:`IntractableQueryError` naming the player
    count, so oversized batch requests fail fast instead of per fact.
    """
    validate_brute_force_bound(database)
    return shapley_and_banzhaf(*query_game(database, query))


def shapley_all_brute_force(
    database: Database, query: BooleanQuery
) -> dict[Fact, Fraction]:
    """Exact Shapley values of every endogenous fact (see :func:`brute_force_all`)."""
    return brute_force_all(database, query)[0]


def satisfying_subset_counts(
    database: Database, query: BooleanQuery
) -> list[int]:
    """Brute-force ``|Sat(D, q, k)|`` for every ``k`` (oracle for CntSat tests)."""
    validate_brute_force_bound(database)
    players = sorted(database.endogenous, key=repr)
    exogenous = list(database.exogenous)
    counts = [0] * (len(players) + 1)
    for size in range(len(players) + 1):
        for subset in itertools.combinations(players, size):
            if holds(query, exogenous + list(subset)):
                counts[size] += 1
    return counts
