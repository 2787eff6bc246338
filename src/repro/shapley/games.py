"""Generic cooperative games and exact Shapley / Banzhaf values.

The Shapley value (Section 2 of the paper) of player ``a`` in game
``v : P(A) → Q`` is the expected marginal contribution of ``a`` over a
uniformly random permutation of the players:

.. math::

    Shapley(A, v, a) = \\frac{1}{|A|!} \\sum_{\\sigma \\in \\Pi_A}
        (v(\\sigma_a \\cup \\{a\\}) - v(\\sigma_a))

This module implements the definition twice — by permutation enumeration
and by the equivalent subset (coalition) formula — which the test suite
cross-checks.  Everything is exact rational arithmetic.  The coalition
form has one enumerator, :func:`shapley_and_banzhaf`, which the query
game of :mod:`repro.shapley.brute_force` also runs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, Hashable, Iterable, Sequence

from repro.util.kernels import reduced_shapley_weights

Player = Hashable
ValueFunction = Callable[[frozenset], Fraction | int]


def shapley_by_permutations(
    players: Sequence[Player], value: ValueFunction, target: Player
) -> Fraction:
    """Shapley value straight from the permutation definition.

    Exponential in ``|players|``; intended as a ground-truth oracle for
    small games in tests.
    """
    players = list(players)
    if target not in players:
        raise ValueError(f"target {target!r} is not a player")
    total = sum(permutation_marginals(players, value, target), Fraction(0))
    return total / factorial(len(players))


def shapley_and_banzhaf(
    players: Sequence[Player],
    value: ValueFunction,
    targets: Iterable[Player] | None = None,
) -> tuple[dict[Player, Fraction], dict[Player, Fraction]]:
    """Shapley and (raw) Banzhaf values of ``targets`` (default: every player).

    ``v`` is evaluated once per coalition, into a table indexed by the
    coalition's bitmask; each marginal ``v(S ∪ {a}) - v(S)`` then feeds
    ``a``'s Shapley coalition form ``Σ_S |S|!(n-|S|-1)!/n! · marginal``
    and its Banzhaf average ``2^-(n-1) Σ_S marginal``.  The weight table
    is built once per call, and integer values stay integers until the
    one division per target.
    """
    players = list(players)
    n = len(players)
    # A target listed twice is one player: deduplicate, keeping order.
    bits = [
        (target, 1 << players.index(target))  # ValueError for a non-player
        for target in dict.fromkeys(players if targets is None else targets)
    ]
    coalitions = [frozenset()]
    for player in players:
        coalitions += [coalition | {player} for coalition in coalitions]
    values = [value(coalition) for coalition in coalitions]
    del coalitions  # the marginal loop reads only the bitmask-indexed table
    weights, denominator = reduced_shapley_weights(n) if n else ([], 1)
    shapley = dict.fromkeys((target for target, _ in bits), 0)
    banzhaf = dict(shapley)
    for mask, base in enumerate(values):
        size = mask.bit_count()
        for target, bit in bits:
            if mask & bit:
                continue
            marginal = values[mask | bit] - base
            if marginal:
                shapley[target] += weights[size] * marginal
                banzhaf[target] += marginal
    halves = 2 ** max(n - 1, 0)
    return (
        {player: Fraction(total, denominator) for player, total in shapley.items()},
        {player: Fraction(total, halves) for player, total in banzhaf.items()},
    )


def shapley_by_subsets(
    players: Sequence[Player], value: ValueFunction, target: Player
) -> Fraction:
    """Shapley value via the coalition form (see :func:`shapley_and_banzhaf`).

    Still exponential, but with ``2^n`` instead of ``n!`` evaluations.
    """
    return shapley_and_banzhaf(players, value, [target])[0][target]


def shapley_all(
    players: Sequence[Player], value: ValueFunction
) -> dict[Player, Fraction]:
    """Shapley values of all players from one enumeration of the coalitions."""
    return shapley_and_banzhaf(players, value)[0]


def banzhaf_value(
    players: Sequence[Player], value: ValueFunction, target: Player
) -> Fraction:
    """The (raw) Banzhaf value: average marginal contribution over subsets.

    Not used by the paper's theorems, but a standard companion power index;
    included because the count-vector machinery computes it for free and it
    is a useful sanity cross-check (same zero set for monotone games).
    """
    return shapley_and_banzhaf(players, value, [target])[1][target]


def efficiency_gap(
    players: Sequence[Player], value: ValueFunction, values: dict[Player, Fraction]
) -> Fraction:
    """``Σ_a Shapley(a) - (v(A) - v(∅))`` — zero iff the efficiency axiom holds."""
    grand = frozenset(players)
    total = sum(values.values(), Fraction(0))
    return total - (Fraction(value(grand)) - Fraction(value(frozenset())))


def permutation_marginals(
    players: Sequence[Player], value: ValueFunction, target: Player
) -> Iterable[Fraction]:
    """Marginal contribution of ``target`` in every permutation (test helper)."""
    for permutation in itertools.permutations(players):
        before = frozenset(
            itertools.takewhile(lambda player: player != target, permutation)
        )
        yield Fraction(value(before | {target})) - Fraction(value(before))
