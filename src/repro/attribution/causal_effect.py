"""The causal effect (Salimi et al., discussed in the paper's intro).

Endogenous facts are kept independently with probability 1/2; the causal
effect of ``f`` is

    ``CE(D, q, f) = E[q | f present] - E[q | f absent]``.

Each of the ``2^(m-1)`` worlds of the other ``m - 1`` endogenous facts
has probability ``2^-(m-1)``, so the difference is

    ``Σ_{E ⊆ Dn∖{f}} (v(E ∪ {f}) - v(E)) / 2^(m-1)``,

which is exactly the Banzhaf value of ``f``.  The library therefore reads
the causal effect from one default-engine batch: the polynomial route
wherever the Shapley value has one (CntSat for Theorem 3.1's class,
ExoShap for Theorem 4.3's), brute force on the relevance slice
otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.query import BooleanQuery
from repro.shapley.exact import exact_result


def causal_effect(
    database: Database, query: BooleanQuery, target: Fact
) -> Fraction:
    """``E[q | f in] - E[q | f out]`` under independent 1/2 retention."""
    return exact_result(database, query, target).banzhaf[target]


def all_causal_effects(
    database: Database, query: BooleanQuery
) -> dict[Fact, Fraction]:
    """Causal effect of every endogenous fact, from one engine batch."""
    facts = sorted(database.endogenous, key=repr)
    if not facts:
        return {}
    effects = exact_result(database, query, facts[0]).banzhaf
    return {f: effects[f] for f in facts}
